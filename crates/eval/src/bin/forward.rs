//! Measures the allocation-free prepared serving forward pass against
//! the allocating baseline on the dense serving fixture and on the
//! paper's conv Network 1, and writes `results/forward.json`
//! (per-micro-batch-size QPS, allocations per batch on each path).  The
//! binary installs a counting global allocator so
//! allocations-per-request is measured, not estimated.  Exits non-zero
//! when the prepared path allocates at all in steady state on either
//! fixture, when the dense single-row speedup falls below 1.3x, or when
//! any prepared row diverges from the allocating path — the hot path
//! must stay allocation-free, worthwhile, and bit-identical.
//! Usage: `cargo run --release -p naps-eval --bin forward [--full]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation event (alloc/realloc/alloc_zeroed) while
/// delegating the actual memory management to [`System`].
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the System allocator,
// which upholds the GlobalAlloc contract; the counter is a Relaxed
// atomic add with no other side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: counting wrapper around System::alloc; the caller's contract is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed — a monotone event counter, read only when
        // the allocator is quiescent between measurement fences.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: direct delegation to System::dealloc; the caller's contract is forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a matching alloc on System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: counting wrapper around System::realloc; the caller's contract is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: relaxed — monotone event counter (see alloc).
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as our own caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: counting wrapper around System::alloc_zeroed; the caller's contract is forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed — monotone event counter (see alloc).
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    // ordering: relaxed — read between measurement fences while the
    // measured region is single-threaded.
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    let cfg = naps_eval::RunConfig::from_env();
    let result = naps_eval::forward::run(&cfg, allocation_count);
    let mut failures = Vec::new();
    if !result.all_identical {
        failures.push("prepared rows diverged from the allocating observe path".to_string());
    }
    if result.steady_state_allocs != 0 {
        failures.push(format!(
            "prepared path performed {} heap allocations in steady state (must be zero)",
            result.steady_state_allocs
        ));
    }
    if result.single_row_speedup < 1.3 {
        failures.push(format!(
            "dense single-row speedup {:.2}x is below the 1.3x floor",
            result.single_row_speedup
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
