//! Steady-state allocation regression test for the prepared observer.
//!
//! Installs a counting global allocator (each integration test is its
//! own binary, so the allocator is private to this test) and asserts
//! that a warmed [`PreparedObserver`] performs **zero** heap
//! allocations across many consecutive micro-batches — on an MLP and on
//! the paper's convolutional Network 1 — the invariant the `forward`
//! eval gates end to end and the `hot_path_alloc` analyzer rule guards
//! textually.  A compiled zone's small-zone membership query, which
//! judges every pattern of a zone small enough to enumerate, is held to
//! zero allocations too.

use naps_bdd::{CompiledPath, CompiledZone};
use naps_core::batch::ObservationPlan;
use naps_core::prepared::PreparedObserver;
use naps_core::{BddZone, NeuronSelection, Pattern, Zone};
use naps_nn::{mnist_net, Dense, Layer, ModelSnapshot, Relu, Sequential, MNIST_MONITOR_LAYER};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation event while delegating to [`System`].
struct CountingAllocator;

thread_local! {
    /// Allocation events of the current thread: the harness runs tests
    /// on parallel threads, so each test counts only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised, drop-free thread local never allocates on
    // access; `try_with` tolerates a thread that is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation events of the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates verbatim to the System allocator,
// which upholds the GlobalAlloc contract; the counter is a thread-local
// add with no other side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: counting wrapper around System::alloc; the caller's contract is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
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
        count_one();
        // SAFETY: same contract as our own caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: counting wrapper around System::alloc_zeroed; the caller's contract is forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A deterministic MLP built from explicit parts — no RNG, no training,
/// so the test allocates nothing surprising while constructing it.
fn model() -> Sequential {
    let dense = |inw: usize, outw: usize, seed: f32| {
        Dense::from_parts(
            Tensor::from_vec(
                vec![inw, outw],
                (0..inw * outw)
                    .map(|i| ((i as f32 + seed) * 0.37).sin())
                    .collect(),
            ),
            Tensor::from_vec(
                vec![outw],
                (0..outw)
                    .map(|i| ((i as f32 + seed) * 0.19).cos())
                    .collect(),
            ),
        )
    };
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(dense(6, 16, 0.0)),
        Box::new(Relu::new()),
        Box::new(dense(16, 8, 5.0)),
        Box::new(Relu::new()),
        Box::new(dense(8, 3, 2.0)),
    ];
    Sequential::new(layers)
}

fn probes(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|p| {
            Tensor::from_vec(
                vec![6],
                (0..6).map(|i| ((p * 6 + i) as f32 * 0.23).sin()).collect(),
            )
        })
        .collect()
}

#[test]
fn warmed_observer_allocates_nothing_in_steady_state() {
    let snapshot = ModelSnapshot::capture(&model()).expect("MLP captures");
    let plan = ObservationPlan::new(vec![1, 3]);
    let prepared = snapshot.prepare(&plan);
    let sel1 = NeuronSelection::all(16);
    let sel3 = NeuronSelection::from_indices(vec![0, 3, 6], 8);
    let taps = [(1usize, &sel1), (3usize, &sel3)];
    let mut observer = PreparedObserver::new();
    let inputs = probes(8);

    // Warm-up: grow every buffer to its high-water shape, including the
    // largest micro-batch this test will serve.
    for _ in 0..3 {
        std::hint::black_box(observer.observe(&prepared, &inputs, taps.iter().copied()));
    }

    // Steady state: many consecutive micro-batches, including smaller
    // ones (shrinking must reuse, never reallocate), with the exact
    // allocation count pinned at zero.
    let before = allocations();
    for round in 0..100 {
        let take = [8usize, 3, 1, 5][round % 4];
        let rows = observer.observe(&prepared, &inputs[..take], taps.iter().copied());
        assert_eq!(rows.len(), take);
        std::hint::black_box(rows);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warmed PreparedObserver must not touch the allocator in steady state"
    );
}

/// Network 1 — conv, max pooling, dense — observed at its first pooling
/// layer and at the monitored fc(40) ReLU, so both conv → ReLU →
/// max-pool blocks run fused.
#[test]
fn warmed_conv_observer_allocates_nothing_in_steady_state() {
    let snapshot = ModelSnapshot::capture(&mnist_net(&mut StdRng::seed_from_u64(3)))
        .expect("Network 1 captures");
    let plan = ObservationPlan::new(vec![2, MNIST_MONITOR_LAYER]);
    let prepared = snapshot.prepare(&plan);
    assert_eq!(prepared.fused_blocks(), 2, "both conv blocks run fused");
    let pooled = NeuronSelection::from_indices((0..40 * 12 * 12).step_by(97).collect(), 40 * 144);
    let monitored = NeuronSelection::all(40);
    let taps = [(2usize, &pooled), (MNIST_MONITOR_LAYER, &monitored)];
    let inputs: Vec<Tensor> = (0..4)
        .map(|p| {
            Tensor::from_vec(
                vec![28 * 28],
                (0..28 * 28)
                    .map(|i| ((p * 784 + i) as f32 * 0.11).sin().max(0.0))
                    .collect(),
            )
        })
        .collect();
    let mut observer = PreparedObserver::new();
    std::hint::black_box(observer.observe(&prepared, &inputs, taps.iter().copied()));

    let before = allocations();
    for round in 0..8 {
        let take = [4usize, 1, 3, 2][round % 4];
        let rows = observer.observe(&prepared, &inputs[..take], taps.iter().copied());
        assert_eq!(rows.len(), take);
        std::hint::black_box(rows);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warmed conv PreparedObserver must not touch the allocator in steady state"
    );
}

/// Membership on a compiled zone's sorted-key index (multi-word keys: 70
/// neurons, two words per pattern) searches the keys in place: no query,
/// member or not, touches the allocator.
#[test]
fn sorted_key_membership_allocates_nothing() {
    let width = 70;
    let seeds: Vec<Pattern> = (0..6)
        .map(|s| {
            Pattern::from_bools(
                &(0..width)
                    .map(|i| (i * 7 + s * 11) % 5 == 0)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut zone = BddZone::empty(width);
    for p in &seeds {
        zone.insert(p);
    }
    zone.enlarge_to(1);
    let compiled = CompiledZone::compile(&zone.zone_snapshot());
    assert_eq!(compiled.path(), CompiledPath::SortedKeys);
    let far = Pattern::from_bools(&[true; 70]);
    let probes: Vec<(&[u64], bool)> = seeds
        .iter()
        .map(|p| (p.words(), true))
        .chain([(far.words(), false)])
        .collect();

    let before = allocations();
    for _ in 0..50 {
        for &(words, member) in &probes {
            assert_eq!(std::hint::black_box(compiled.eval_words(words)), member);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a sorted-key membership query must not touch the allocator"
    );
}
