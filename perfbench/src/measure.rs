//! Measurement primitives: a counting global allocator, a log-linear
//! latency histogram, windowed throughput, the host calibration loop,
//! the process memory high-water mark, and the span tracer of traced
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts heap allocation events (`alloc`, `alloc_zeroed`, `realloc`) of
/// every thread while counting is switched on by [`count_allocs`];
/// otherwise it only forwards to the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    // ordering: relaxed — a statistic; `count_allocs` brackets the
    // counted region with SeqCst stores and loads on its own thread.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the number of heap allocation
/// events every thread of the process made meanwhile.  The count is exact
/// when no other thread is working during `f`.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    COUNTING.store(false, Ordering::SeqCst);
    (out, n)
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Samples kept exactly; quantiles of larger samples come from the
/// buckets.
const EXACT: usize = 4096;

/// Latency samples in nanoseconds: the first 4,096 exactly, all of them
/// in a fixed-size log-linear histogram of 128 buckets per octave (bucket
/// width ≤ 0.8% of its value).  Memory is fixed up front and does not
/// grow with the number of operations.  Quantiles are exact while the
/// sample fits the exact buffer and otherwise interpolate linearly inside
/// the bucket holding the rank.
pub struct Hist {
    counts: Vec<u64>,
    exact: Vec<u64>,
    n: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; 64 * SUB as usize],
            exact: Vec::with_capacity(EXACT),
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) - SUB;
        ((u64::from(e - SUB_BITS) + 1) * SUB + sub) as usize
    }

    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx as f64, (idx + 1) as f64);
        }
        let shift = idx / SUB - 1;
        let lo = (SUB + idx % SUB) << shift;
        (lo as f64, (lo + (1 << shift)) as f64)
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::index(ns)] += 1;
        if self.exact.len() < EXACT {
            self.exact.push(ns);
        }
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds, or `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.n as usize <= EXACT {
            let mut v = self.exact.clone();
            v.sort_unstable();
            let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
            let (lo, frac) = (rank.floor() as usize, rank.fract());
            let hi = (lo + 1).min(v.len() - 1);
            return Some(v[lo] as f64 + frac * (v[hi] as f64 - v[lo] as f64));
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                let (lo, hi) = Self::bounds(idx);
                let frac = ((target - before as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
            before += c;
        }
        None
    }

    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1e3)
    }
}

/// Throughput over consecutive windows of a closed loop.  A window closes
/// at the first operation completing after `window` has elapsed, and its
/// rate is its operations over its exact duration; the run reports the
/// median window, so one stall moves the figure by at most one window.
pub struct Rate {
    window: Duration,
    start: Instant,
    ops: u64,
    rates: Vec<f64>,
}

impl Rate {
    pub fn new(window: Duration) -> Self {
        Rate {
            window,
            start: Instant::now(),
            ops: 0,
            rates: Vec::with_capacity(256),
        }
    }

    pub fn restart(&mut self, now: Instant) {
        self.start = now;
        self.ops = 0;
    }

    pub fn tick(&mut self, ops: u64, now: Instant) {
        self.ops += ops;
        let elapsed = now - self.start;
        if elapsed >= self.window {
            self.rates.push(self.ops as f64 / elapsed.as_secs_f64());
            self.restart(now);
        }
    }

    /// Closes the open window at the end of a phase when it holds at
    /// least half a window, or when no window has closed yet.
    pub fn finish(&mut self, now: Instant) {
        let elapsed = now - self.start;
        if self.ops > 0 && (self.rates.is_empty() || elapsed >= self.window / 2) {
            self.rates.push(self.ops as f64 / elapsed.as_secs_f64());
        }
        self.restart(now);
    }

    pub fn windows(&self) -> usize {
        self.rates.len()
    }

    pub fn median(&self) -> Option<f64> {
        median(&self.rates)
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

const CALIB_FLOATS: usize = 16 * 1024;
const CALIB_PASSES: usize = 1500;

/// The host calibration loop: a fixed multiply-add sweep over a 64 KiB
/// buffer (vectorised floating-point work through the caches, the kind
/// of work the model's kernels do) that uses no repository code, timed
/// three times; returns the median in microseconds.  It shows which host
/// phase a run met and is never used to scale, filter or discard a
/// metric.
pub fn calibrate() -> f64 {
    let x: Vec<f32> = (0..CALIB_FLOATS).map(|i| (i % 17) as f32 * 0.01).collect();
    let mut times = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut y = vec![1.0f32; CALIB_FLOATS];
        let start = Instant::now();
        for _ in 0..CALIB_PASSES {
            for (yi, xi) in y.iter_mut().zip(black_box(&x)) {
                *yi = *yi * 0.999 + xi;
            }
            black_box(&mut y);
        }
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&times).unwrap_or(f64::NAN)
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-name aggregate of closed spans.
struct SpanStat {
    count: u64,
    total: Duration,
    self_total: Duration,
    self_hist: Hist,
}

struct Open {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    start: Instant,
    children: Duration,
}

/// One recorded span, as written to the trace file.
struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Most raw spans kept for the trace file; aggregates cover every span.
const RAW_SPANS: usize = 200_000;

/// Times calls as nested spans (name, start, end, parent).  Self time is
/// a span's duration minus its children's.  Aggregates are kept per name
/// for every span; the first spans are also kept raw, in memory, and
/// written out by [`Tracer::write_jsonl`] at exit.  A disabled tracer
/// only runs the closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: u32,
    open: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
    raw: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: 0,
            open: Vec::with_capacity(16),
            stats: BTreeMap::new(),
            raw: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.open.last().map(|o| o.id);
        self.open.push(Open {
            name,
            id,
            parent,
            start: Instant::now(),
            children: Duration::ZERO,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.open.pop().expect("span stack balanced by this call");
        let dur = end - open.start;
        if let Some(p) = self.open.last_mut() {
            p.children += dur;
        }
        let own = dur.saturating_sub(open.children);
        let stat = self.stats.entry(name).or_insert_with(|| SpanStat {
            count: 0,
            total: Duration::ZERO,
            self_total: Duration::ZERO,
            self_hist: Hist::new(),
        });
        stat.count += 1;
        stat.total += dur;
        stat.self_total += own;
        stat.self_hist.record(own);
        if self.raw.len() < RAW_SPANS {
            self.raw.push(Span {
                id,
                parent: open.parent,
                name: open.name,
                start_ns: (open.start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
            });
        }
        out
    }

    /// Median self time of spans called `name`, in microseconds.
    pub fn median_self_us(&self, name: &str) -> Option<f64> {
        self.stats.get(name)?.self_hist.quantile_us(0.5)
    }

    /// Mean duration (children included) of spans called `name`, in
    /// seconds.
    pub fn mean_total_s(&self, name: &str) -> Option<f64> {
        let s = self.stats.get(name)?;
        (s.count > 0).then(|| s.total.as_secs_f64() / s.count as f64)
    }

    /// Share of the total duration of spans called `name` that their
    /// child spans cover.
    pub fn child_coverage(&self, name: &str) -> Option<f64> {
        let s = self.stats.get(name)?;
        let total = s.total.as_secs_f64();
        (total > 0.0).then(|| 1.0 - s.self_total.as_secs_f64() / total)
    }

    /// Writes the raw spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.raw.len() * 80);
        for s in &self.raw {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_round_trip_their_bounds() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 12_345, 987_654_321] {
            let (lo, hi) = Hist::bounds(Hist::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
            assert!(
                hi - lo <= (v as f64 / 100.0).max(1.0),
                "bucket of {v} too wide"
            );
        }
    }

    #[test]
    fn quantiles_track_a_uniform_sample_exactly_then_through_buckets() {
        let mut h = Hist::new();
        for us in 1..=1001u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.quantile_us(0.5), Some(501.0));
        assert_eq!(h.quantile_us(0.9), Some(901.0));
        for _ in 0..10 {
            for us in 1..=1001u64 {
                h.record(Duration::from_micros(us));
            }
        }
        let p50 = h.quantile_us(0.5).expect("non-empty");
        let p90 = h.quantile_us(0.9).expect("non-empty");
        assert!((p50 - 501.0).abs() < 5.0, "p50 {p50}");
        assert!((p90 - 901.0).abs() < 9.0, "p90 {p90}");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let outer = t.median_self_us("outer").expect("recorded");
        let inner = t.median_self_us("inner").expect("recorded");
        assert!(
            inner >= 5000.0 && outer < inner,
            "outer {outer} inner {inner}"
        );
        assert!(t.child_coverage("outer").expect("recorded") > 0.5);
    }
}
