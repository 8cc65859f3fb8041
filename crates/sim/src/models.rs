//! Executable models of the engine and gateway concurrency protocols.
//!
//! Each model is a deterministic closure over [`naps_sync::sim`]
//! primitives, small enough to explore (2 workers × 4 requests scale)
//! but shaped exactly like the production protocol it mirrors:
//!
//! - [`epoch_stamping`] — the serve engine's publish/epoch/drift
//!   protocol (PR 4): workers judge batches under a cached epoch and
//!   fold drift evidence; a publisher bumps the epoch and re-arms the
//!   detectors.  Invariant: no stale-epoch drift evidence.
//! - [`worker_drain`] — the engine's worker-death drain (PR 7): every
//!   accepted request's ticket resolves even when workers die
//!   mid-batch.  Invariant: accepted == answered + lost, and the run
//!   terminates.
//! - [`submitter_wakeup`] — a submitter blocked on queue capacity must
//!   observe shutdown.  Invariant: no lost wakeup, shutdown is sticky.
//! - [`registry_sweep`] — the gateway's registry shutdown sweep: no
//!   connection registers after close, every accepted request is
//!   answered before shutdown returns.
//!
//! [`stat_max`] additionally pins the `fetch_max` high-water-mark
//! pattern: the checker proves the load-then-store variant loses
//! updates and the `fetch_max` variant does not.
//!
//! The correct protocols pass **every** schedule; the seeded bugs (the
//! `bool` parameters, wired up only by the `cfg(naps_sim)`-gated
//! `seeded` module and its tests) are found by the checker.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, LockResult, PoisonError};

use naps_sync::sim::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use naps_sync::sim::sync::{mpsc, Condvar, Mutex};
use naps_sync::sim::thread;

/// Poison recovery: a model thread that fails an invariant assert
/// poisons the mutexes it holds while unwinding, and sibling threads
/// keep running for a few decisions during teardown.  They must not
/// double-panic on the poison — the recorded outcome is the original
/// assert.
fn recover<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Model 1: epoch stamping (serve engine publish/drift protocol, PR 4)
// ---------------------------------------------------------------------------

struct Drift {
    /// Epoch the drift detectors are armed for.
    armed: u64,
    /// Epoch stamp of every batch folded since the last re-arm.
    evidence: Vec<u64>,
}

struct EpochShared {
    /// Generation counter published with `Release`, read with `Acquire`
    /// — the engine's cheap "did the model change?" probe.
    epoch: AtomicU64,
    /// The published snapshot; the model reduces it to its epoch stamp.
    published: Mutex<u64>,
    drift: Mutex<Drift>,
}

fn read_published(sh: &EpochShared) -> u64 {
    *recover(sh.published.lock())
}

/// Folds one judged batch into the drift detectors.  With
/// `guard_fold`, evidence judged under a stale epoch is skipped — the
/// PR 4 fix.  Without it, the historical race is live and the
/// invariant assert below can fire.
fn fold_drift(sh: &EpochShared, batch_epoch: u64, guard_fold: bool) {
    let mut d = recover(sh.drift.lock());
    if guard_fold && d.armed != batch_epoch {
        return;
    }
    d.evidence.push(batch_epoch);
    let armed = d.armed;
    assert!(
        d.evidence.iter().all(|&b| b == armed),
        "stale-epoch drift evidence: batch judged under epoch {batch_epoch} \
         folded into detectors armed for {armed}"
    );
}

fn rearm_drift(sh: &EpochShared, new_epoch: u64) {
    let mut d = recover(sh.drift.lock());
    d.armed = new_epoch;
    d.evidence.clear();
}

/// One publish: bump the snapshot under its lock, advance the epoch,
/// re-arm the detectors — the shape of `MonitorEngine::publish`.
fn publish(sh: &EpochShared) {
    let mut slot = recover(sh.published.lock());
    let next = *slot + 1;
    *slot = next;
    drop(slot);
    // ordering: release — pairs with the worker's acquire probe; the
    // snapshot write above must be visible before the new epoch is.
    sh.epoch.store(next, Ordering::Release);
    rearm_drift(sh, next);
}

fn epoch_worker(sh: &EpochShared, batches: usize, guard_fold: bool) {
    let mut cached = read_published(sh);
    for _ in 0..batches {
        // ordering: acquire — pairs with the publisher's release store.
        if sh.epoch.load(Ordering::Acquire) != cached {
            cached = read_published(sh);
        }
        // The batch is judged under `cached`; a publish can land here,
        // between the probe and the fold — exactly the PR 4 window.
        fold_drift(sh, cached, guard_fold);
    }
}

/// 2 workers × 2 batches racing 1 publisher × 2 publishes.
pub fn epoch_stamping(guard_fold: bool) {
    let sh = Arc::new(EpochShared {
        epoch: AtomicU64::new(0),
        published: Mutex::new(0),
        drift: Mutex::new(Drift {
            armed: 0,
            evidence: Vec::new(),
        }),
    });
    let mut handles = Vec::new();
    for _ in 0..2 {
        let sh = Arc::clone(&sh);
        handles.push(thread::spawn(move || epoch_worker(&sh, 2, guard_fold)));
    }
    {
        let sh = Arc::clone(&sh);
        handles.push(thread::spawn(move || {
            for _ in 0..2 {
                publish(&sh);
            }
        }));
    }
    for h in handles {
        h.join().expect("epoch model thread panicked");
    }
}

// ---------------------------------------------------------------------------
// Model 2: worker-death drain (engine ticket protocol, PR 7)
// ---------------------------------------------------------------------------

const DRAIN_WORKERS: usize = 2;
const DRAIN_MAX_BATCH: usize = 2;

struct DrainReq {
    poison: bool,
    ticket: mpsc::Sender<u64>,
}

struct DrainState {
    /// The one FIFO every worker drains from the front, like the
    /// engine: requests queued when the last worker dies are stranded
    /// unless the death guard drains them.
    queue: VecDeque<DrainReq>,
    shutdown: bool,
    failed: bool,
}

struct DrainShared {
    state: Mutex<DrainState>,
    work: Condvar,
    alive: AtomicUsize,
}

/// Submits one request, returning the caller's ticket.  A rejected
/// submission (engine failed or shut down) drops the sender so the
/// ticket resolves `Err` immediately — the engine's `WorkerLost`.
fn drain_submit(sh: &DrainShared, poison: bool) -> mpsc::Receiver<u64> {
    let (tx, rx) = mpsc::channel();
    let mut st = recover(sh.state.lock());
    if !st.failed && !st.shutdown {
        st.queue.push_back(DrainReq { poison, ticket: tx });
        drop(st);
        sh.work.notify_one();
    }
    rx
}

/// Up to `DRAIN_MAX_BATCH` requests from the front of the queue — the
/// engine's `next_batch` shape.
fn drain_next_batch(sh: &DrainShared) -> Option<Vec<DrainReq>> {
    let mut st = recover(sh.state.lock());
    loop {
        if !st.queue.is_empty() {
            let n = st.queue.len().min(DRAIN_MAX_BATCH);
            return Some(st.queue.drain(..n).collect());
        }
        if st.shutdown {
            return None;
        }
        st = recover(sh.work.wait(st));
    }
}

/// The engine's `WorkerGuard` drop.  With `drain_on_death`, a dying
/// worker wakes its siblings and — if it was the last — fails the
/// engine and drains orphaned requests so their tickets disconnect
/// (the PR 7 fix).  Without it, the dying worker just vanishes and
/// queued tickets hang, which the checker reports as a deadlock.
fn drain_worker_guard(sh: &DrainShared, died: bool, drain_on_death: bool) {
    // ordering: acq-rel — the last decrement must observe every other
    // worker's writes before draining on their behalf.
    let last = sh.alive.fetch_sub(1, Ordering::AcqRel) == 1;
    if died && !drain_on_death {
        return;
    }
    if !died && !last {
        return;
    }
    let orphans = drain_take_orphans(sh, died, last);
    sh.work.notify_all();
    drop(orphans);
}

fn drain_take_orphans(sh: &DrainShared, died: bool, last: bool) -> Option<VecDeque<DrainReq>> {
    let mut st = recover(sh.state.lock());
    if died && last {
        st.failed = true;
        st.shutdown = true;
    }
    last.then(|| std::mem::take(&mut st.queue))
}

fn drain_worker(sh: &DrainShared, drain_on_death: bool) {
    while let Some(batch) = drain_next_batch(sh) {
        for req in batch {
            if req.poison {
                // The worker "dies" mid-batch: the rest of the batch
                // (and the poison request's own ticket) is dropped as
                // the unwind would drop it, then the death guard runs.
                // Death is an early return, not a real panic — panics
                // are reserved for invariant violations.
                drain_worker_guard(sh, true, drain_on_death);
                return;
            }
            let _ = req.ticket.send(1);
        }
    }
    drain_worker_guard(sh, false, drain_on_death);
}

fn drain_begin_shutdown(sh: &DrainShared) {
    let mut st = recover(sh.state.lock());
    st.shutdown = true;
    drop(st);
    sh.work.notify_all();
}

/// 2 workers × 4 requests with poison first and second, so workers
/// can die with requests both in hand and stranded in the queue.  The
/// clean tickets hang only on schedules where each worker pops one
/// poison alone and both die with the clean requests still queued.
pub fn worker_drain(drain_on_death: bool) {
    let sh = Arc::new(DrainShared {
        state: Mutex::new(DrainState {
            queue: VecDeque::new(),
            shutdown: false,
            failed: false,
        }),
        work: Condvar::new(),
        alive: AtomicUsize::new(DRAIN_WORKERS),
    });
    let mut handles = Vec::new();
    for _ in 0..DRAIN_WORKERS {
        let sh = Arc::clone(&sh);
        handles.push(thread::spawn(move || drain_worker(&sh, drain_on_death)));
    }
    let tickets: Vec<_> = [true, true, false, false]
        .into_iter()
        .map(|poison| drain_submit(&sh, poison))
        .collect();
    let mut answered = 0usize;
    let mut lost = 0usize;
    for rx in tickets {
        match rx.recv() {
            Ok(_) => answered += 1,
            Err(_) => lost += 1,
        }
    }
    assert_eq!(answered + lost, 4, "every accepted request must resolve");
    drain_begin_shutdown(&sh);
    for h in handles {
        h.join().expect("drain model worker panicked");
    }
}

// ---------------------------------------------------------------------------
// Model 3: blocked-submitter wakeup on shutdown (engine enqueue loop)
// ---------------------------------------------------------------------------

const WAKEUP_CAPACITY: usize = 1;

struct WakeupState {
    pending: usize,
    shutdown: bool,
}

struct WakeupShared {
    state: Mutex<WakeupState>,
    work: Condvar,
    space: Condvar,
}

/// The engine's enqueue loop: block on `space` while the queue is
/// full, re-checking shutdown after every wakeup.  `false` = rejected
/// because the engine shut down.
fn wakeup_submit(sh: &WakeupShared) -> bool {
    let mut st = recover(sh.state.lock());
    loop {
        if st.shutdown {
            return false;
        }
        if st.pending < WAKEUP_CAPACITY {
            st.pending += 1;
            drop(st);
            sh.work.notify_one();
            return true;
        }
        st = recover(sh.space.wait(st));
    }
}

/// One worker drain step; `false` = shutdown observed with an empty
/// queue (the worker exits).
fn wakeup_drain_one(sh: &WakeupShared) -> bool {
    let mut st = recover(sh.state.lock());
    loop {
        if st.pending > 0 {
            st.pending -= 1;
            drop(st);
            sh.space.notify_all();
            return true;
        }
        if st.shutdown {
            return false;
        }
        st = recover(sh.work.wait(st));
    }
}

fn wakeup_begin_shutdown(sh: &WakeupShared) {
    let mut st = recover(sh.state.lock());
    st.shutdown = true;
    drop(st);
    sh.work.notify_all();
    sh.space.notify_all();
}

/// A submitter pushing 3 requests through a capacity-1 queue races a
/// draining worker and a shutdown.  The checker proves no interleaving
/// strands the submitter in `space.wait` (the lost-wakeup would show
/// up as a deadlock) and that shutdown rejection is sticky.
pub fn submitter_wakeup() {
    let sh = Arc::new(WakeupShared {
        state: Mutex::new(WakeupState {
            pending: 0,
            shutdown: false,
        }),
        work: Condvar::new(),
        space: Condvar::new(),
    });
    let submitter = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || {
            let mut accepted = Vec::new();
            for _ in 0..3 {
                accepted.push(wakeup_submit(&sh));
            }
            accepted
        })
    };
    let worker = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || while wakeup_drain_one(&sh) {})
    };
    wakeup_begin_shutdown(&sh);
    let accepted = submitter.join().expect("submitter panicked");
    worker.join().expect("wakeup model worker panicked");
    let first_rejected = accepted.iter().position(|ok| !ok).unwrap_or(accepted.len());
    assert!(
        accepted[first_rejected..].iter().all(|ok| !ok),
        "a submit succeeded after shutdown rejected an earlier one"
    );
}

// ---------------------------------------------------------------------------
// Model 4: gateway registry shutdown sweep
// ---------------------------------------------------------------------------

struct RegState {
    closed: bool,
    open: Vec<u64>,
    handles: Vec<thread::JoinHandle<()>>,
}

struct RegShared {
    shutting_down: AtomicBool,
    reg: Mutex<RegState>,
    accepted: AtomicU64,
    answered: AtomicU64,
}

fn reg_conn(sh: &RegShared, id: u64) {
    for _ in 0..2 {
        // ordering: seq-cst — mirrors the gateway's shutdown flag.
        if sh.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // ordering: stat counters; compared only after every join.
        sh.accepted.fetch_add(1, Ordering::Relaxed);
        // ordering: stat counters; compared only after every join.
        sh.answered.fetch_add(1, Ordering::Relaxed);
    }
    reg_deregister(sh, id);
}

fn reg_deregister(sh: &RegShared, id: u64) {
    let mut reg = recover(sh.reg.lock());
    reg.open.retain(|&x| x != id);
}

/// Registers and spawns one connection under the registry lock —
/// refused atomically once the registry is closed, exactly like
/// `spawn_connection`.
fn reg_accept_one(sh: &Arc<RegShared>, id: u64) -> bool {
    let mut reg = recover(sh.reg.lock());
    if reg.closed {
        return false;
    }
    reg.open.push(id);
    let conn = Arc::clone(sh);
    reg.handles.push(thread::spawn(move || reg_conn(&conn, id)));
    true
}

fn reg_acceptor(sh: &Arc<RegShared>) {
    for id in 0..3u64 {
        // ordering: seq-cst — mirrors the gateway's shutdown flag.
        if sh.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        if !reg_accept_one(sh, id) {
            break;
        }
    }
}

/// Closes the registry and takes every live handle, atomically.
fn reg_sweep(sh: &RegShared) -> Vec<thread::JoinHandle<()>> {
    let mut reg = recover(sh.reg.lock());
    reg.closed = true;
    std::mem::take(&mut reg.handles)
}

fn reg_assert_swept(sh: &RegShared) {
    let reg = recover(sh.reg.lock());
    assert!(
        reg.open.is_empty(),
        "a connection is still registered after the shutdown sweep"
    );
    assert!(
        reg.handles.is_empty(),
        "a connection was spawned after the registry closed"
    );
}

/// An acceptor registering up to 3 two-request connections races a
/// shutdown that flags, closes, sweeps, and joins.  Invariants: no
/// registration after close, registry empty after the sweep joins,
/// and accepted == answered.
pub fn registry_sweep() {
    let sh = Arc::new(RegShared {
        shutting_down: AtomicBool::new(false),
        reg: Mutex::new(RegState {
            closed: false,
            open: Vec::new(),
            handles: Vec::new(),
        }),
        accepted: AtomicU64::new(0),
        answered: AtomicU64::new(0),
    });
    let acceptor = {
        let sh = Arc::clone(&sh);
        thread::spawn(move || reg_acceptor(&sh))
    };
    // ordering: seq-cst — mirrors the gateway's shutdown flag.
    sh.shutting_down.store(true, Ordering::SeqCst);
    let conns = reg_sweep(&sh);
    acceptor.join().expect("acceptor panicked");
    for conn in conns {
        conn.join().expect("connection panicked");
    }
    reg_assert_swept(&sh);
    assert_eq!(
        // ordering: final reads, every thread already joined.
        sh.accepted.load(Ordering::Relaxed),
        // ordering: final reads, every thread already joined.
        sh.answered.load(Ordering::Relaxed),
        "an accepted request was dropped without an answer"
    );
}

// ---------------------------------------------------------------------------
// Model 5: statistic high-water marks (fetch_max regression pin)
// ---------------------------------------------------------------------------

/// Two threads record values 2 and 3 into a shared maximum.  With
/// `use_fetch_max` the mark is exact on every schedule; with the
/// load-compare-store pattern the checker finds the interleaving where
/// the larger value is overwritten.
pub fn stat_max(use_fetch_max: bool) {
    let max = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for v in [2u64, 3] {
        let max = Arc::clone(&max);
        handles.push(thread::spawn(move || {
            if use_fetch_max {
                // ordering: stat high-water mark — atomicity of the
                // max, not ordering, is what matters.
                max.fetch_max(v, Ordering::Relaxed);
            } else {
                // The pre-fetch_max pattern: two decision points, so a
                // concurrent store can land between them and a smaller
                // value can win.
                // ordering: stat high-water mark (racy on purpose).
                if v > max.load(Ordering::Relaxed) {
                    // ordering: stat high-water mark (racy on purpose).
                    max.store(v, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stat thread panicked");
    }
    assert_eq!(
        // ordering: final read, both threads already joined.
        max.load(Ordering::Relaxed),
        3,
        "high-water mark lost an update"
    );
}

/// The four protocol models with the correct (shipped) protocol wired
/// in, keyed by the names used in `results/sim.json` and
/// `NAPS_SIM_MODEL`.
pub fn protocol_models() -> Vec<(&'static str, fn())> {
    fn epoch() {
        epoch_stamping(true);
    }
    fn drain() {
        worker_drain(true);
    }
    vec![
        ("epoch_stamping", epoch as fn()),
        ("worker_drain", drain as fn()),
        ("submitter_wakeup", submitter_wakeup as fn()),
        ("registry_sweep", registry_sweep as fn()),
    ]
}
