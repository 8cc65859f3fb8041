//! The cooperative scheduler: thread registry, decision loop, sleep
//! sets, abort teardown, and the per-run trace.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Fallback id source for objects created *outside* any execution
/// (test scaffolding, statics).  Starts at 1 and stays far below the
/// per-run range.
static NEXT_OBJECT: AtomicU64 = AtomicU64::new(1);

/// First id handed out by a run's own counter.  Keeping the two
/// ranges disjoint means a pre-run object can never collide with a
/// run-created one.
const RUN_OBJECT_BASE: u64 = 1 << 32;

/// Ids are **deterministic per schedule prefix**: objects created
/// inside a run draw from the run's own counter, and since exactly one
/// thread executes between decision points, the same forced prefix
/// creates the same objects in the same order.  That is what lets a
/// sleep set recorded in one run be meaningfully re-injected into a
/// sibling run.
pub(crate) fn fresh_object_id() -> u64 {
    match current() {
        Some(ctx) => ctx.exec.fresh_run_object_id(),
        // ordering: a unique-id counter — uniqueness is all that matters.
        None => NEXT_OBJECT.fetch_add(1, Ordering::Relaxed),
    }
}

/// Whether an operation reads or mutates its object.  Two reads of the
/// same object commute; everything else on a shared object does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

/// What kind of visible operation a decision executed — for trace
/// display and deadlock reports; the dependency relation only looks at
/// the objects and the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A freshly spawned thread's first scheduling.
    Start,
    Yield,
    Sleep,
    Spawn,
    Join,
    Lock,
    CvWait,
    /// A `wait_timeout` firing instead of being notified.
    CvTimeout,
    CvNotify,
    Send,
    Recv,
    TryRecv,
    SenderDrop,
    ReceiverDrop,
    Load,
    Store,
    Rmw,
}

/// One visible operation.  `obj` is the primary object; `obj2` is a
/// secondary object for operations that touch two (a condvar wait also
/// releases its mutex).  `0` means "no object".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub obj: u64,
    pub obj2: u64,
    pub access: Access,
    pub kind: OpKind,
}

impl Op {
    pub(crate) fn simple(kind: OpKind) -> Op {
        Op {
            obj: 0,
            obj2: 0,
            access: Access::Read,
            kind,
        }
    }

    pub(crate) fn write(obj: u64, kind: OpKind) -> Op {
        Op {
            obj,
            obj2: 0,
            access: Access::Write,
            kind,
        }
    }

    pub(crate) fn write2(obj: u64, obj2: u64, kind: OpKind) -> Op {
        Op {
            obj,
            obj2,
            access: Access::Write,
            kind,
        }
    }

    fn touches(&self, obj: u64) -> bool {
        obj != 0 && (self.obj == obj || self.obj2 == obj)
    }
}

/// The dependency relation for sleep-set pruning: two operations are
/// dependent iff they share a (nonzero) object and at least one
/// writes.  Independent operations commute, so a schedule that only
/// swaps adjacent independent operations reaches the same state.
pub fn dependent(a: &Op, b: &Op) -> bool {
    let share = a.touches(b.obj) || a.touches(b.obj2);
    share && !(a.access == Access::Read && b.access == Access::Read)
}

/// A (possibly empty) forced schedule prefix plus the sleep set in
/// effect at its final decision.  The explorer builds these from prior
/// traces; an empty default explores from the root with the default
/// policy.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Thread ids to force, one per decision, from the first decision.
    pub choices: Vec<usize>,
    /// Sleep set (thread, its pending op) injected at the last forced
    /// decision — threads whose subtrees are already covered elsewhere.
    pub sleep: Vec<(usize, Op)>,
}

/// Per-run resource bounds.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum decisions before the run is cut as [`Outcome::DepthBounded`].
    pub max_decisions: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_decisions: 5_000,
        }
    }
}

/// One scheduling decision, as recorded in the trace.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Every enabled thread at this decision (before sleep filtering),
    /// with the op it would execute, sorted by thread id.
    pub candidates: Vec<(usize, Op)>,
    /// The sleep set in effect at this decision.
    pub sleeping: Vec<(usize, Op)>,
    /// The thread that held the baton before this decision.
    pub from: Option<usize>,
    pub chosen: usize,
    pub chosen_op: Op,
    /// Whether this decision preempted a thread that could have
    /// continued.
    pub preemptive: bool,
    /// Cumulative preemptions in the run before this decision.
    pub preemptions_before: usize,
    /// Whether the choice came from the forced schedule prefix.
    pub forced: bool,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread finished, no failure.
    Complete,
    /// Every enabled thread was in the sleep set — the subtree is
    /// covered by sibling schedules; not a failure and not a full run.
    Pruned,
    /// The decision bound was hit; the run tells us nothing further.
    DepthBounded,
    /// No thread was runnable but not all had finished.  Each entry
    /// describes one blocked thread.
    Deadlock(Vec<String>),
    /// A simulated thread panicked (an assert in a model, or a real
    /// bug surfaced by the schedule).
    Panic { thread: usize, message: String },
    /// A forced choice named a thread that was not enabled — the
    /// schedule came from a different program or a nondeterministic
    /// model.
    ReplayDivergence { at: usize, wanted: usize },
}

/// The result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub outcome: Outcome,
    pub trace: Vec<DecisionRecord>,
}

impl RunResult {
    /// The choice list that replays this run exactly.
    pub fn choices(&self) -> Vec<usize> {
        self.trace.iter().map(|d| d.chosen).collect()
    }
}

// ---------------------------------------------------------------------------
// Internal scheduler state
// ---------------------------------------------------------------------------

/// What a parked thread is waiting for.
#[derive(Debug, Clone)]
pub(crate) enum Wait {
    /// Nothing — enabled as soon as scheduled.
    Ready,
    /// The mutex must be free.
    LockFree { mutex: u64 },
    /// A condvar waiter re-acquiring its mutex after notify/timeout.
    Reacquire { mutex: u64, timed_out: bool },
    /// The channel must have a value or no remaining senders.
    ChanReadable { chan: u64 },
    /// The target thread must have finished.
    ThreadDone { target: usize },
}

/// A parked thread's proposed next operation.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub op: Op,
    pub wait: Wait,
}

impl Pending {
    pub(crate) fn ready(op: Op) -> Pending {
        Pending {
            op,
            wait: Wait::Ready,
        }
    }
}

#[derive(Debug, Clone)]
enum TStatus {
    /// Holds the baton, executing user code.
    Running,
    /// At a decision point, waiting to be scheduled.
    Parked(Pending),
    /// Inside `Condvar::wait`, not yet notified.  If `timed`, the
    /// thread is schedulable (scheduling it fires the timeout).
    CvLimbo {
        cv: u64,
        mutex: u64,
        timed: bool,
    },
    Finished,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<usize>,
}

#[derive(Debug)]
struct ChanState {
    len: usize,
    senders: usize,
    rx_alive: bool,
}

impl Default for ChanState {
    fn default() -> Self {
        ChanState {
            len: 0,
            senders: 1,
            rx_alive: true,
        }
    }
}

/// What a parked thread learns when it wakes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wake {
    /// Scheduled normally.  `timed_out` is meaningful only after a
    /// condvar reacquire.
    Granted { timed_out: bool },
    /// The run is tearing down — free-pass the operation.
    Abort,
}

struct ExecState {
    threads: Vec<TStatus>,
    active: Option<usize>,
    last_active: Option<usize>,
    schedule: Schedule,
    cursor: usize,
    sleep: Vec<(usize, Op)>,
    trace: Vec<DecisionRecord>,
    max_decisions: usize,
    preemptions: usize,
    outcome: Option<Outcome>,
    abort: bool,
    mutexes: HashMap<u64, MutexState>,
    cvs: HashMap<u64, Vec<usize>>,
    chans: HashMap<u64, ChanState>,
    real_handles: Vec<Option<std::thread::JoinHandle<()>>>,
}

impl ExecState {
    fn new(schedule: Schedule, limits: &Limits) -> ExecState {
        ExecState {
            threads: vec![TStatus::Running],
            active: Some(0),
            last_active: Some(0),
            schedule,
            cursor: 0,
            sleep: Vec::new(),
            trace: Vec::new(),
            max_decisions: limits.max_decisions.max(1),
            preemptions: 0,
            outcome: None,
            abort: false,
            mutexes: HashMap::new(),
            cvs: HashMap::new(),
            chans: HashMap::new(),
            real_handles: vec![None],
        }
    }

    fn mutex_mut(&mut self, id: u64) -> &mut MutexState {
        self.mutexes.entry(id).or_default()
    }

    fn chan_mut(&mut self, id: u64) -> &mut ChanState {
        self.chans.entry(id).or_default()
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| matches!(t, TStatus::Finished))
    }

    fn sleeping(&self, tid: usize) -> bool {
        self.sleep.iter().any(|(t, _)| *t == tid)
    }

    /// Every thread that could execute its next operation right now,
    /// with that operation.  Timed condvar waiters are schedulable —
    /// scheduling one fires its timeout.
    fn candidates(&self) -> Vec<(usize, Op)> {
        let mut out = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            match t {
                TStatus::Parked(p) => {
                    let enabled = match p.wait {
                        Wait::Ready => true,
                        Wait::LockFree { mutex } | Wait::Reacquire { mutex, .. } => {
                            self.mutexes.get(&mutex).is_none_or(|m| m.owner.is_none())
                        }
                        Wait::ChanReadable { chan } => self
                            .chans
                            .get(&chan)
                            .is_some_and(|c| c.len > 0 || c.senders == 0),
                        Wait::ThreadDone { target } => {
                            matches!(self.threads[target], TStatus::Finished)
                        }
                    };
                    if enabled {
                        out.push((tid, p.op));
                    }
                }
                TStatus::CvLimbo {
                    cv,
                    mutex,
                    timed: true,
                } => {
                    out.push((tid, Op::write2(*cv, *mutex, OpKind::CvTimeout)));
                }
                _ => {}
            }
        }
        out
    }

    fn blocked_report(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            match t {
                TStatus::Parked(p) => {
                    let what = match &p.wait {
                        Wait::Ready => continue,
                        Wait::LockFree { mutex } | Wait::Reacquire { mutex, .. } => {
                            format!("lock mutex#{mutex}")
                        }
                        Wait::ChanReadable { chan } => format!("recv on chan#{chan}"),
                        Wait::ThreadDone { target } => format!("join t{target}"),
                    };
                    out.push(format!("t{tid} blocked: {what}"));
                }
                TStatus::CvLimbo { cv, mutex, .. } => {
                    out.push(format!("t{tid} waiting on cv#{cv} (mutex#{mutex})"));
                }
                _ => {}
            }
        }
        out
    }

    /// The decision loop: runs whenever no thread holds the baton.
    /// Picks the next thread (forced prefix first, then the default
    /// run-to-block policy over non-sleeping candidates), records the
    /// decision, evolves the sleep set, and grants the baton.  Condvar
    /// timeouts are scheduler-side transitions and loop for another
    /// decision.
    fn decide(&mut self) {
        loop {
            if self.abort || self.active.is_some() {
                return;
            }
            let candidates = self.candidates();
            if candidates.is_empty() {
                if !self.all_finished() {
                    self.outcome = Some(Outcome::Deadlock(self.blocked_report()));
                    self.abort = true;
                }
                return;
            }
            let forced = self.cursor < self.schedule.choices.len();
            let chosen = if forced {
                let want = self.schedule.choices[self.cursor];
                if !candidates.iter().any(|(t, _)| *t == want) {
                    self.outcome = Some(Outcome::ReplayDivergence {
                        at: self.cursor,
                        wanted: want,
                    });
                    self.abort = true;
                    return;
                }
                want
            } else {
                let free: Vec<usize> = candidates
                    .iter()
                    .filter(|(t, _)| !self.sleeping(*t))
                    .map(|(t, _)| *t)
                    .collect();
                let Some(first) = free.first() else {
                    // Every enabled thread sleeps: this subtree is
                    // covered by sibling schedules.
                    self.outcome = Some(Outcome::Pruned);
                    self.abort = true;
                    return;
                };
                self.last_active
                    .filter(|la| free.contains(la))
                    .unwrap_or(*first)
            };
            let chosen_op = candidates
                .iter()
                .find(|(t, _)| *t == chosen)
                .map(|(_, op)| *op)
                .unwrap_or(Op::simple(OpKind::Yield));
            // Entering the branch decision: install the sleep set the
            // explorer computed for this node, so evolution past it is
            // exact.
            if forced && self.cursor + 1 == self.schedule.choices.len() {
                self.sleep = self.schedule.sleep.clone();
            }
            let preemptive = match self.last_active {
                Some(last) => last != chosen && candidates.iter().any(|(t, _)| *t == last),
                None => false,
            };
            self.trace.push(DecisionRecord {
                candidates: candidates.clone(),
                sleeping: self.sleep.clone(),
                from: self.last_active,
                chosen,
                chosen_op,
                preemptive,
                preemptions_before: self.preemptions,
                forced,
            });
            if preemptive {
                self.preemptions += 1;
            }
            self.cursor += 1;
            if self.trace.len() >= self.max_decisions {
                self.outcome = Some(Outcome::DepthBounded);
                self.abort = true;
                return;
            }
            // An executed dependent operation wakes sleepers; the
            // chosen thread itself can never stay asleep.
            self.sleep
                .retain(|(t, op)| *t != chosen && !dependent(op, &chosen_op));
            match self.threads[chosen].clone() {
                TStatus::CvLimbo { cv, mutex, .. } => {
                    // Fire the timeout: leave the wait queue and become
                    // an ordinary reacquiring lock-waiter.  That
                    // reacquire needs its own decision.
                    if let Some(q) = self.cvs.get_mut(&cv) {
                        q.retain(|t| *t != chosen);
                    }
                    self.threads[chosen] = TStatus::Parked(Pending {
                        op: Op::write(mutex, OpKind::Lock),
                        wait: Wait::Reacquire {
                            mutex,
                            timed_out: true,
                        },
                    });
                    self.last_active = Some(chosen);
                }
                TStatus::Parked(p) => {
                    if let Wait::LockFree { mutex } | Wait::Reacquire { mutex, .. } = p.wait {
                        self.mutex_mut(mutex).owner = Some(chosen);
                    }
                    self.active = Some(chosen);
                    self.last_active = Some(chosen);
                    return;
                }
                // Running/Finished threads are never candidates.
                _ => return,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The shared execution handle
// ---------------------------------------------------------------------------

pub(crate) struct Exec {
    st: StdMutex<ExecState>,
    cv: StdCondvar,
    next_object: AtomicU64,
}

impl Exec {
    fn new(schedule: Schedule, limits: &Limits) -> Exec {
        Exec {
            st: StdMutex::new(ExecState::new(schedule, limits)),
            cv: StdCondvar::new(),
            next_object: AtomicU64::new(RUN_OBJECT_BASE),
        }
    }

    fn fresh_run_object_id(&self) -> u64 {
        // ordering: a unique-id counter — creation order is serialized
        // by the baton anyway.
        self.next_object.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_st(&self) -> StdMutexGuard<'_, ExecState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until this thread is granted the baton (or the run is
    /// aborting).  Must be entered with the state lock held.
    fn wait_granted(&self, mut st: StdMutexGuard<'_, ExecState>, tid: usize) -> Wake {
        loop {
            if st.abort {
                return Wake::Abort;
            }
            if st.active == Some(tid) {
                let timed_out = match &st.threads[tid] {
                    TStatus::Parked(p) => {
                        matches!(
                            p.wait,
                            Wait::Reacquire {
                                timed_out: true,
                                ..
                            }
                        )
                    }
                    _ => false,
                };
                st.threads[tid] = TStatus::Running;
                return Wake::Granted { timed_out };
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Parks the calling thread at a decision point with its proposed
    /// next operation, runs the scheduler, and blocks until granted.
    pub(crate) fn park(&self, tid: usize, pending: Pending) -> Wake {
        let mut st = self.lock_st();
        if st.abort {
            return Wake::Abort;
        }
        st.threads[tid] = TStatus::Parked(pending);
        if st.active == Some(tid) {
            st.active = None;
        }
        st.decide();
        self.cv.notify_all();
        self.wait_granted(st, tid)
    }

    /// A fresh thread's first block, waiting for its `Start` grant.
    pub(crate) fn wait_start(&self, tid: usize) -> Wake {
        let st = self.lock_st();
        self.wait_granted(st, tid)
    }

    /// Second half of `Condvar::wait`: atomically release the mutex and
    /// enter the wait queue, then hand the baton back.
    pub(crate) fn cv_enter_limbo(&self, tid: usize, cv: u64, mutex: u64, timed: bool) {
        let mut st = self.lock_st();
        if st.abort {
            return;
        }
        st.mutex_mut(mutex).owner = None;
        st.cvs.entry(cv).or_default().push(tid);
        st.threads[tid] = TStatus::CvLimbo { cv, mutex, timed };
        if st.active == Some(tid) {
            st.active = None;
        }
        st.decide();
        self.cv.notify_all();
    }

    /// Blocks a condvar waiter until its reacquire is granted (after a
    /// notify or a fired timeout).
    pub(crate) fn wait_regrant(&self, tid: usize) -> Wake {
        let st = self.lock_st();
        self.wait_granted(st, tid)
    }

    /// Applies a notify: moves waiters (FIFO for `notify_one`) from the
    /// wait queue to reacquiring lock-waiters.
    pub(crate) fn cv_notify_apply(&self, cv: u64, all: bool) {
        let mut st = self.lock_st();
        while let Some(tid) = st
            .cvs
            .get_mut(&cv)
            .and_then(|q| (!q.is_empty()).then(|| q.remove(0)))
        {
            if let TStatus::CvLimbo { mutex, .. } = st.threads[tid] {
                st.threads[tid] = TStatus::Parked(Pending {
                    op: Op::write(mutex, OpKind::Lock),
                    wait: Wait::Reacquire {
                        mutex,
                        timed_out: false,
                    },
                });
            }
            if !all {
                break;
            }
        }
        self.cv.notify_all();
    }

    /// Releases sim-level mutex ownership (real data stays protected by
    /// the real `std` mutex inside the facade type).  Not a decision
    /// point: the critical section is one decision.
    pub(crate) fn unlock(&self, mutex: u64) {
        let mut st = self.lock_st();
        st.mutex_mut(mutex).owner = None;
        if !st.abort && st.active.is_none() {
            st.decide();
        }
        self.cv.notify_all();
    }

    /// Registers a new simulated thread (parked on its `Start` op) and
    /// returns its id.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock_st();
        st.threads
            .push(TStatus::Parked(Pending::ready(Op::simple(OpKind::Start))));
        st.real_handles.push(None);
        st.threads.len() - 1
    }

    pub(crate) fn attach_handle(&self, tid: usize, h: std::thread::JoinHandle<()>) {
        let mut st = self.lock_st();
        st.real_handles[tid] = Some(h);
    }

    pub(crate) fn take_handle(&self, tid: usize) -> Option<std::thread::JoinHandle<()>> {
        let mut st = self.lock_st();
        st.real_handles[tid].take()
    }

    /// Marks a thread finished.  The first non-teardown panic becomes
    /// the run's failure outcome.
    pub(crate) fn finish(&self, tid: usize, panic_info: Option<(bool, String)>) {
        let mut st = self.lock_st();
        st.threads[tid] = TStatus::Finished;
        if let Some((is_abort_signal, message)) = panic_info {
            if !is_abort_signal && !st.abort {
                st.outcome = Some(Outcome::Panic {
                    thread: tid,
                    message,
                });
                st.abort = true;
            }
        }
        if st.active == Some(tid) {
            st.active = None;
        }
        if !st.abort && st.active.is_none() {
            st.decide();
        }
        self.cv.notify_all();
    }

    fn wait_all_finished(&self) {
        let mut st = self.lock_st();
        loop {
            if st.all_finished() {
                return;
            }
            if !st.abort && st.active.is_none() {
                st.decide();
                self.cv.notify_all();
                continue;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn drain_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        let mut st = self.lock_st();
        let handles: Vec<_> = st
            .real_handles
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        handles
    }

    fn result(&self) -> RunResult {
        let st = self.lock_st();
        RunResult {
            outcome: st.outcome.clone().unwrap_or(Outcome::Complete),
            trace: st.trace.clone(),
        }
    }

    pub(crate) fn aborted(&self) -> bool {
        self.lock_st().abort
    }

    // -- channel accounting (values live in the facade's real queues;
    //    the scheduler tracks only lengths and endpoint counts) --

    pub(crate) fn chan_rx_alive(&self, chan: u64) -> bool {
        let mut st = self.lock_st();
        st.chan_mut(chan).rx_alive
    }

    pub(crate) fn chan_len_inc(&self, chan: u64) {
        let mut st = self.lock_st();
        st.chan_mut(chan).len += 1;
    }

    /// Takes one accounted value if any; `false` means the channel is
    /// logically empty (the caller then reports empty/disconnected).
    pub(crate) fn chan_len_dec(&self, chan: u64) -> bool {
        let mut st = self.lock_st();
        let c = st.chan_mut(chan);
        if c.len > 0 {
            c.len -= 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn chan_senders(&self, chan: u64) -> usize {
        let mut st = self.lock_st();
        st.chan_mut(chan).senders
    }

    pub(crate) fn chan_sender_cloned(&self, chan: u64) {
        let mut st = self.lock_st();
        st.chan_mut(chan).senders += 1;
    }

    pub(crate) fn chan_sender_dropped(&self, chan: u64) {
        let mut st = self.lock_st();
        let c = st.chan_mut(chan);
        c.senders = c.senders.saturating_sub(1);
        self.cv.notify_all();
    }

    pub(crate) fn chan_rx_dropped(&self, chan: u64) {
        let mut st = self.lock_st();
        st.chan_mut(chan).rx_alive = false;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Thread-local context and abort teardown
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub exec: Arc<Exec>,
    pub tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static ABORT_OPS: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
    ABORT_OPS.with(|c| c.set(0));
}

pub(crate) fn require_ctx() -> Ctx {
    current().expect(
        "naps-sync simulated primitive used outside Execution::run — \
         simulated Mutex/Condvar/mpsc/thread only work under the naps-sim scheduler",
    )
}

/// The panic payload used to terminate simulated threads during
/// teardown.  Never recorded as a failure.
pub(crate) struct AbortSignal;

/// Teardown at a *blocking* decision point (lock, cv wait, recv,
/// join, spawn, sleep): kill the thread with [`AbortSignal`] so its
/// held guards release on the unwind.  Running the operation for real
/// instead could re-create the very deadlock the scheduler just
/// detected.  A thread that is already unwinding cannot be panicked
/// again (that would abort the process); it returns and the caller
/// free-passes the operation in a way that cannot block.
pub(crate) fn abort_blocking() {
    if !std::thread::panicking() {
        panic::panic_any(AbortSignal);
    }
}

const ABORT_OP_LIMIT: u64 = 200_000;

/// Teardown at a *non-blocking* decision point (atomics): the real
/// operation proceeds, but a counter bounds how much free running a
/// thread gets (a spin loop whose partner aborted would otherwise
/// never terminate) before it too is killed with [`AbortSignal`].
pub(crate) fn abort_tick() {
    ABORT_OPS.with(|c| {
        let n = c.get() + 1;
        c.set(n);
        if n > ABORT_OP_LIMIT && !std::thread::panicking() {
            panic::panic_any(AbortSignal);
        }
    });
}

pub(crate) fn payload_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if p.is::<AbortSignal>() {
        "<sim teardown>".to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs closures under the simulated scheduler.
pub struct Execution;

/// Silences the default panic output for simulated threads: their
/// panics are deliberate (invariant asserts, teardown aborts) and are
/// recorded in the run outcome, so the stderr trace is pure noise —
/// an exploration triggers thousands of them.  Panics on threads with
/// no simulation context still reach the previous hook.
fn install_quiet_hook() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if current().is_none() {
                prev(info);
            }
        }));
    });
}

impl Execution {
    /// Executes `f` as simulated thread 0 under `schedule`'s forced
    /// prefix (empty = default policy), returning the outcome and the
    /// full decision trace.  `f` runs on the calling thread; threads it
    /// spawns through the facade become simulated threads.  The call
    /// returns only after every simulated thread has finished (aborting
    /// ones are torn down in free-pass mode).
    pub fn run<F: FnOnce()>(schedule: &Schedule, limits: &Limits, f: F) -> RunResult {
        assert!(
            current().is_none(),
            "nested Execution::run on one OS thread is not supported"
        );
        install_quiet_hook();
        let exec = Arc::new(Exec::new(schedule.clone(), limits));
        set_ctx(Some(Ctx {
            exec: Arc::clone(&exec),
            tid: 0,
        }));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        let panic_info = match &result {
            Ok(()) => None,
            Err(p) => Some((p.is::<AbortSignal>(), payload_msg(p.as_ref()))),
        };
        exec.finish(0, panic_info);
        exec.wait_all_finished();
        set_ctx(None);
        for h in exec.drain_handles() {
            let _ = h.join();
        }
        exec.result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::sync::{mpsc, Condvar, Mutex};
    use crate::sim::thread;

    fn run_default(f: impl FnOnce()) -> RunResult {
        Execution::run(&Schedule::default(), &Limits::default(), f)
    }

    #[test]
    fn empty_body_completes_with_no_decisions() {
        let r = run_default(|| {});
        assert_eq!(r.outcome, Outcome::Complete);
        assert!(r.trace.is_empty());
    }

    #[test]
    fn spawn_join_mutex_counting() {
        let r = run_default(|| {
            let m = std::sync::Arc::new(Mutex::new(0u32));
            let mut handles = Vec::new();
            for _ in 0..3 {
                let m = std::sync::Arc::clone(&m);
                handles.push(thread::spawn(move || {
                    for _ in 0..5 {
                        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                        *g += 1;
                    }
                }));
            }
            for h in handles {
                h.join().expect("worker ok");
            }
            assert_eq!(*m.lock().unwrap_or_else(|e| e.into_inner()), 15);
        });
        assert_eq!(r.outcome, Outcome::Complete, "{:?}", r.outcome);
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn channel_roundtrip_and_disconnect() {
        let r = run_default(|| {
            let (tx, rx) = mpsc::channel::<u32>();
            let h = thread::spawn(move || {
                tx.send(7).expect("rx alive");
                // tx drops here
            });
            assert_eq!(rx.recv(), Ok(7));
            assert!(rx.recv().is_err(), "disconnect after sender drop");
            h.join().expect("sender ok");
        });
        assert_eq!(r.outcome, Outcome::Complete, "{:?}", r.outcome);
    }

    #[test]
    fn condvar_handoff() {
        let r = run_default(|| {
            let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
            let s2 = std::sync::Arc::clone(&shared);
            let h = thread::spawn(move || {
                let (m, cv) = &*s2;
                let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                *g = true;
                drop(g);
                cv.notify_one();
            });
            let (m, cv) = &*shared;
            let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
            while !*g {
                g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            drop(g);
            h.join().expect("notifier ok");
        });
        assert_eq!(r.outcome, Outcome::Complete, "{:?}", r.outcome);
    }

    #[test]
    fn child_panic_is_the_outcome() {
        let r = run_default(|| {
            let h = thread::spawn(|| panic!("model invariant violated"));
            let _ = h.join();
        });
        match r.outcome {
            Outcome::Panic {
                thread,
                ref message,
            } => {
                assert_eq!(thread, 1);
                assert!(message.contains("model invariant violated"));
            }
            ref o => panic!("expected panic outcome, got {o:?}"),
        }
    }

    #[test]
    fn self_deadlock_is_detected() {
        let r = run_default(|| {
            let m = Mutex::new(());
            let _g1 = m.lock();
            let _g2 = m.lock(); // re-entrant: blocks forever
        });
        match r.outcome {
            Outcome::Deadlock(ref blocked) => assert_eq!(blocked.len(), 1, "{blocked:?}"),
            ref o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn lost_wakeup_deadlock_is_detected() {
        let r = run_default(|| {
            let shared = std::sync::Arc::new((Mutex::new(()), Condvar::new()));
            let s2 = std::sync::Arc::clone(&shared);
            let h = thread::spawn(move || {
                let (m, cv) = &*s2;
                let g = m.lock().unwrap_or_else(|e| e.into_inner());
                // Nobody ever notifies: an untimed wait blocks forever.
                let _ = cv.wait(g);
            });
            let _ = h.join();
        });
        assert!(matches!(r.outcome, Outcome::Deadlock(_)), "{:?}", r.outcome);
    }

    #[test]
    fn wait_timeout_can_fire_instead_of_blocking() {
        // Same lost-wakeup shape, but with wait_timeout: the timeout
        // transition keeps the schedule alive and the run completes.
        let r = run_default(|| {
            let shared = std::sync::Arc::new((Mutex::new(()), Condvar::new()));
            let s2 = std::sync::Arc::clone(&shared);
            let h = thread::spawn(move || {
                let (m, cv) = &*s2;
                let g = m.lock().unwrap_or_else(|e| e.into_inner());
                let (g, res) = cv
                    .wait_timeout(g, std::time::Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner());
                assert!(res.timed_out());
                drop(g);
            });
            h.join().expect("waiter ok");
        });
        assert_eq!(r.outcome, Outcome::Complete, "{:?}", r.outcome);
    }

    #[test]
    fn depth_bound_cuts_the_run() {
        let r = Execution::run(&Schedule::default(), &Limits { max_decisions: 10 }, || {
            let a = crate::sim::atomic::AtomicU64::new(0);
            for _ in 0..100 {
                // ordering: sim test traffic, any ordering works.
                a.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert_eq!(r.outcome, Outcome::DepthBounded);
        assert_eq!(r.trace.len(), 10);
    }

    #[test]
    fn replay_reproduces_the_same_trace() {
        let body = || {
            let m = std::sync::Arc::new(Mutex::new(0u32));
            let m2 = std::sync::Arc::clone(&m);
            let h = thread::spawn(move || {
                *m2.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            });
            *m.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            h.join().expect("ok");
        };
        let first = run_default(body);
        assert_eq!(first.outcome, Outcome::Complete);
        let replay = Execution::run(
            &Schedule {
                choices: first.choices(),
                sleep: Vec::new(),
            },
            &Limits::default(),
            body,
        );
        assert_eq!(replay.outcome, Outcome::Complete);
        assert_eq!(replay.choices(), first.choices());
    }

    #[test]
    fn replay_divergence_is_reported() {
        let r = Execution::run(
            &Schedule {
                choices: vec![42],
                sleep: Vec::new(),
            },
            &Limits::default(),
            || {
                let m = Mutex::new(());
                drop(m.lock());
            },
        );
        assert!(
            matches!(r.outcome, Outcome::ReplayDivergence { at: 0, wanted: 42 }),
            "{:?}",
            r.outcome
        );
    }
}
