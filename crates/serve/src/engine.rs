//! The parallel monitoring engine: a worker pool serving monitored
//! classifications from micro-batches drained off one shared FIFO.
//!
//! # Architecture
//!
//! ```text
//!  check / check_batch / check_layered_batch
//!  submit / try_submit_with                    workers (one thread each)
//!  ─────────────┐                              ┌────────────────────────────
//!   push_back ──┼──► [ one FIFO, bounded ] ──► │ drain ≤ max_batch from front
//!   (blocks or  │                              │        │
//!    Saturated  │                              │        ▼
//!    when full) │                              │ pack_batch → one plan-observed
//!               │                              │ forward pass (own replica)
//!               │                                       │
//!               │   Arc<FrozenLayeredMonitor> ◄── per-layer, per-class
//!               │   (one FrozenMonitor per layer)   zone lookups
//!               └── callbacks/tickets ◄── CombinePolicy fold ◄─┘
//!                   (LayeredEpochReport; EpochReport = N=1 view)
//! ```
//!
//! * **Thread safety.** Workers share one immutable
//!   [`FrozenLayeredMonitor`] (`Arc`; per-class zones are
//!   `Arc<FrozenZone>` snapshots) — reads take no lock.  The only mutable
//!   state per worker is its own forward-pass scratch, reused across
//!   micro-batches beside its prepared model replica.
//! * **Multi-layer.** The engine always serves the layered family; an
//!   engine built from a single [`Monitor`] is the `N = 1` special case.
//!   One [`naps_core::batch::ObservationPlan`]-driven forward pass per
//!   micro-batch retains exactly the monitored layers' activations:
//!   every additional monitored layer costs per-class zone lookups,
//!   never another forward pass.
//! * **Live updates.** The served snapshot sits in a read-mostly publish
//!   slot; [`MonitorEngine::publish`] hot-swaps an enriched replacement,
//!   workers adopt it at their next micro-batch boundary, and every
//!   verdict carries the epoch of the snapshot that judged it
//!   ([`EpochReport`] / [`LayeredEpochReport`]).
//! * **Batching.** A worker drains up to `max_batch` requests from the
//!   front of the one queue in one lock acquisition and runs **one**
//!   forward pass for the whole micro-batch.  Requests are taken in
//!   submission order.  Under load, batches grow toward `max_batch`
//!   automatically; when idle, a lone request is served immediately.
//! * **Backpressure.** Queued requests are bounded by `queue_capacity`:
//!   [`MonitorEngine::submit`] (and the blocking `check*` calls built on
//!   the same path) wait for space, [`MonitorEngine::try_submit_with`]
//!   returns [`SubmitError::Saturated`] instead.
//! * **Equivalence.** Workers run the prepared, allocation-free forward
//!   pass ([`naps_nn::PreparedModel`]), the same forward the chunked
//!   `Sequential::observe_rows` pass of the sequential
//!   [`naps_core::Monitor::check_batch`] /
//!   [`naps_core::LayeredMonitor::check_batch`] runs, and share the same
//!   zone lookups, so verdicts are bit-identical to sequential checking
//!   regardless of how requests interleave (asserted by the crate's
//!   concurrency tests).
//!
//! [`FrozenZone`]: crate::FrozenZone

use crate::frozen::{FrozenLayeredMonitor, FrozenMonitor, LayeredVerdict};
use naps_core::{
    BddZone, DriftConfig, DriftDetector, DriftStatus, GradedQuery, GradedReport, LayeredMonitor,
    Monitor, MonitorReport, Verdict,
};
use naps_nn::{ModelSnapshot, PreparedModel, Sequential, SnapshotError};
use naps_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use naps_sync::thread::JoinHandle;
use naps_sync::{mpsc, Arc, Condvar, Mutex};
use naps_tensor::Tensor;
use serde::Serialize;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

mod worker;
use worker::{worker_loop, WorkerGuard};

/// Sizing knobs of a [`MonitorEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (and model replicas).
    pub workers: usize,
    /// Largest micro-batch a worker packs into one forward pass.
    pub max_batch: usize,
    /// Bound on requests queued across all workers (backpressure).
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    /// Four workers, micro-batches of 16, 1024 queued requests.
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            max_batch: 16,
            queue_capacity: 1024,
        }
    }
}

/// Why an engine could not be constructed.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The model contains a layer [`ModelSnapshot`] cannot capture — a
    /// custom [`naps_nn::Layer`] implementation.  The engine serves every
    /// model through the prepared, allocation-free forward pass, which
    /// covers exactly the built-in layers.
    UnsupportedModel(SnapshotError),
    /// A sizing knob is zero.
    InvalidConfig(&'static str),
    /// `with_replicas` got a replica count different from
    /// [`EngineConfig::workers`].
    ReplicaCountMismatch {
        /// Configured worker count.
        expected: usize,
        /// Provided model replicas.
        actual: usize,
    },
    /// [`MonitorEngine::publish`] got a monitor that cannot replace the
    /// one being served (different layer family, neuron selections,
    /// combine policy or class count): its verdicts would not be
    /// comparable across epochs, and the worker model replicas would be
    /// observing the wrong layers.
    IncompatibleMonitor(&'static str),
    /// The OS refused to spawn a worker thread.  Construction fails as a
    /// whole: any workers already started are shut down and joined
    /// before this is returned, so nothing leaks.
    WorkerSpawn(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsupportedModel(e) => write!(f, "cannot serve model: {e}"),
            EngineError::InvalidConfig(what) => write!(f, "invalid engine config: {what}"),
            EngineError::ReplicaCountMismatch { expected, actual } => {
                write!(f, "need {expected} model replicas, got {actual}")
            }
            EngineError::IncompatibleMonitor(what) => {
                write!(f, "published monitor incompatible with served one: {what}")
            }
            EngineError::WorkerSpawn(e) => write!(f, "cannot spawn engine worker: {e}"),
        }
    }
}

impl Error for EngineError {}

/// Why a request could not be accepted or answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded queue is full ([`MonitorEngine::try_submit_with`] only —
    /// the blocking paths wait for space instead).
    Saturated,
    /// The engine is shutting down.
    ShutDown,
    /// A worker thread died (panicked) before answering — an engine
    /// bug or a poisoned model replica, not a monitoring verdict.  A
    /// ticket resolves with this error instead of hanging; once the
    /// **last** worker has died the engine marks itself failed, every
    /// still-queued request is resolved with this error, and new
    /// submissions are rejected with it too (a failed engine must
    /// answer, never block).
    WorkerLost,
    /// The input's width does not match the model's input dimension.
    /// Rejected at submission so one malformed request cannot panic a
    /// worker mid-batch (which would take unrelated co-batched requests
    /// — and the worker — down with it).
    WidthMismatch {
        /// The model's input dimension.
        expected: usize,
        /// The submitted tensor's length.
        actual: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated => write!(f, "engine queue is full"),
            SubmitError::ShutDown => write!(f, "engine is shut down"),
            SubmitError::WorkerLost => {
                write!(f, "engine worker died before answering the request")
            }
            SubmitError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "input width {actual} does not match model input {expected}"
                )
            }
        }
    }
}

impl Error for SubmitError {}

/// Counters accumulated over an engine's lifetime.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct EngineStats {
    /// Requests fully served.
    pub processed: u64,
    /// Micro-batches (forward passes) executed.
    pub batches: u64,
    /// Largest micro-batch packed into one forward pass.
    pub largest_batch: u64,
    /// Zone snapshots hot-swapped in via [`MonitorEngine::publish`].
    pub swaps: u64,
}

/// A [`MonitorReport`] stamped with the **epoch** of the zone snapshot
/// that produced it — the single-layer view of a verdict.
///
/// The engine hot-swaps enriched monitors while requests are in flight;
/// the stamp makes every verdict attributable to exactly one zone set —
/// a verdict with epoch `e` is bit-identical to what sequential checking
/// against the epoch-`e` monitor returns, no matter how the request
/// interleaved with the swap.
///
/// Internally every verdict is a [`LayeredEpochReport`]; this is its
/// [projection](LayeredEpochReport::to_single) onto the **primary**
/// (first) monitored layer — exact for the `N = 1` engines the
/// single-layer APIs are built for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Epoch of the monitor snapshot that judged the request.
    pub epoch: u64,
    /// The verdict itself.
    pub report: MonitorReport,
    /// The graded payload, for requests submitted with a
    /// [`GradedQuery`] (projected from a graded
    /// [`LayeredEpochReport`]): distance to the predicted
    /// class's zone plus the ranked nearest other-class zones, judged by
    /// the **same** snapshot as [`EpochReport::report`] (whose fields it
    /// embeds verbatim) and bit-identical to sequential
    /// [`Monitor::check_graded_batch`] at this epoch.  `None` for
    /// binary submissions — grading costs extra per-class distance
    /// queries, so it is opt-in per request.
    pub graded: Option<GradedReport>,
}

impl naps_core::MonitorOutcome for EpochReport {
    fn out_of_pattern(&self) -> bool {
        naps_core::MonitorOutcome::out_of_pattern(&self.report)
    }
}

/// A [`LayeredVerdict`] stamped with the epoch of the
/// [`FrozenLayeredMonitor`] that produced it, optionally carrying one
/// graded ranking per monitored layer — what every engine verdict
/// actually is; [`EpochReport`] is its single-layer projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredEpochReport {
    /// Epoch of the layered snapshot that judged the request.
    pub epoch: u64,
    /// The network's decision.
    pub predicted: usize,
    /// One full report per monitored layer, in the family's construction
    /// order — bit-identical to sequential layered checking at this
    /// epoch.
    pub per_layer: Vec<MonitorReport>,
    /// The [`naps_core::CombinePolicy`]-combined verdict.
    pub combined: Verdict,
    /// One graded ranking per monitored layer for graded submissions
    /// (same order as [`LayeredEpochReport::per_layer`], whose entries
    /// the graded reports embed verbatim); `None` for binary
    /// submissions.
    pub graded: Option<Vec<GradedReport>>,
}

impl LayeredEpochReport {
    /// The single-layer view: the **primary** (first) layer's report and
    /// graded ranking under the combined verdict's epoch.  For an
    /// `N = 1` engine this is the whole verdict — the combined verdict
    /// *is* the lone layer's — so the projection is exact.
    // naps-lint: allow-fn(panic_freedom, "a LayeredEpochReport always carries one report and ranking per monitored layer, and the frozen family is validated non-empty")
    pub fn to_single(&self) -> EpochReport {
        EpochReport {
            epoch: self.epoch,
            report: self.per_layer[0].clone(),
            graded: self.graded.as_ref().map(|g| g[0].clone()),
        }
    }

    /// Consuming [`LayeredEpochReport::to_single`]: moves the primary
    /// layer's report and ranking out instead of cloning them — what the
    /// engine's single-layer API paths use per verdict.
    pub fn into_single(mut self) -> EpochReport {
        EpochReport {
            epoch: self.epoch,
            report: self.per_layer.swap_remove(0),
            graded: self.graded.map(|mut g| g.swap_remove(0)),
        }
    }
}

impl naps_core::MonitorOutcome for LayeredEpochReport {
    fn out_of_pattern(&self) -> bool {
        self.combined == Verdict::OutOfPattern
    }
}

type Callback = Box<dyn FnOnce(LayeredEpochReport) + Send + 'static>;

struct Request {
    input: Tensor,
    /// `Some` = the submitter asked for a graded verdict at this query.
    graded: Option<GradedQuery>,
    complete: Callback,
}

struct State {
    /// The one FIFO every worker drains from the front (bounded by
    /// `queue_capacity`).
    queue: VecDeque<Request>,
    shutdown: bool,
    /// `true` once the **last** worker thread has died without an
    /// orderly shutdown: the queue can never drain again, so
    /// submissions are rejected with [`SubmitError::WorkerLost`]
    /// instead of queueing (or blocking) forever.
    failed: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers when requests arrive (or shutdown begins).
    work: Condvar,
    /// Wakes blocked submitters when queue space frees up.
    space: Condvar,
    max_batch: usize,
    queue_capacity: usize,
    /// The model's input dimension ([`PreparedModel::input_len`]; `None`
    /// only for a model of width-preserving layers alone): submissions of
    /// any other width are rejected up front.
    input_len: Option<usize>,
    /// Worker threads still running.  When the count hits zero outside
    /// an orderly drain, the dying worker's [`WorkerGuard`] fails the
    /// engine so no ticket is ever left hanging.
    alive: AtomicUsize,
    /// The read-mostly publish slot: the monitor snapshot currently being
    /// served.  Workers hold their own `Arc` clone and only touch this
    /// mutex when [`Shared::epoch`] tells them a newer snapshot exists —
    /// the verdict hot path itself stays lock-free.
    published: Mutex<Arc<FrozenLayeredMonitor>>,
    /// Epoch of the snapshot in [`Shared::published`].  Workers poll this
    /// atomic (one relaxed-cost load) at every micro-batch boundary.
    epoch: AtomicU64,
    processed: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicUsize,
    swaps: AtomicU64,
    /// Drift tracking keyed by (layer, class), plus the combined view
    /// (`None` until [`MonitorEngine::enable_drift`]).  Workers fold each
    /// micro-batch's verdicts in under one short lock acquisition — off
    /// the lock-free verdict hot path, and skipped entirely while
    /// disabled.
    drift: Mutex<Option<DriftState>>,
}

/// Drift detectors — combined per class, plus one per (layer, class) —
/// and the epoch their evidence was gathered under.
struct DriftState {
    config: DriftConfig,
    /// Combined-verdict detectors, one per class (the deployment-level
    /// "is this class drifting" signal, fed the policy-combined verdict).
    combined: Vec<DriftDetector>,
    /// EWMA of the primary layer's `distance_to_seeds` per class (same
    /// smoothing factor as the rate EWMA) — the quantitative "how far
    /// out, on average" companion to the out-of-pattern-rate detectors.
    distance_ewma: Vec<Option<f64>>,
    /// `per_layer[l][c]`: detector of class `c` at layer slot `l`, fed
    /// that layer's own verdicts — drift can start at one abstraction
    /// level before it shows in the combined fold.
    per_layer: Vec<Vec<DriftDetector>>,
    /// Model layer index of each slot of [`DriftState::per_layer`].
    layer_indices: Vec<usize>,
    /// Epoch of the zone set the detectors gather evidence for.  Reset
    /// (with the detectors) on every publish; workers skip whole batches
    /// judged under any other epoch, so sustained rates under an old
    /// zone set are never folded in as evidence against a new one.
    epoch: u64,
}

impl DriftState {
    fn new(config: DriftConfig, layer_indices: Vec<usize>, num_classes: usize, epoch: u64) -> Self {
        DriftState {
            combined: (0..num_classes)
                .map(|_| DriftDetector::new(config.clone()))
                .collect(),
            distance_ewma: vec![None; num_classes],
            per_layer: layer_indices
                .iter()
                .map(|_| {
                    (0..num_classes)
                        .map(|_| DriftDetector::new(config.clone()))
                        .collect()
                })
                .collect(),
            layer_indices,
            config,
            epoch,
        }
    }

    fn rearmed(&self, epoch: u64) -> Self {
        DriftState::new(
            self.config.clone(),
            self.layer_indices.clone(),
            self.combined.len(),
            epoch,
        )
    }

    // naps-lint: allow-fn(panic_freedom, "class is range-checked on entry; combined, distance_ewma and every dets vec share len num_classes by construction, and per_layer is non-empty by family validation")
    fn observe(&mut self, verdict: &LayeredVerdict) {
        let class = verdict.predicted;
        if class >= self.combined.len() {
            return; // out-of-range prediction: no class to charge
        }
        self.combined[class].observe(verdict.combined);
        if let Some(d) = verdict.per_layer[0].distance_to_seeds {
            let alpha = self.config.ewma_alpha;
            let slot = &mut self.distance_ewma[class];
            *slot = Some(match *slot {
                None => f64::from(d),
                Some(e) => e + alpha * (f64::from(d) - e),
            });
        }
        for (dets, report) in self.per_layer.iter_mut().zip(&verdict.per_layer) {
            dets[class].observe(report.verdict);
        }
    }
}

/// One class's drift posture, epoch-stamped (see
/// [`MonitorEngine::drift_status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDriftStatus {
    /// The class the evidence belongs to (verdicts are charged to the
    /// **predicted** class).
    pub class: usize,
    /// The persistence-filtered alarm state.
    pub status: DriftStatus,
    /// Epoch of the zone set the evidence was gathered under: drift
    /// flagged at epoch `e` indicts the epoch-`e` zones, and a
    /// subsequent enrich → publish starts the detectors fresh at the new
    /// epoch.
    pub epoch: u64,
    /// Out-of-pattern rate over the detector's sliding window.
    pub windowed_rate: f64,
    /// Exponentially weighted out-of-pattern rate.
    pub ewma_rate: f64,
    /// EWMA of the distance-to-seeds column (`None` before the first
    /// distance-carrying verdict): rising distance under a stable rate
    /// is early drift evidence.  Only tracked for the combined view
    /// (primary layer's distances); `None` in per-layer statuses.
    pub mean_distance: Option<f64>,
    /// Monitored verdicts folded in.
    pub observed: usize,
    /// Distinct alarm episodes since (re)arming.
    pub alarms: usize,
}

/// One monitored layer's per-class drift posture (see
/// [`MonitorEngine::drift_status_by_layer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDriftStatus {
    /// The model layer index this slot's evidence belongs to.
    pub layer: usize,
    /// Per-class posture at this layer, ascending by class.
    pub classes: Vec<ClassDriftStatus>,
}

fn class_statuses(
    detectors: &[DriftDetector],
    distance_ewma: Option<&[Option<f64>]>,
    epoch: u64,
) -> Vec<ClassDriftStatus> {
    detectors
        .iter()
        .enumerate()
        .map(|(class, det)| ClassDriftStatus {
            class,
            status: det.status(),
            epoch,
            windowed_rate: det.windowed_rate(),
            ewma_rate: det.ewma_rate(),
            // naps-lint: allow(panic_freedom, "class enumerates the detector vec; distance_ewma has the same num_classes length by construction")
            mean_distance: distance_ewma.and_then(|d| d[class]),
            observed: det.observed(),
            alarms: det.alarm_count(),
        })
        .collect()
}

/// A handle to one in-flight submission; redeem with
/// [`VerdictTicket::wait`].  It resolves to the full
/// [`LayeredEpochReport`]; project it with
/// [`LayeredEpochReport::into_single`] for the single-layer view.
#[derive(Debug)]
pub struct VerdictTicket {
    rx: mpsc::Receiver<LayeredEpochReport>,
}

impl VerdictTicket {
    /// Blocks until the verdict is ready.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WorkerLost`] when the serving worker died before
    /// answering (a worker panic — an engine bug, not a monitoring
    /// verdict).  Never panics and never hangs: a request the engine
    /// dropped resolves with the typed error.
    pub fn wait(self) -> Result<LayeredEpochReport, SubmitError> {
        self.rx.recv().map_err(|_| SubmitError::WorkerLost)
    }

    /// Returns `Ok(Some(..))` once the verdict is available, `Ok(None)`
    /// while the request is still queued or in flight.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WorkerLost`] when the serving worker died before
    /// answering — the same typed failure as [`VerdictTicket::wait`],
    /// rather than reading as "not ready yet" forever.
    pub fn try_wait(&self) -> Result<Option<LayeredEpochReport>, SubmitError> {
        match self.rx.try_recv() {
            Ok(report) => Ok(Some(report)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(SubmitError::WorkerLost),
        }
    }
}

/// A parallel monitoring service over a frozen (possibly multi-layer)
/// monitor.
///
/// See the [crate docs](crate) for the architecture.  Construct with
/// [`MonitorEngine::new`] / [`MonitorEngine::new_layered`] (captures the
/// model once via [`ModelSnapshot`]) or [`MonitorEngine::with_replicas`]
/// (one caller-supplied replica per worker); any model built from the
/// built-in layers — dense, convolution, pooling, batch norm — is served
/// through the prepared forward pass.  Every request takes one path
/// through one queue; the five entry points differ only in how they wait:
///
/// | Entry point | Waits | Answer |
/// |---|---|---|
/// | [`check`](MonitorEngine::check) | blocks | one single-layer [`EpochReport`] |
/// | [`check_batch`](MonitorEngine::check_batch) | blocks | single-layer reports, input order |
/// | [`check_layered_batch`](MonitorEngine::check_layered_batch) | blocks | [`LayeredEpochReport`]s, optionally graded |
/// | [`submit`](MonitorEngine::submit) | blocks for queue space | a [`VerdictTicket`] |
/// | [`try_submit_with`](MonitorEngine::try_submit_with) | never | a callback on the worker thread |
///
/// Hot-swap enriched zone snapshots with
/// [`publish`](MonitorEngine::publish), and stop with
/// [`shutdown`](MonitorEngine::shutdown) (or [`stop`](MonitorEngine::stop)
/// from a shared reference, or just drop it — remaining queued requests
/// are drained first in every case).
pub struct MonitorEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl MonitorEngine {
    /// Builds an engine over a single-layer `monitor` — the `N = 1`
    /// layered deployment — freezing it and preparing `model` once for
    /// every worker.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedModel`] when the model contains a custom
    /// layer, or [`EngineError::InvalidConfig`] on zero-sized knobs.
    pub fn new(
        monitor: &Monitor<BddZone>,
        model: &Sequential,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::new_prepared(
            FrozenLayeredMonitor::from_single(FrozenMonitor::freeze(monitor)),
            model,
            config,
        )
    }

    /// Builds an engine over a multi-layer `monitor`, freezing every
    /// layer and preparing `model` once for every worker.
    ///
    /// # Errors
    ///
    /// As [`MonitorEngine::new`].
    pub fn new_layered(
        monitor: &LayeredMonitor<BddZone>,
        model: &Sequential,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::new_prepared(FrozenLayeredMonitor::freeze(monitor), model, config)
    }

    /// Captures and prepares `model` once; every worker serves a copy.
    fn new_prepared(
        monitor: FrozenLayeredMonitor,
        model: &Sequential,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let snap = ModelSnapshot::capture(model).map_err(EngineError::UnsupportedModel)?;
        let prepared = snap.prepare(monitor.plan());
        Self::start(monitor, vec![prepared; config.workers], config)
    }

    /// Builds an engine from an already-frozen monitor — a
    /// [`FrozenLayeredMonitor`], or a single-layer [`FrozenMonitor`]
    /// lifted to the `N = 1` family — and caller-made model replicas
    /// (one per worker, each prepared for its own worker).  The replicas
    /// must be behaviourally identical —
    /// verdict equivalence with sequential checking is only as good as
    /// the replication.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] on zero-sized knobs,
    /// [`EngineError::ReplicaCountMismatch`] when
    /// `replicas.len() != config.workers`,
    /// [`EngineError::UnsupportedModel`] when a replica contains a custom
    /// layer.
    pub fn with_replicas(
        monitor: impl Into<FrozenLayeredMonitor>,
        replicas: Vec<Sequential>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let monitor = monitor.into();
        let models = replicas
            .iter()
            .map(|m| ModelSnapshot::capture(m).map(|snap| snap.prepare(monitor.plan())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(EngineError::UnsupportedModel)?;
        Self::start(monitor, models, config)
    }

    /// Validates the sizing knobs and spawns one worker per prepared
    /// model.  Preparation is the serving counterpart of zone
    /// compilation: the cold half copies every weight once so the
    /// steady-state worker loop never allocates for weights.
    fn start(
        monitor: FrozenLayeredMonitor,
        models: Vec<PreparedModel>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        if config.workers == 0 {
            return Err(EngineError::InvalidConfig("workers must be > 0"));
        }
        if config.max_batch == 0 {
            return Err(EngineError::InvalidConfig("max_batch must be > 0"));
        }
        if config.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig("queue_capacity must be > 0"));
        }
        if models.len() != config.workers {
            return Err(EngineError::ReplicaCountMismatch {
                expected: config.workers,
                actual: models.len(),
            });
        }
        let initial_epoch = monitor.epoch();
        let input_len = models.first().and_then(PreparedModel::input_len);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                failed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
            input_len,
            alive: AtomicUsize::new(config.workers),
            published: Mutex::new(Arc::new(monitor)),
            epoch: AtomicU64::new(initial_epoch),
            processed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            largest_batch: AtomicUsize::new(0),
            swaps: AtomicU64::new(0),
            drift: Mutex::new(None),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for (id, model) in models.into_iter().enumerate() {
            let worker_shared = Arc::clone(&shared);
            let spawned = naps_sync::thread::Builder::new()
                .name(format!("naps-serve-{id}"))
                .spawn(move || {
                    let _guard = WorkerGuard {
                        shared: Arc::clone(&worker_shared),
                    };
                    worker_loop(&worker_shared, model);
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Partial spawn: wind the already-started workers
                    // down and join them before reporting, so a failed
                    // construction leaks no thread.
                    {
                        let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
                        state.shutdown = true;
                    }
                    shared.work.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(EngineError::WorkerSpawn(e));
                }
            }
        }
        Ok(MonitorEngine { shared, workers })
    }

    /// The **primary** (first) layer of the monitor snapshot currently
    /// being served — the whole monitor for `N = 1` engines (the publish
    /// slot's content at the time of the call; a subsequent
    /// [`MonitorEngine::publish`] does not invalidate the returned `Arc`,
    /// it just stops serving from it).
    pub fn monitor(&self) -> Arc<FrozenMonitor> {
        Arc::clone(self.monitor_layered().primary())
    }

    /// The full layered monitor snapshot currently being served.
    pub fn monitor_layered(&self) -> Arc<FrozenLayeredMonitor> {
        Arc::clone(
            &self
                .shared
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// Epoch of the snapshot currently being served.
    pub fn epoch(&self) -> u64 {
        // ordering: acquire — pairs with the Release store in publish;
        // an observed epoch implies the slot already holds its snapshot.
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Hot-swaps `monitor` in as the snapshot to serve, returning the
    /// epoch stamped onto it (previous epoch + 1).  A single-layer
    /// [`FrozenMonitor`] is lifted to the `N = 1` family, the form an
    /// engine built from a single [`Monitor`] serves.
    ///
    /// The swap is **non-disruptive and exact**: no request is lost,
    /// rejected or re-run.  Workers pick the new snapshot up at their
    /// next micro-batch boundary — each in-flight micro-batch finishes
    /// wholly under the snapshot it started with, and every verdict
    /// carries the epoch of the snapshot that judged it
    /// ([`LayeredEpochReport`]), so "which zone set said this?" is always
    /// answerable.  Publishing never blocks the verdict hot path; the
    /// slot mutex is touched by workers only on an epoch change.
    ///
    /// # Errors
    ///
    /// [`EngineError::IncompatibleMonitor`] when `monitor` has a
    /// different layer count, watches different layers or neuron
    /// selections, folds with a different combine policy, or has a
    /// different class count than the snapshot being replaced — swapping
    /// it in would make cross-epoch verdicts incomparable.  The engine
    /// keeps serving the old snapshot.
    pub fn publish(&self, monitor: impl Into<FrozenLayeredMonitor>) -> Result<u64, EngineError> {
        let mut monitor = monitor.into();
        let mut slot = self
            .shared
            .published
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if monitor.num_layers() != slot.num_layers() {
            return Err(EngineError::IncompatibleMonitor("layer count differs"));
        }
        if monitor.policy() != slot.policy() {
            return Err(EngineError::IncompatibleMonitor("combine policy differs"));
        }
        if monitor.num_classes() != slot.num_classes() {
            return Err(EngineError::IncompatibleMonitor("class count differs"));
        }
        for (new, old) in monitor.layers().iter().zip(slot.layers()) {
            if new.layer() != old.layer() {
                return Err(EngineError::IncompatibleMonitor("monitored layer differs"));
            }
            if new.selection() != old.selection() {
                return Err(EngineError::IncompatibleMonitor("neuron selection differs"));
            }
        }
        // ordering: acquire — epoch reads pair with the Release store
        // below; publishers serialize on the slot mutex held here.
        let epoch = self.shared.epoch.load(Ordering::Acquire) + 1;
        monitor.set_epoch(epoch);
        *slot = Arc::new(monitor);
        // ordering: release — publish the new epoch only after the slot
        // holds the snapshot (workers re-read the slot under its mutex
        // when they see the epoch move, so they can never pair the old
        // snapshot with the new stamp).
        self.shared.epoch.store(epoch, Ordering::Release);
        drop(slot);
        // ordering: relaxed — monotone stat counter
        self.shared.swaps.fetch_add(1, Ordering::Relaxed);
        // Re-arm drift tracking for the new zone set: sustained
        // out-of-pattern rates measured under the replaced epoch are not
        // evidence against the zones that just went live.
        let mut drift = self.shared.drift.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(state) = drift.as_mut() {
            *state = state.rearmed(epoch);
        }
        Ok(epoch)
    }

    /// Arms drift tracking: from now on every verdict the engine produces
    /// feeds a [`DriftDetector`] per **(layer, class)** — verdicts are
    /// charged to the predicted class, at each monitored layer
    /// separately — plus a combined-verdict detector per class and a
    /// distance-to-seeds EWMA, so a sustained out-of-pattern elevation
    /// on any class surfaces as an epoch-stamped
    /// [`DriftStatus::Drifting`] in [`MonitorEngine::drift_status`] (or,
    /// per abstraction level, [`MonitorEngine::drift_status_by_layer`])
    /// — the trigger for the enrich → re-freeze →
    /// [`MonitorEngine::publish`] loop, which re-arms the detectors at
    /// the new epoch automatically.
    ///
    /// Detectors live off the verdict hot path: workers fold a whole
    /// micro-batch in under one short lock.  Calling this again replaces
    /// any existing tracking state (fresh detectors, current epoch).
    pub fn enable_drift(&self, config: DriftConfig) {
        let monitor = self.monitor_layered();
        let layer_indices: Vec<usize> = monitor.layers().iter().map(|m| m.layer()).collect();
        let num_classes = monitor.num_classes();
        let epoch = self.epoch();
        let mut drift = self.shared.drift.lock().unwrap_or_else(|e| e.into_inner());
        *drift = Some(DriftState::new(config, layer_indices, num_classes, epoch));
    }

    /// The per-class drift posture of the **combined** verdicts, `None`
    /// unless [`MonitorEngine::enable_drift`] armed tracking.  Classes
    /// are reported in ascending order; each entry is stamped with the
    /// epoch its evidence was gathered under.  For an `N = 1` engine the
    /// combined verdict is the lone layer's verdict, so this is exactly
    /// the single-layer drift signal.
    pub fn drift_status(&self) -> Option<Vec<ClassDriftStatus>> {
        let drift = self.shared.drift.lock().unwrap_or_else(|e| e.into_inner());
        drift
            .as_ref()
            .map(|state| class_statuses(&state.combined, Some(&state.distance_ewma), state.epoch))
    }

    /// The drift posture keyed by (layer, class): one
    /// [`LayerDriftStatus`] per monitored layer (family order), each with
    /// per-class detectors fed that layer's **own** verdicts.  `None`
    /// unless tracking is armed.  Drift at one abstraction level — e.g.
    /// an early layer seeing novel textures while the deep layer still
    /// folds in-pattern — shows here before the combined view alarms.
    pub fn drift_status_by_layer(&self) -> Option<Vec<LayerDriftStatus>> {
        let drift = self.shared.drift.lock().unwrap_or_else(|e| e.into_inner());
        drift.as_ref().map(|state| {
            state
                .per_layer
                .iter()
                .zip(&state.layer_indices)
                .map(|(dets, &layer)| LayerDriftStatus {
                    layer,
                    classes: class_statuses(dets, None, state.epoch),
                })
                .collect()
        })
    }

    /// Clears drift evidence while keeping tracking armed (e.g. after an
    /// operator acknowledges an alarm without republishing).  No-op when
    /// tracking was never enabled.
    pub fn reset_drift(&self) {
        let epoch = self.epoch();
        let mut drift = self.shared.drift.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(state) = drift.as_mut() {
            *state = state.rearmed(epoch);
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Checks one input synchronously through the pool, returning the
    /// single-layer view of its verdict.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after shutdown began,
    /// [`SubmitError::WorkerLost`] on a failed engine,
    /// [`SubmitError::WidthMismatch`] on a wrong-width input.  Never
    /// panics and never deadlocks: a shut-down engine answers with an
    /// error, not a hang.
    pub fn check(&self, input: &Tensor) -> Result<EpochReport, SubmitError> {
        self.submit(input.clone(), None)?
            .wait()
            .map(LayeredEpochReport::into_single)
    }

    /// Checks a batch synchronously, preserving input order (single-layer
    /// view): [`MonitorEngine::check_layered_batch`] without a graded
    /// query, each verdict projected with
    /// [`LayeredEpochReport::into_single`].
    ///
    /// # Errors
    ///
    /// As [`MonitorEngine::check_layered_batch`].
    pub fn check_batch(&self, inputs: &[Tensor]) -> Result<Vec<EpochReport>, SubmitError> {
        Ok(self
            .check_layered_batch(inputs, None)?
            .into_iter()
            .map(LayeredEpochReport::into_single)
            .collect())
    }

    /// Checks a batch synchronously, preserving input order, and returns
    /// one full [`LayeredEpochReport`] per input.  Pass `query` to also
    /// compute one graded ranking per monitored layer.  The batch is
    /// queued as individual requests, so workers micro-batch it freely;
    /// results are reassembled by index.  Element `i` is bit-identical to
    /// sequential [`LayeredMonitor`]
    /// [`check_batch`](naps_core::ActivationMonitor::check_batch) (or, graded,
    /// [`LayeredMonitor::check_graded_batch`]) under the snapshot of the
    /// epoch stamped on it.
    ///
    /// Submission is **all-or-nothing**: every input's width is
    /// validated before anything is queued, so a malformed input at any
    /// index means no request is enqueued and no verdict is computed
    /// only to be thrown away.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after shutdown began,
    /// [`SubmitError::WorkerLost`] on a failed engine,
    /// [`SubmitError::WidthMismatch`] when an input width is wrong for
    /// the model (nothing submitted).  A shutdown racing the submission
    /// loop can still cut a batch short — requests queued before the
    /// error are drained and their verdicts discarded.  The call never
    /// panics or deadlocks.
    pub fn check_layered_batch(
        &self,
        inputs: &[Tensor],
        query: Option<GradedQuery>,
    ) -> Result<Vec<LayeredEpochReport>, SubmitError> {
        // Validate the whole batch up front: a width error at index k
        // must not leave k requests in flight whose verdicts nobody will
        // read.
        for input in inputs {
            self.validate_width(input)?;
        }
        let (tx, rx) = mpsc::channel();
        for (i, input) in inputs.iter().enumerate() {
            let tx = tx.clone();
            self.enqueue(
                input.clone(),
                query,
                Box::new(move |report| {
                    let _ = tx.send((i, report));
                }),
                true,
            )?;
        }
        drop(tx);
        let mut out: Vec<Option<LayeredEpochReport>> = vec![None; inputs.len()];
        for (i, report) in rx {
            // `i` enumerated `inputs`; `get_mut` rather than trusting it.
            if let Some(slot) = out.get_mut(i) {
                *slot = Some(report);
            }
        }
        // A missing slot means a worker died with that request in hand
        // (its callback was dropped unanswered) — a typed error, never a
        // panic on the serving surface.
        out.into_iter()
            .map(|r| r.ok_or(SubmitError::WorkerLost))
            .collect()
    }

    /// Queues `input`, blocking while the queue is full, and returns a
    /// ticket to wait on for the verdict.  Pass `query` to also compute
    /// the per-layer graded rankings.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after shutdown began,
    /// [`SubmitError::WorkerLost`] on a failed engine,
    /// [`SubmitError::WidthMismatch`] when the input width is wrong for
    /// the model.
    pub fn submit(
        &self,
        input: Tensor,
        query: Option<GradedQuery>,
    ) -> Result<VerdictTicket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            input,
            query,
            Box::new(move |report| {
                let _ = tx.send(report);
            }),
            true,
        )?;
        Ok(VerdictTicket { rx })
    }

    /// Non-blocking callback submission: queues `input` (graded at
    /// `query` when given) and invokes `complete` with the verdict on a
    /// worker thread, or fails at once with [`SubmitError::Saturated`]
    /// when the queue is full.  This is the surface a network front-end
    /// wants: a reader thread must never block on the engine's queue,
    /// and the verdict is written back from the worker thread without
    /// parking anything in between.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the queue is full (shed the
    /// request), [`SubmitError::ShutDown`] after shutdown began,
    /// [`SubmitError::WorkerLost`] on a failed engine,
    /// [`SubmitError::WidthMismatch`] on a wrong-width input.  When an
    /// error is returned, `complete` is dropped uninvoked.
    pub fn try_submit_with<F>(
        &self,
        input: Tensor,
        query: Option<GradedQuery>,
        complete: F,
    ) -> Result<(), SubmitError>
    where
        F: FnOnce(LayeredEpochReport) + Send + 'static,
    {
        self.enqueue(input, query, Box::new(complete), false)
    }

    /// Requests currently queued (accepted but not yet picked up by a
    /// worker) — the live backpressure gauge, bounded by
    /// [`EngineConfig::queue_capacity`].  A point-in-time snapshot: the
    /// value can change the moment the lock is released.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Lifetime counters (throughput, batching and swap behaviour).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            // ordering: relaxed — advisory snapshot of monotone counters;
            // no cross-counter consistency is promised (all loads below).
            processed: self.shared.processed.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed), // ordering: relaxed snapshot
            largest_batch: self.shared.largest_batch.load(Ordering::Relaxed) as u64, // ordering: relaxed snapshot
            swaps: self.shared.swaps.load(Ordering::Relaxed), // ordering: relaxed snapshot
        }
    }

    /// Begins a graceful shutdown from a shared reference: new
    /// submissions fail with [`SubmitError::ShutDown`] (including blocked
    /// ones — they are woken and answered with the error, never left
    /// hanging), while already-queued requests are still drained and
    /// answered.  Idempotent.  Unlike [`MonitorEngine::shutdown`] this
    /// does not join the workers; dropping the engine does.
    pub fn stop(&self) {
        self.begin_shutdown();
    }

    /// Stops accepting submissions, drains the queue, joins the
    /// workers and returns the final counters.
    ///
    /// **Drain guarantee** (regression-tested by
    /// `tests/worker_loss.rs`): every request accepted before shutdown
    /// began is either judged (its ticket resolves `Ok`) or — if a
    /// worker died with it in hand, or the last worker died with it
    /// still queued — resolved with [`SubmitError::WorkerLost`].  No
    /// ticket is ever left hanging.
    pub fn shutdown(mut self) -> EngineStats {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    /// Rejects an input whose width the model cannot take, when the
    /// model's input dimension is derivable (see [`Shared::input_len`]).
    fn validate_width(&self, input: &Tensor) -> Result<(), SubmitError> {
        if let Some(expected) = self.shared.input_len {
            if input.len() != expected {
                return Err(SubmitError::WidthMismatch {
                    expected,
                    actual: input.len(),
                });
            }
        }
        Ok(())
    }

    fn enqueue(
        &self,
        input: Tensor,
        graded: Option<GradedQuery>,
        complete: Callback,
        block: bool,
    ) -> Result<(), SubmitError> {
        self.validate_width(&input)?;
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.failed {
                return Err(SubmitError::WorkerLost);
            }
            if state.shutdown {
                return Err(SubmitError::ShutDown);
            }
            if state.queue.len() < self.shared.queue_capacity {
                break;
            }
            if !block {
                return Err(SubmitError::Saturated);
            }
            state = self
                .shared
                .space
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.queue.push_back(Request {
            input,
            graded,
            complete,
        });
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }
}

impl Drop for MonitorEngine {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pops the next micro-batch: up to `max_batch` requests from the front
/// of the queue, in submission order.  Returns `None` to shut down.
/// Blocks on the `work` condvar while idle.
fn next_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if !state.queue.is_empty() {
            let take = state.queue.len().min(shared.max_batch);
            let batch: Vec<Request> = state.queue.drain(..take).collect();
            drop(state);
            shared.space.notify_all();
            // ordering: relaxed — stat counters; queue state is
            // consistent under the state mutex released above.
            shared.batches.fetch_add(1, Ordering::Relaxed);
            shared
                .largest_batch
                // ordering: relaxed — stat high-water mark
                .fetch_max(batch.len(), Ordering::Relaxed);
            return Some(batch);
        }
        if state.shutdown {
            // The queue is empty and no more submissions can arrive: done.
            return None;
        }
        state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
    }
}

// `WorkerGuard` and `worker_loop` — the per-thread
// serving half of the engine — live in the `worker` child module so the
// analyzer can deny-list the steady-state request path as a file.
