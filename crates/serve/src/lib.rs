//! # naps-serve — parallel monitoring engine
//!
//! The paper's deployment story (Figure 1) puts the activation-pattern
//! monitor inside a live inference loop.  `naps-core`'s monitors are
//! single-threaded library calls; this crate turns them into a
//! long-lived concurrent **service**: requests wait in one bounded FIFO,
//! worker threads (each owning a model replica) drain it in
//! micro-batches, and every request is judged against its predicted
//! class's comfort zone, an immutable `Arc`'d BDD snapshot — so the
//! membership hot path takes **no lock at all**.
//!
//! | Type | Role |
//! |---|---|
//! | [`FrozenZone`] | one class's zone + seeds as immutable [`naps_bdd::BddSnapshot`]s, compiled for serving |
//! | [`FrozenMonitor`] | one layer's deployable monitor: a frozen zone per class |
//! | [`FrozenLayeredMonitor`] / [`LayeredVerdict`] | the epoch-versioned N-layer family the engine serves (single-layer = N = 1) |
//! | [`MonitorEngine`] | the worker pool over one FIFO: five entry points (`check`, `check_batch`, `check_layered_batch`, `submit`, `try_submit_with`), batching, backpressure, hot swap |
//! | [`EngineConfig`] | workers / `max_batch` / `queue_capacity` knobs |
//! | [`VerdictTicket`] | handle to one in-flight verdict (resolves to a [`LayeredEpochReport`]) |
//! | [`EpochReport`] / [`LayeredEpochReport`] | a verdict stamped with the zone epoch that produced it, optionally carrying the graded payload(s) |
//! | [`ClassDriftStatus`] / [`LayerDriftStatus`] | epoch-stamped drift posture, combined and per (layer, class) |
//! | [`EngineStats`] | processed / batches / largest-batch / swaps counters |
//! | [`PersistError`] | why a frozen-monitor `save` / `load` failed |
//!
//! Verdicts are **bit-identical** to sequential
//! [`check`](naps_core::ActivationMonitor::check) /
//! [`check_batch`](naps_core::ActivationMonitor::check_batch) on a
//! [`naps_core::Monitor`] or [`naps_core::LayeredMonitor`]: every path runs
//! forward passes retaining only the monitored layers' activations —
//! the prepared, allocation-free pass, in the engine and in the
//! sequential chunked `Sequential::observe_rows` pass alike — model
//! replicas are exact parameter copies, and frozen-snapshot queries
//! agree with the live BDD manager query-for-query (pinned by property
//! tests in `naps-bdd` and the concurrency suite here).
//!
//! ## Multi-layer monitoring
//!
//! The engine natively serves **N monitored layers per query**: a
//! [`FrozenLayeredMonitor`] holds one [`FrozenMonitor`] per layer plus
//! the [`naps_core::CombinePolicy`] (`Any` / `All` / `Majority`) that
//! folds the per-layer verdicts.  One observation-plan
//! forward pass feeds all layers — adding a monitored layer costs zone
//! lookups, never another forward pass — and every verdict is a
//! [`LayeredEpochReport`] ([`MonitorEngine::check_layered_batch`],
//! [`MonitorEngine::submit`], [`MonitorEngine::try_submit_with`])
//! carrying per-layer reports and, when requested, per-layer graded
//! rankings.  A single-layer engine is exactly the `N = 1` case; its
//! [`EpochReport`] ([`MonitorEngine::check`] /
//! [`MonitorEngine::check_batch`]) is the
//! [`LayeredEpochReport::into_single`] projection.  [`FrozenLayeredMonitor::save`] writes a versioned
//! container that [`FrozenLayeredMonitor::load`] restores — including
//! pre-layered single-monitor files (format 1), lifted to `N = 1`, and
//! files written before zones carried their own variable order, whose
//! zones are re-sealed on load.
//!
//! ## Live updates
//!
//! The engine is not frozen forever: when an operator confirms an
//! out-of-pattern activation as benign, feed it back with
//! [`naps_core::Monitor::enrich`], re-freeze, and
//! [`MonitorEngine::publish`] the new snapshot.  Workers swap at
//! micro-batch boundaries — no request is lost, no lock is added to the
//! verdict hot path — and every verdict's [`EpochReport::epoch`] names
//! the zone set that judged it.  [`FrozenLayeredMonitor::save`] /
//! [`FrozenLayeredMonitor::load`] persist snapshots (epoch included) for
//! warm restarts.
//!
//! ## Graded verdicts & drift
//!
//! Every request may carry a [`naps_core::GradedQuery`]
//! ([`MonitorEngine::check_layered_batch`] /
//! [`MonitorEngine::submit`] /
//! [`MonitorEngine::try_submit_with`]): the verdict additionally carries
//! the bounded Hamming distance to the predicted class's zone and a
//! ranked top-k of the nearest *other* classes' zones
//! ([`naps_core::GradedReport`]), computed by the budget-bounded
//! early-exit DP on the same immutable snapshots — still lock-free, and
//! bit-identical to sequential [`naps_core::Monitor::check_graded_batch`]
//! at the stamped epoch.  [`MonitorEngine::enable_drift`] arms per-class
//! [`naps_core::DriftDetector`]s over everything the engine serves;
//! sustained out-of-pattern elevation surfaces as an epoch-stamped
//! [`ClassDriftStatus`], the trigger for the enrich → publish loop
//! (publishing re-arms the detectors at the new epoch).
//!
//! ## Example
//!
//! ```
//! use naps_core::{ActivationMonitor, BddZone, MonitorBuilder};
//! use naps_nn::{mlp, Adam, TrainConfig, Trainer};
//! use naps_serve::{EngineConfig, MonitorEngine};
//! use naps_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Train a toy classifier and build its monitor (offline).
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = mlp(&[2, 8, 2], &mut rng);
//! let xs: Vec<Tensor> = (0..20)
//!     .map(|i| {
//!         let s = if i % 2 == 0 { 1.0 } else { -1.0 };
//!         Tensor::from_vec(vec![2], vec![s, s])
//!     })
//!     .collect();
//! let ys: Vec<usize> = (0..20).map(|i| i % 2).collect();
//! Trainer::new(TrainConfig { epochs: 40, batch_size: 4, verbose: false })
//!     .fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
//! let monitor = MonitorBuilder::new(1, 1).build::<BddZone>(&mut net, &xs, &ys, 2);
//!
//! // Freeze + serve in parallel (online).
//! let engine = MonitorEngine::new(
//!     &monitor,
//!     &net,
//!     EngineConfig { workers: 2, max_batch: 8, queue_capacity: 64 },
//! )
//! .expect("MLPs replicate");
//! let reports = engine.check_batch(&xs).expect("engine is up");
//! assert_eq!(reports.len(), xs.len());
//! // Identical to the sequential monitor, input for input, and stamped
//! // with the zone epoch (0: nothing has been republished yet).
//! for (x, served) in xs.iter().zip(&reports) {
//!     assert_eq!(monitor.check(&mut net, x), served.report);
//!     assert_eq!(served.epoch, 0);
//! }
//! let stats = engine.shutdown();
//! assert_eq!(stats.processed, 20);
//! ```

mod engine;
mod frozen;

pub use engine::{
    ClassDriftStatus, EngineConfig, EngineError, EngineStats, EpochReport, LayerDriftStatus,
    LayeredEpochReport, MonitorEngine, SubmitError, VerdictTicket,
};
pub use frozen::{FrozenLayeredMonitor, FrozenMonitor, FrozenZone, LayeredVerdict, PersistError};
