//! Runtime neuron activation pattern monitors — the primary contribution of
//! *Runtime Monitoring Neuron Activation Patterns* (Cheng, Nührenberg,
//! Yasuoka; DATE 2019, arXiv:1809.06573).
//!
//! # The idea
//!
//! After training a ReLU classifier, feed the training data through the
//! network once more and record, for a chosen close-to-output layer, the
//! **binary on/off pattern** of its neurons (Definition 1: neuron `i` is
//! `1` iff its ReLU output is positive) for every **correctly classified**
//! training input.  Per class `c`, the set of visited patterns — enlarged
//! by every pattern within Hamming distance `γ` — is the *γ-comfort zone*
//! `Z^γ_c` (Definition 2), stored in a BDD.  In operation, a classification
//! decision is trusted only if the input's pattern lies inside the comfort
//! zone of the predicted class; otherwise the monitor raises an
//! **out-of-pattern** warning: the decision is not supported by prior
//! similarities in training.
//!
//! # Map of the crate
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`ActivationMonitor`], [`MonitorOutcome`] | the family's shared query interface (`check` / `check_batch` / `out_of_pattern`) |
//! | [`Pattern`] | Definition 1, `pat(f^(l)(in))` |
//! | [`Zone`], [`BddZone`], [`ExactZone`] | Definition 2, `Z^γ_c` (BDD-backed as in the paper, plus an explicit-set reference/baseline) |
//! | [`MonitorBuilder`] | Algorithm 1 |
//! | [`Monitor`] | Definition 3 + the deployment-time query of Figure 1 |
//! | [`NeuronSelection`] | gradient-based neuron selection (Section II) |
//! | [`GammaSweep`], [`choose_gamma`] | controlling the abstraction (Section III, Figure 2) |
//! | [`GradedReport`], [`GradedQuery`], [`Triage`] | graded distance verdicts: how far out, which class is nearest (extension) |
//! | [`MonitorStats`] | the Table II columns |
//! | [`IntervalZone`], [`DbmZone`], [`RefinedMonitor`] | Section V item (2): numeric-domain refinement (box and difference-bound matrix) |
//! | [`DriftDetector`] | Section I: out-of-pattern rate as a distribution-shift indicator |
//! | [`LayeredMonitor`] | joint monitoring of several ReLU layers (extension) |
//! | [`GridMonitor`] | Section V item (1): per-grid-cell monitors for YOLO-style heads |
//! | [`order_by_bias`] | a BDD variable-ordering heuristic (extension) |
//!
//! # Quickstart
//!
//! ```
//! use naps_core::{ActivationMonitor, BddZone, MonitorBuilder, Verdict};
//! use naps_nn::{mlp, Adam, TrainConfig, Trainer};
//! use naps_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A toy 2-class problem.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = mlp(&[2, 8, 2], &mut rng);
//! let xs: Vec<Tensor> = (0..20)
//!     .map(|i| {
//!         let s = if i % 2 == 0 { 1.0 } else { -1.0 };
//!         Tensor::from_vec(vec![2], vec![s, s])
//!     })
//!     .collect();
//! let ys: Vec<usize> = (0..20).map(|i| i % 2).collect();
//! let trainer = Trainer::new(TrainConfig { epochs: 50, batch_size: 4, verbose: false });
//! trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
//!
//! // Build the monitor on the ReLU output (layer 1), γ = 0.
//! let monitor = MonitorBuilder::new(1, 0)
//!     .build::<BddZone>(&mut net, &xs, &ys, 2);
//! let report = monitor.check(&mut net, &xs[0]);
//! assert_eq!(report.verdict, Verdict::InPattern);
//! ```

mod abstraction;
mod activation;
pub mod batch;
mod builder;
mod dbm;
mod drift;
mod error;
pub mod graded;
mod grid;
mod interval;
mod monitor;
mod multilayer;
mod ordering;
mod pattern;
pub mod prepared;
mod refined;
mod selection;
mod stats;
mod zone;

pub use abstraction::{choose_gamma, GammaPolicy, GammaStats, GammaSweep};
pub use activation::{ActivationMonitor, MonitorOutcome};
pub use builder::MonitorBuilder;
pub use dbm::DbmZone;
pub use drift::{DriftConfig, DriftDetector, DriftStatus};
pub use error::MonitorError;
pub use graded::{GradedQuery, GradedReport, NearestZone, Triage};
pub use grid::{GridMonitor, GridReport};
pub use interval::IntervalZone;
pub use monitor::{Monitor, MonitorReport, MonitorSnapshot, Verdict};
pub use multilayer::{
    validate_monitor_family, CombinePolicy, LayeredGradedReport, LayeredMonitor, LayeredReport,
};
pub use ordering::order_by_bias;
pub use pattern::Pattern;
pub use refined::{NumericDomain, RefinedMonitor, RefinedReport};
pub use selection::NeuronSelection;
pub use stats::{evaluate, evaluate_with_mode, EvalMode, MonitorStats};
pub use zone::{BddZone, ExactZone, Zone};
