//! The shared interface of the monitor family.
//!
//! The crate ships four deployable monitors — [`crate::Monitor`] (one
//! layer, Definition 3), [`crate::LayeredMonitor`] (several layers),
//! [`crate::RefinedMonitor`] (binary + numeric envelopes) and
//! [`crate::GridMonitor`] (per-grid-cell zones for YOLO-style heads) —
//! that historically exposed four ad-hoc query APIs.  [`ActivationMonitor`]
//! unifies them: one `check` / `check_batch` pair with an associated
//! report type, and [`MonitorOutcome`] gives every report a uniform
//! *did-it-warn* accessor so deployment glue (rate counters, drift
//! detectors, alarm plumbing) can be written once, generically.
//!
//! ```
//! use naps_core::{ActivationMonitor, MonitorOutcome};
//! use naps_nn::Sequential;
//! use naps_tensor::Tensor;
//!
//! /// Works with every monitor in the family.
//! fn warning_rate<M: ActivationMonitor>(
//!     monitor: &M,
//!     model: &mut Sequential,
//!     inputs: &[Tensor],
//! ) -> f64 {
//!     let reports = monitor.check_batch(model, inputs);
//!     if reports.is_empty() {
//!         return 0.0;
//!     }
//!     let warned = reports.iter().filter(|r| r.out_of_pattern()).count();
//!     warned as f64 / reports.len() as f64
//! }
//! # let _ = warning_rate::<naps_core::Monitor>;
//! ```

use crate::graded::{GradedQuery, GradedReport};
use naps_nn::Sequential;
use naps_tensor::Tensor;

/// Uniform view of a monitor report: did this query raise the paper's
/// *out-of-pattern* warning?
pub trait MonitorOutcome {
    /// `true` iff the monitor's (combined) verdict warns that the
    /// decision is not supported by prior similarities in training.
    /// Unmonitored outcomes are **not** warnings.
    fn out_of_pattern(&self) -> bool;
}

/// A runtime neuron-activation-pattern monitor: judges network decisions
/// against comfort zones built from training-time activations.
///
/// Implementors define the per-input [`ActivationMonitor::check`]; the
/// provided [`ActivationMonitor::check_batch`] loops over it, and
/// implementations with a cheaper batched path (one forward pass per
/// chunk of the batch) override it.  `check_batch` must be equivalent to mapping
/// `check` over the inputs.
///
/// # Thread safety
///
/// Every monitor in the crate — [`crate::Monitor`],
/// [`crate::LayeredMonitor`], [`crate::RefinedMonitor`],
/// [`crate::GridMonitor`] — is `Send + Sync` (for `Send + Sync` zone
/// backends, which both [`crate::BddZone`] and [`crate::ExactZone`] are):
/// the query path takes `&self`, holds no caches and no interior
/// mutability, so one monitor behind an `Arc` serves any number of
/// threads concurrently.  This is load-bearing for `naps-serve`'s
/// parallel `MonitorEngine` and is pinned by compile-time assertions in
/// the crate's tests.
///
/// The **model** is the non-shareable half: `check`/`check_batch` take
/// `&mut Sequential`, whose forward-pass counter every observation
/// advances.  Concurrent checkers must either replicate the model (one
/// replica per thread — what `naps-serve` does, via
/// [`naps_nn::ModelSnapshot`]) or serialise checks behind a lock.
///
/// # Panics
///
/// The crate's monitors observe through
/// [`Sequential::observe_rows`], so their checks panic on a model that
/// holds a layer from outside `naps-nn` (which cannot be captured and
/// prepared).
pub trait ActivationMonitor {
    /// What one query returns.
    type Report: MonitorOutcome;

    /// Runs the network on one input and judges its decision — the
    /// deployment-time flow of the paper's Figure 1(b).
    fn check(&self, model: &mut Sequential, input: &Tensor) -> Self::Report;

    /// Judges a batch of inputs.  Equivalent to `check` on each input;
    /// implementations override this when they can share one forward
    /// pass across the batch.
    fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<Self::Report> {
        inputs.iter().map(|x| self.check(model, x)).collect()
    }

    /// Graded counterpart of [`ActivationMonitor::check`]: instead of
    /// the binary in/out-of-pattern verdict, report **how far** the
    /// observed activation pattern is from the predicted class's
    /// enlarged comfort zone and **which other classes'** zones are
    /// nearest, within the query's distance budget (see
    /// [`GradedReport`] for the full payload and
    /// [`crate::Triage`] for the derived classification:
    /// distance 0 to another class ⇒ misclassification candidate,
    /// beyond the budget everywhere ⇒ novelty).
    ///
    /// Returns `None` for monitors without a per-class Hamming-zone
    /// distance path — the provided default.  [`crate::Monitor`]
    /// overrides it with the real graded query (budget-bounded
    /// early-exit DP over the zone diagrams), and
    /// [`crate::RefinedMonitor`] grades through its underlying binary
    /// monitor.  When implemented, the embedded
    /// [`GradedReport::report`] must be bit-identical to what
    /// [`ActivationMonitor::check`] returns for the same input.
    fn check_graded(
        &self,
        model: &mut Sequential,
        input: &Tensor,
        query: GradedQuery,
    ) -> Option<GradedReport> {
        let _ = (model, input, query);
        None
    }

    /// Grows every comfort zone to Hamming radius `gamma` (Section III's
    /// gradual enlargement).  Monotone: enlarging never evicts a pattern.
    fn enlarge_to(&mut self, gamma: u32);
}
