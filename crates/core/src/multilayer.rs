//! Joint monitoring of several layers.
//!
//! The paper monitors a single close-to-output layer, and notes (Section
//! II) that any ReLU layer qualifies.  A natural hardening is to monitor
//! **several** layers at once and combine the per-layer verdicts: deeper
//! layers encode higher-level features, earlier layers coarser ones, and
//! an input can be familiar to one abstraction level yet alien to another.
//! [`LayeredMonitor`] wraps any number of [`Monitor`]s over the same
//! network and evaluates them with **one forward pass** per query (per
//! 64 queries in a batch) that, via [`ObservationPlan`], retains **only**
//! the monitored layers' activations — adding a monitored layer costs one extra pattern lookup,
//! never an extra forward pass or an unobserved layer's allocation.

use crate::activation::{ActivationMonitor, MonitorOutcome};
use crate::batch::{observe_layered_batch, ObservationPlan};
use crate::error::MonitorError;
use crate::graded::{GradedQuery, GradedReport};
use crate::monitor::{Monitor, Verdict};
use crate::pattern::Pattern;
use crate::zone::{BddZone, Zone};
use naps_nn::Sequential;
use naps_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Validates a layered monitor family from its per-monitor class counts
/// — the **single** validation shared by the live [`LayeredMonitor`] and
/// `naps-serve`'s frozen layered family.
///
/// # Errors
///
/// [`MonitorError::EmptyMonitorFamily`] on an empty family;
/// [`MonitorError::ClassCountMismatch`] when the monitors disagree on
/// the number of classes — the classifier's output width — which means
/// they were not built over one network.
pub fn validate_monitor_family(
    class_counts: impl IntoIterator<Item = usize>,
) -> Result<(), MonitorError> {
    let mut counts = class_counts.into_iter();
    let Some(expected) = counts.next() else {
        return Err(MonitorError::EmptyMonitorFamily);
    };
    if let Some(actual) = counts.find(|&c| c != expected) {
        return Err(MonitorError::ClassCountMismatch { expected, actual });
    }
    Ok(())
}

/// How per-layer verdicts are combined into one.
///
/// [`Verdict::Unmonitored`] layers (the predicted class has no zone
/// there) abstain; the policy is applied to the remaining verdicts.  If
/// every layer abstains the combined verdict is `Unmonitored` — an
/// abstention, never a warning (pinned by the exhaustive policy tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombinePolicy {
    /// Warn when **any** monitored layer is out of pattern — maximal
    /// sensitivity (union of warnings), at the cost of a higher false
    /// positive rate.
    Any,
    /// Warn only when **every** monitored layer is out of pattern —
    /// maximal precision.
    All,
    /// Warn when a **strict** majority of the non-abstaining layers are
    /// out of pattern.  Tie-break: an exact tie (e.g. 2 layers judged, 1
    /// out) does **not** warn — `Majority` resolves doubt toward the
    /// network, so it always warns at most as often as `Any` and at
    /// least as often as `All`.
    Majority,
}

impl CombinePolicy {
    /// Folds per-layer verdicts into one.
    ///
    /// `Unmonitored` entries abstain and are excluded from the count; if
    /// every entry abstains (or `verdicts` is empty) the result is
    /// `Unmonitored`.  `Majority` requires a *strict* majority of the
    /// judged layers — exact ties stay `InPattern` (see the variant
    /// docs).
    pub fn combine(self, verdicts: &[Verdict]) -> Verdict {
        let (mut out, mut judged) = (0usize, 0usize);
        for v in verdicts {
            match v {
                Verdict::OutOfPattern => {
                    out += 1;
                    judged += 1;
                }
                Verdict::InPattern => judged += 1,
                Verdict::Unmonitored => {}
            }
        }
        if judged == 0 {
            return Verdict::Unmonitored;
        }
        let warn = match self {
            CombinePolicy::Any => out > 0,
            CombinePolicy::All => out == judged,
            CombinePolicy::Majority => 2 * out > judged,
        };
        if warn {
            Verdict::OutOfPattern
        } else {
            Verdict::InPattern
        }
    }
}

/// Report of one jointly monitored classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredReport {
    /// The network's decision.
    pub predicted: usize,
    /// One verdict per wrapped monitor, in construction order.
    pub per_layer: Vec<Verdict>,
    /// The policy-combined verdict.
    pub combined: Verdict,
}

impl MonitorOutcome for LayeredReport {
    fn out_of_pattern(&self) -> bool {
        self.combined == Verdict::OutOfPattern
    }
}

/// Graded report of one jointly monitored classification: the layered
/// counterpart of [`GradedReport`], carrying one full graded ranking per
/// wrapped monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredGradedReport {
    /// The network's decision.
    pub predicted: usize,
    /// One graded report per wrapped monitor, in construction order.
    /// Entry `i` is bit-identical to
    /// [`Monitor::check_graded_pattern`] on monitor `i`'s observed
    /// pattern.
    pub per_layer: Vec<GradedReport>,
    /// The policy-combined **binary** verdict over the embedded per-layer
    /// reports — identical to [`LayeredReport::combined`] for the same
    /// input.
    pub combined: Verdict,
}

impl MonitorOutcome for LayeredGradedReport {
    fn out_of_pattern(&self) -> bool {
        self.combined == Verdict::OutOfPattern
    }
}

/// Several [`Monitor`]s over one network, queried with a single forward
/// pass and combined by a [`CombinePolicy`].
///
/// # Example
///
/// ```
/// use naps_core::{ActivationMonitor, CombinePolicy, ExactZone, LayeredMonitor, MonitorBuilder};
/// use naps_nn::mlp;
/// use naps_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = mlp(&[2, 6, 6, 2], &mut rng);
/// let xs = vec![Tensor::from_vec(vec![2], vec![1.0, 1.0])];
/// let ys = vec![0];
/// let shallow = MonitorBuilder::new(1, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
/// let deep = MonitorBuilder::new(3, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
/// let joint = LayeredMonitor::try_new(vec![shallow, deep], CombinePolicy::Any).unwrap();
/// let report = joint.check(&mut net, &xs[0]);
/// assert_eq!(report.per_layer.len(), 2);
/// ```
#[derive(Debug)]
pub struct LayeredMonitor<Z: Zone = BddZone> {
    monitors: Vec<Monitor<Z>>,
    policy: CombinePolicy,
    /// Cached plan over the (deduplicated) monitored layer indices: the
    /// forward pass retains exactly these layers' activations.
    plan: ObservationPlan,
}

impl<Z: Zone> LayeredMonitor<Z> {
    /// Wraps the given monitors, validating the family.
    ///
    /// # Errors
    ///
    /// [`MonitorError::EmptyMonitorFamily`] when `monitors` is empty;
    /// [`MonitorError::ClassCountMismatch`] when the monitors disagree on
    /// the number of classes — the classifier's output width — which
    /// means they were not built over one network.
    pub fn try_new(monitors: Vec<Monitor<Z>>, policy: CombinePolicy) -> Result<Self, MonitorError> {
        validate_monitor_family(monitors.iter().map(|m| m.num_classes()))?;
        let plan = ObservationPlan::new(monitors.iter().map(Monitor::layer).collect());
        Ok(LayeredMonitor {
            monitors,
            policy,
            plan,
        })
    }

    /// Wraps the given monitors — the panicking convenience over
    /// [`LayeredMonitor::try_new`] for construction sites where the
    /// family is known-good by construction (builders, tests).
    ///
    /// # Panics
    ///
    /// Panics if `monitors` is empty or the monitors disagree on the
    /// number of classes.
    pub fn new(monitors: Vec<Monitor<Z>>, policy: CombinePolicy) -> Self {
        match Self::try_new(monitors, policy) {
            Ok(m) => m,
            Err(MonitorError::EmptyMonitorFamily) => panic!("need at least one monitor"),
            Err(MonitorError::ClassCountMismatch { .. }) => {
                panic!("monitors disagree on the number of classes")
            }
            Err(e) => panic!("invalid monitor family: {e}"),
        }
    }

    /// The wrapped monitors, in construction order.
    pub fn monitors(&self) -> &[Monitor<Z>] {
        &self.monitors
    }

    /// The combination policy.
    pub fn policy(&self) -> CombinePolicy {
        self.policy
    }

    /// The observation plan: the deduplicated, ascending set of layer
    /// indices one batched forward pass must retain for this family.
    pub fn plan(&self) -> &ObservationPlan {
        &self.plan
    }

    /// Number of classes of the underlying classifier.
    pub fn num_classes(&self) -> usize {
        self.monitors[0].num_classes()
    }

    /// Extracts, for each input, the predicted class and one observed
    /// pattern per wrapped monitor (construction order) — a single
    /// forward pass retaining only the planned layers, the common front
    /// half of [`LayeredMonitor::check_batch`] /
    /// [`LayeredMonitor::check_graded_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `model` holds a layer from outside `naps-nn`
    /// ([`Sequential::observe_rows`]).
    pub fn observe_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Vec<(usize, Vec<Pattern>)> {
        observe_layered_batch(
            model,
            inputs,
            &self.plan,
            self.monitors.iter().map(|m| (m.layer(), m.selection())),
        )
    }

    /// Batched graded joint check: one observation pass, then per layer the
    /// full graded ranking ([`Monitor::check_graded_pattern`]) — element
    /// `i` of each report is bit-identical to grading monitor `i` alone
    /// on the same input.
    pub fn check_graded_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
        query: GradedQuery,
    ) -> Vec<LayeredGradedReport> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(predicted, patterns)| {
                let per_layer: Vec<GradedReport> = self
                    .monitors
                    .iter()
                    .zip(&patterns)
                    .map(|(m, pattern)| m.check_graded_pattern(predicted, pattern, query))
                    .collect();
                let verdicts: Vec<Verdict> = per_layer.iter().map(|g| g.report.verdict).collect();
                let combined = self.policy.combine(&verdicts);
                LayeredGradedReport {
                    predicted,
                    per_layer,
                    combined,
                }
            })
            .collect()
    }
}

impl<Z: Zone> ActivationMonitor for LayeredMonitor<Z> {
    type Report = LayeredReport;

    /// Jointly checks one input.
    fn check(&self, model: &mut Sequential, input: &Tensor) -> LayeredReport {
        self.check_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "check_batch returns one report per input row; the slice has exactly one row")
            .expect("one report per input")
    }

    /// Batched joint check: one forward pass per 64 inputs
    /// ([`Sequential::observe_rows`]), regardless of how
    /// many layers are monitored, retaining only the planned layers'
    /// activations.
    fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<LayeredReport> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(predicted, patterns)| {
                let per_layer: Vec<Verdict> = self
                    .monitors
                    .iter()
                    .zip(&patterns)
                    .map(|(m, pattern)| m.check_pattern(predicted, pattern))
                    .collect();
                let combined = self.policy.combine(&per_layer);
                LayeredReport {
                    predicted,
                    per_layer,
                    combined,
                }
            })
            .collect()
    }

    /// Grows every wrapped monitor to radius `gamma` (see
    /// [`ActivationMonitor::enlarge_to`]).
    fn enlarge_to(&mut self, gamma: u32) {
        for m in &mut self.monitors {
            m.enlarge_to(gamma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorBuilder;
    use crate::zone::ExactZone;
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_two_layer_net() -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = mlp(&[2, 10, 8, 2], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let s = if i % 2 == 0 { 1.5f32 } else { -1.5 };
            let wiggle = (i as f32 * 0.31).sin() * 0.3;
            xs.push(Tensor::from_vec(vec![2], vec![s + wiggle, s - wiggle]));
            ys.push(i % 2);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 80,
            batch_size: 10,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.04), &mut rng);
        (net, xs, ys)
    }

    fn joint(
        net: &mut Sequential,
        xs: &[Tensor],
        ys: &[usize],
        gamma: u32,
        policy: CombinePolicy,
    ) -> LayeredMonitor<ExactZone> {
        let shallow = MonitorBuilder::new(1, gamma).build::<ExactZone>(net, xs, ys, 2);
        let deep = MonitorBuilder::new(3, gamma).build::<ExactZone>(net, xs, ys, 2);
        LayeredMonitor::new(vec![shallow, deep], policy)
    }

    #[test]
    fn policies_fold_verdicts() {
        use Verdict::*;
        let mixed = [OutOfPattern, InPattern, InPattern];
        assert_eq!(CombinePolicy::Any.combine(&mixed), OutOfPattern);
        assert_eq!(CombinePolicy::All.combine(&mixed), InPattern);
        assert_eq!(CombinePolicy::Majority.combine(&mixed), InPattern);
        let heavy = [OutOfPattern, OutOfPattern, InPattern];
        assert_eq!(CombinePolicy::Majority.combine(&heavy), OutOfPattern);
        assert_eq!(CombinePolicy::All.combine(&heavy), InPattern);
        let unanimous = [OutOfPattern, OutOfPattern];
        assert_eq!(CombinePolicy::All.combine(&unanimous), OutOfPattern);
        // Abstentions are dropped before the fold.
        let with_abstain = [Unmonitored, OutOfPattern];
        assert_eq!(CombinePolicy::All.combine(&with_abstain), OutOfPattern);
        assert_eq!(CombinePolicy::Majority.combine(&with_abstain), OutOfPattern);
        // All abstain.
        assert_eq!(
            CombinePolicy::Any.combine(&[Unmonitored, Unmonitored]),
            Unmonitored
        );
        assert_eq!(CombinePolicy::Any.combine(&[]), Unmonitored);
    }

    /// Exhaustive pin of every policy over every verdict **multiset** of
    /// up to 4 layers (order cannot matter — asserted too), against a
    /// counting oracle.  This nails the documented edge cases forever:
    /// `Majority` does not warn on an exact tie (2 judged, 1 out), and
    /// all-`Unmonitored` abstains as `Unmonitored` under every policy.
    #[test]
    fn policies_pinned_over_all_multisets() {
        use Verdict::*;
        let policies = [
            CombinePolicy::Any,
            CombinePolicy::All,
            CombinePolicy::Majority,
        ];
        // Multisets as counts (out, in, unmonitored) with 0 < total <= 4,
        // plus the empty multiset.
        for out in 0..=4usize {
            for inp in 0..=4 - out {
                for un in 0..=4 - out - inp {
                    let mut verdicts = Vec::new();
                    verdicts.extend(std::iter::repeat_n(OutOfPattern, out));
                    verdicts.extend(std::iter::repeat_n(InPattern, inp));
                    verdicts.extend(std::iter::repeat_n(Unmonitored, un));
                    let judged = out + inp;
                    for policy in policies {
                        let want = if judged == 0 {
                            Unmonitored
                        } else {
                            let warn = match policy {
                                CombinePolicy::Any => out >= 1,
                                CombinePolicy::All => out == judged,
                                CombinePolicy::Majority => 2 * out > judged,
                            };
                            if warn {
                                OutOfPattern
                            } else {
                                InPattern
                            }
                        };
                        assert_eq!(
                            policy.combine(&verdicts),
                            want,
                            "{policy:?} over {out} out / {inp} in / {un} unmonitored"
                        );
                        // Order independence: the reverse folds identically.
                        let mut rev = verdicts.clone();
                        rev.reverse();
                        assert_eq!(policy.combine(&rev), want);
                    }
                }
            }
        }
        // The documented tie-break, spelled out.
        assert_eq!(
            CombinePolicy::Majority.combine(&[OutOfPattern, InPattern]),
            InPattern,
            "an exact tie must not warn"
        );
    }

    #[test]
    fn training_inputs_pass_all_layers() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let jm = joint(&mut net, &xs, &ys, 0, CombinePolicy::Any);
        for (x, &y) in xs.iter().zip(&ys) {
            let rep = jm.check(&mut net, x);
            if rep.predicted == y {
                // Soundness extends layer-wise: a correctly classified
                // training input is in-pattern at every monitored layer.
                assert_eq!(
                    rep.combined,
                    Verdict::InPattern,
                    "layers: {:?}",
                    rep.per_layer
                );
            }
        }
    }

    #[test]
    fn any_warns_at_least_as_often_as_majority_and_all() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let any = joint(&mut net, &xs, &ys, 0, CombinePolicy::Any);
        let all = joint(&mut net, &xs, &ys, 0, CombinePolicy::All);
        let maj = joint(&mut net, &xs, &ys, 0, CombinePolicy::Majority);
        let probes: Vec<Tensor> = (0..50)
            .map(|i| {
                let t = i as f32 * 0.37;
                Tensor::from_vec(vec![2], vec![3.0 * t.sin(), 3.0 * t.cos()])
            })
            .collect();
        let warn = |jm: &LayeredMonitor<ExactZone>, net: &mut Sequential| -> usize {
            probes
                .iter()
                .filter(|p| jm.check(net, p).combined == Verdict::OutOfPattern)
                .count()
        };
        let (w_any, w_all, w_maj) = (
            warn(&any, &mut net),
            warn(&all, &mut net),
            warn(&maj, &mut net),
        );
        assert!(w_any >= w_maj, "any({w_any}) < majority({w_maj})");
        assert!(w_maj >= w_all, "majority({w_maj}) < all({w_all})");
    }

    #[test]
    fn single_layer_joint_agrees_with_plain_monitor() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let plain = MonitorBuilder::new(1, 1).build::<ExactZone>(&mut net, &xs, &ys, 2);
        let reference = MonitorBuilder::new(1, 1).build::<ExactZone>(&mut net, &xs, &ys, 2);
        let jm = LayeredMonitor::new(vec![plain], CombinePolicy::Any);
        for x in xs.iter().take(20) {
            let a = jm.check(&mut net, x);
            let b = reference.check(&mut net, x);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.combined, b.verdict);
        }
    }

    #[test]
    fn check_batch_matches_single_checks() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let jm = joint(&mut net, &xs, &ys, 1, CombinePolicy::Majority);
        let batch = jm.check_batch(&mut net, &xs[..10]);
        for (x, want) in xs[..10].iter().zip(&batch) {
            assert_eq!(&jm.check(&mut net, x), want);
        }
        assert!(jm.check_batch(&mut net, &[]).is_empty());
    }

    #[test]
    fn graded_batch_matches_per_monitor_grading() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let jm = joint(&mut net, &xs, &ys, 1, CombinePolicy::Any);
        let query = GradedQuery::new(2, 2);
        let graded = jm.check_graded_batch(&mut net, &xs[..12], query);
        let binary = jm.check_batch(&mut net, &xs[..12]);
        for ((g, b), x) in graded.iter().zip(&binary).zip(&xs[..12]) {
            assert_eq!(g.predicted, b.predicted);
            assert_eq!(g.combined, b.combined);
            assert_eq!(g.per_layer.len(), jm.monitors().len());
            // Per-layer grading is bit-identical to grading each wrapped
            // monitor alone.
            for (m, got) in jm.monitors().iter().zip(&g.per_layer) {
                let (predicted, pattern) = m.observe(&mut net, x);
                assert_eq!(predicted, g.predicted);
                assert_eq!(got, &m.check_graded_pattern(predicted, &pattern, query));
            }
        }
        assert!(jm.check_graded_batch(&mut net, &[], query).is_empty());
    }

    #[test]
    fn plan_covers_each_layer_once() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let a = MonitorBuilder::new(1, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
        let b = MonitorBuilder::new(3, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
        let c = MonitorBuilder::new(3, 1).build::<ExactZone>(&mut net, &xs, &ys, 2);
        // Two monitors share layer 3: the plan observes it once.
        let jm = LayeredMonitor::new(vec![a, b, c], CombinePolicy::Any);
        assert_eq!(jm.plan().layers(), &[1, 3]);
        let rep = jm.check(&mut net, &xs[0]);
        assert_eq!(rep.per_layer.len(), 3);
    }

    #[test]
    fn enlarge_to_propagates_to_all_layers() {
        let (mut net, xs, ys) = trained_two_layer_net();
        let mut jm = joint(&mut net, &xs, &ys, 0, CombinePolicy::Any);
        jm.enlarge_to(2);
        assert!(jm.monitors().iter().all(|m| m.gamma() == 2));
    }

    #[test]
    fn try_new_surfaces_family_errors() {
        use crate::selection::NeuronSelection;
        assert_eq!(
            LayeredMonitor::<ExactZone>::try_new(Vec::new(), CombinePolicy::Any).err(),
            Some(MonitorError::EmptyMonitorFamily)
        );
        let a = Monitor::<ExactZone>::from_zones(
            vec![Some(ExactZone::empty(4)), None],
            1,
            NeuronSelection::all(4),
            0,
        );
        let b = Monitor::<ExactZone>::from_zones(
            vec![Some(ExactZone::empty(4))],
            1,
            NeuronSelection::all(4),
            0,
        );
        assert_eq!(
            LayeredMonitor::try_new(vec![a, b], CombinePolicy::Any).err(),
            Some(MonitorError::ClassCountMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "at least one monitor")]
    fn empty_monitor_list_is_rejected() {
        let _ = LayeredMonitor::<ExactZone>::new(Vec::new(), CombinePolicy::Any);
    }

    #[test]
    #[should_panic(expected = "disagree on the number of classes")]
    fn class_count_mismatch_is_rejected() {
        use crate::selection::NeuronSelection;
        let a = Monitor::<ExactZone>::from_zones(
            vec![Some(ExactZone::empty(4)), None],
            1,
            NeuronSelection::all(4),
            0,
        );
        let b = Monitor::<ExactZone>::from_zones(
            vec![Some(ExactZone::empty(4))],
            1,
            NeuronSelection::all(4),
            0,
        );
        let _ = LayeredMonitor::new(vec![a, b], CombinePolicy::Any);
    }
}
