//! Binary monitor + numeric envelopes in one deployable unit.
//!
//! Section V item (2) refines the on/off abstraction with numeric
//! envelopes — box and difference-bound — over the monitored
//! activations.  [`RefinedMonitor`] packages them (the `refinement`
//! experiment measures them through it): one builder pass records
//! binary patterns *and* numeric envelopes per class, and every
//! deployment query returns the binary verdict, the numeric verdict and
//! their disjunction.  The numeric side never weakens the binary
//! monitor: a combined `InPattern` requires both abstractions to accept.

use crate::activation::{ActivationMonitor, MonitorOutcome};
use crate::batch::ObservationPlan;
use crate::builder::MonitorBuilder;
use crate::dbm::DbmZone;
use crate::interval::IntervalZone;
use crate::monitor::{Monitor, Verdict};
use crate::zone::{BddZone, Zone};
use naps_nn::Sequential;
use naps_tensor::Tensor;

/// Which numeric domain refines the binary monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericDomain {
    /// Per-neuron min/max box ([`IntervalZone`]): `O(d)` per query.
    Box,
    /// Difference-bound matrix ([`DbmZone`]): relational, `O(d²)` per
    /// query, never looser than the box.
    Dbm,
}

/// Outcome of one refined query.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedReport {
    /// The network's decision.
    pub predicted: usize,
    /// The binary pattern monitor's verdict (Definition 3).
    pub binary: Verdict,
    /// The numeric envelope's verdict at the configured slack.
    pub numeric: Verdict,
    /// `OutOfPattern` if either abstraction warns.
    pub combined: Verdict,
    /// The numeric violation (minimal admitting slack), when the
    /// predicted class has an envelope.
    pub violation: Option<f32>,
}

impl MonitorOutcome for RefinedReport {
    fn out_of_pattern(&self) -> bool {
        self.combined == Verdict::OutOfPattern
    }
}

/// A binary activation-pattern monitor refined by per-class numeric
/// envelopes over the same monitored neurons.
///
/// Build with [`MonitorBuilder::build_refined`]; tune the numeric
/// coarseness with [`RefinedMonitor::set_slack`] (the numeric analogue
/// of γ — larger slack, coarser abstraction).
#[derive(Debug)]
pub struct RefinedMonitor<Z: Zone = BddZone> {
    monitor: Monitor<Z>,
    /// Per class, the box and DBM envelopes; `None` for classes the
    /// binary monitor does not watch.
    envelopes: Vec<Option<(IntervalZone, DbmZone)>>,
    domain: NumericDomain,
    slack: f32,
}

impl<Z: Zone> RefinedMonitor<Z> {
    /// The underlying binary monitor.
    pub fn monitor(&self) -> &Monitor<Z> {
        &self.monitor
    }

    /// The numeric domain in use.
    pub fn domain(&self) -> NumericDomain {
        self.domain
    }

    /// Current numeric slack.
    pub fn slack(&self) -> f32 {
        self.slack
    }

    /// Sets the numeric slack (coarseness knob).
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative or non-finite.
    pub fn set_slack(&mut self, slack: f32) {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "slack must be finite and non-negative"
        );
        self.slack = slack;
    }

    /// The numeric envelope verdict for raw monitored values of `class`.
    fn numeric_verdict(&self, class: usize, values: &[f32]) -> (Verdict, Option<f32>) {
        let Some((boxz, dbm)) = &self.envelopes[class] else {
            return (Verdict::Unmonitored, None);
        };
        let (inside, violation) = match self.domain {
            NumericDomain::Box => (boxz.contains(values, self.slack), boxz.violation(values)),
            NumericDomain::Dbm => (dbm.contains(values, self.slack), dbm.violation(values)),
        };
        let verdict = if violation.is_none() {
            // Empty envelope: the class was never correctly predicted in
            // training, so nothing is familiar.
            Verdict::OutOfPattern
        } else if inside {
            Verdict::InPattern
        } else {
            Verdict::OutOfPattern
        };
        (verdict, violation)
    }
}

impl<Z: Zone> ActivationMonitor for RefinedMonitor<Z> {
    type Report = RefinedReport;

    /// Runs the network and judges the decision with both abstractions.
    fn check(&self, model: &mut Sequential, input: &Tensor) -> RefinedReport {
        self.check_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "check_batch returns one report per input row; the slice has exactly one row")
            .expect("one report per input")
    }

    /// Batched refined judgement: one [`Sequential::observe_rows`] pass,
    /// then per-row binary and numeric verdicts.
    fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<RefinedReport> {
        let selection = self.monitor.selection();
        let mut out = Vec::with_capacity(inputs.len());
        let plan = ObservationPlan::single(self.monitor.layer());
        model.observe_rows(inputs, &plan, |_, predicted, row| {
            let full = row.layer(0);
            let pattern = selection.pattern_from(full);
            let binary = self.monitor.check_pattern(predicted, &pattern);
            let (numeric, violation) =
                self.numeric_verdict(predicted, &selection.values_from(full));
            let combined = match (binary, numeric) {
                (Verdict::OutOfPattern, _) | (_, Verdict::OutOfPattern) => Verdict::OutOfPattern,
                (Verdict::Unmonitored, Verdict::Unmonitored) => Verdict::Unmonitored,
                _ => Verdict::InPattern,
            };
            out.push(RefinedReport {
                predicted,
                binary,
                numeric,
                combined,
                violation,
            });
        });
        out
    }

    /// Graded judgement through the **binary** monitor: the numeric
    /// envelopes refine the in/out verdict but carry no Hamming
    /// distance, so the graded payload is the wrapped
    /// [`Monitor::check_graded_pattern`] query.
    fn check_graded(
        &self,
        model: &mut Sequential,
        input: &Tensor,
        query: crate::GradedQuery,
    ) -> Option<crate::GradedReport> {
        self.monitor.check_graded(model, input, query)
    }

    /// Grows the **binary** monitor's zones to radius `gamma`.  The
    /// numeric envelopes have their own coarseness knob,
    /// [`RefinedMonitor::set_slack`], and are left untouched.
    fn enlarge_to(&mut self, gamma: u32) {
        self.monitor.enlarge_to(gamma);
    }
}

impl MonitorBuilder {
    /// Like [`MonitorBuilder::build`], but additionally records per-class
    /// numeric envelopes (both box and DBM; query with either via
    /// [`NumericDomain`]) over the monitored neurons' real activations of
    /// the correctly classified training inputs.  Patterns and envelopes
    /// are recorded in the same replay of the training set, so this runs
    /// exactly the forward passes [`MonitorBuilder::build`] does.
    ///
    /// # Panics
    ///
    /// As [`MonitorBuilder::build`].
    pub fn build_refined<Z: Zone>(
        &self,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
        num_classes: usize,
        domain: NumericDomain,
    ) -> RefinedMonitor<Z> {
        let (monitor, envelopes) = self.replay(
            model,
            samples,
            labels,
            num_classes,
            |selection| {
                let width = selection.len();
                (IntervalZone::empty(width), DbmZone::empty(width))
            },
            |(boxz, dbm), selection, row| {
                let values = selection.values_from(row);
                boxz.insert(&values);
                dbm.insert(&values);
            },
        );
        RefinedMonitor {
            monitor,
            envelopes,
            domain,
            slack: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ExactZone;
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained() -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = mlp(&[2, 10, 2], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..50 {
            let s = if i % 2 == 0 { 1.0f32 } else { -1.0 };
            let w = (i as f32 * 0.21).sin() * 0.2;
            xs.push(Tensor::from_vec(vec![2], vec![s + w, s - w]));
            ys.push(i % 2);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 8,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
        (net, xs, ys)
    }

    #[test]
    fn training_inputs_pass_both_abstractions() {
        let (mut net, xs, ys) = trained();
        for domain in [NumericDomain::Box, NumericDomain::Dbm] {
            let refined =
                MonitorBuilder::new(1, 0).build_refined::<ExactZone>(&mut net, &xs, &ys, 2, domain);
            for (x, &y) in xs.iter().zip(&ys) {
                let rep = refined.check(&mut net, x);
                if rep.predicted == y {
                    assert_eq!(rep.binary, Verdict::InPattern);
                    assert_eq!(rep.numeric, Verdict::InPattern, "{domain:?}");
                    assert_eq!(rep.combined, Verdict::InPattern);
                    assert_eq!(rep.violation, Some(0.0));
                }
            }
        }
    }

    #[test]
    fn combined_verdict_is_the_disjunction() {
        let (mut net, xs, ys) = trained();
        let refined = MonitorBuilder::new(1, 1).build_refined::<ExactZone>(
            &mut net,
            &xs,
            &ys,
            2,
            NumericDomain::Dbm,
        );
        let probes: Vec<Tensor> = (0..60)
            .map(|i| {
                let t = i as f32 * 0.41;
                Tensor::from_vec(vec![2], vec![2.5 * t.sin(), 2.5 * t.cos()])
            })
            .collect();
        let mut union_seen = false;
        for p in &probes {
            let rep = refined.check(&mut net, p);
            let expect =
                if rep.binary == Verdict::OutOfPattern || rep.numeric == Verdict::OutOfPattern {
                    Verdict::OutOfPattern
                } else {
                    Verdict::InPattern
                };
            assert_eq!(rep.combined, expect);
            if rep.combined == Verdict::OutOfPattern && rep.binary == Verdict::InPattern {
                union_seen = true;
            }
        }
        // At least one probe must be caught only by the numeric side,
        // otherwise the refinement adds nothing on this workload.
        assert!(union_seen, "numeric refinement never added a warning");
    }

    #[test]
    fn slack_relaxes_the_numeric_side_monotonically() {
        let (mut net, xs, ys) = trained();
        let mut refined = MonitorBuilder::new(1, 0).build_refined::<ExactZone>(
            &mut net,
            &xs,
            &ys,
            2,
            NumericDomain::Box,
        );
        let probes: Vec<Tensor> = (0..40)
            .map(|i| {
                let t = i as f32 * 0.37;
                Tensor::from_vec(vec![2], vec![1.8 * t.sin(), 1.8 * t.cos()])
            })
            .collect();
        let numeric_warnings = |rm: &RefinedMonitor<ExactZone>, net: &mut Sequential| {
            probes
                .iter()
                .filter(|p| rm.check(net, p).numeric == Verdict::OutOfPattern)
                .count()
        };
        let strict = numeric_warnings(&refined, &mut net);
        refined.set_slack(1.0);
        let relaxed = numeric_warnings(&refined, &mut net);
        refined.set_slack(1e6);
        let silent = numeric_warnings(&refined, &mut net);
        assert!(strict >= relaxed, "{strict} < {relaxed}");
        assert!(relaxed >= silent, "{relaxed} < {silent}");
        assert_eq!(silent, 0, "huge slack must silence the numeric side");
    }

    #[test]
    fn dbm_warns_at_least_as_often_as_box() {
        let (mut net, xs, ys) = trained();
        let boxm = MonitorBuilder::new(1, 0).build_refined::<ExactZone>(
            &mut net,
            &xs,
            &ys,
            2,
            NumericDomain::Box,
        );
        let dbmm = MonitorBuilder::new(1, 0).build_refined::<ExactZone>(
            &mut net,
            &xs,
            &ys,
            2,
            NumericDomain::Dbm,
        );
        let probes: Vec<Tensor> = (0..60)
            .map(|i| {
                let t = i as f32 * 0.29;
                Tensor::from_vec(vec![2], vec![2.0 * t.sin(), 2.0 * t.cos()])
            })
            .collect();
        for p in &probes {
            let b = boxm.check(&mut net, p);
            let d = dbmm.check(&mut net, p);
            if b.numeric == Verdict::OutOfPattern {
                assert_eq!(
                    d.numeric,
                    Verdict::OutOfPattern,
                    "dbm accepted what the box rejected"
                );
            }
            // And the violations are ordered (dbm at least as strict).
            if let (Some(bv), Some(dv)) = (b.violation, d.violation) {
                assert!(dv + 1e-4 >= bv, "dbm violation {dv} below box {bv}");
            }
        }
    }

    #[test]
    fn unmonitored_class_stays_unmonitored() {
        let (mut net, xs, ys) = trained();
        let refined = MonitorBuilder::new(1, 0)
            .with_classes(vec![0])
            .build_refined::<ExactZone>(&mut net, &xs, &ys, 2, NumericDomain::Dbm);
        let mut saw = false;
        for x in &xs {
            let rep = refined.check(&mut net, x);
            if rep.predicted == 1 {
                assert_eq!(rep.binary, Verdict::Unmonitored);
                assert_eq!(rep.numeric, Verdict::Unmonitored);
                assert_eq!(rep.combined, Verdict::Unmonitored);
                saw = true;
            }
        }
        assert!(saw, "class 1 never predicted");
    }

    #[test]
    #[should_panic(expected = "slack must be finite")]
    fn negative_slack_is_rejected() {
        let (mut net, xs, ys) = trained();
        let mut refined = MonitorBuilder::new(1, 0).build_refined::<ExactZone>(
            &mut net,
            &xs,
            &ys,
            2,
            NumericDomain::Box,
        );
        refined.set_slack(-1.0);
    }
}
