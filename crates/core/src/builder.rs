//! Monitor construction — Algorithm 1 of the paper.

use crate::batch::ObservationPlan;
use crate::monitor::Monitor;
use crate::selection::NeuronSelection;
use crate::zone::Zone;
use naps_nn::Sequential;
use naps_tensor::Tensor;

/// Builds a [`Monitor`] from a trained network and its training set,
/// following Algorithm 1:
///
/// 1. initialise one empty zone per monitored class (lines 1–3);
/// 2. for every training input whose prediction matches its ground-truth
///    label, record the activation pattern of the monitored layer into the
///    class's zone (lines 4–8);
/// 3. enlarge every zone to Hamming radius γ (lines 9–14, which state it
///    as γ rounds of existential quantification; [`Zone::enlarge_to`]
///    builds the same set).
///
/// # Example
///
/// ```
/// use naps_core::{ExactZone, MonitorBuilder};
/// use naps_nn::mlp;
/// use naps_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = mlp(&[2, 6, 2], &mut rng);
/// let xs = vec![Tensor::from_vec(vec![2], vec![1.0, 1.0])];
/// let ys = vec![0];
/// let monitor = MonitorBuilder::new(1, 1).build::<ExactZone>(&mut net, &xs, &ys, 2);
/// assert_eq!(monitor.gamma(), 1);
/// assert_eq!(monitor.num_classes(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MonitorBuilder {
    layer: usize,
    gamma: u32,
    selection: Option<NeuronSelection>,
    classes: Option<Vec<usize>>,
}

impl MonitorBuilder {
    /// A builder monitoring the output of `layer` with Hamming budget
    /// `gamma`, watching all neurons and all classes.
    pub fn new(layer: usize, gamma: u32) -> Self {
        MonitorBuilder {
            layer,
            gamma,
            selection: None,
            classes: None,
        }
    }

    /// Restricts monitoring to a neuron subset (gradient selection,
    /// Section II).
    pub fn with_selection(mut self, selection: NeuronSelection) -> Self {
        self.selection = Some(selection);
        self
    }

    /// Restricts monitoring to the given classes (e.g. only the stop sign,
    /// `c = 14`, in the paper's GTSRB experiment).
    pub fn with_classes(mut self, classes: Vec<usize>) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Runs Algorithm 1: replays `(samples, labels)` through `model` and
    /// assembles the per-class comfort zones.
    ///
    /// The replay is one [`Sequential::observe_rows`] pass: one prepared
    /// forward pass per 64 training inputs, each split across the host's
    /// cores when the model's forward work pays for it; the zones see
    /// the inputs in training-set order either way, so the monitor does
    /// not depend on the thread count.  The monitored layer's width
    /// is read off the first replayed input; if no [`NeuronSelection`]
    /// was supplied, all of its neurons are monitored.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != labels.len()`, the training set is
    /// empty, a label is `>= num_classes`, the monitored layer index is
    /// out of range, or `model` holds a layer from outside `naps-nn`
    /// ([`Sequential::observe_rows`]).
    pub fn build<Z: Zone>(
        &self,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
        num_classes: usize,
    ) -> Monitor<Z> {
        self.replay(model, samples, labels, num_classes, |_| (), |_, _, _| {})
            .0
    }

    /// Algorithm 1 over one replay of the training set, shared by
    /// [`MonitorBuilder::build`] and [`MonitorBuilder::build_refined`].
    ///
    /// One [`Sequential::observe_rows`] pass observes only the monitored
    /// layer, on as many threads as it picks; `record` and the zones run
    /// on the calling thread, in training-set order.  The first replayed
    /// input shows the layer's width.  Every
    /// monitored class gets an empty zone and an extra recorder from
    /// `empty`.  Each correctly classified input's pattern goes into its
    /// class's zone, and its full monitored row, in training-set order,
    /// to that class's recorder through `record`.  Returns the enlarged
    /// monitor and the per-class recorders (`None` for unmonitored
    /// classes).
    ///
    /// # Panics
    ///
    /// As [`MonitorBuilder::build`], or if a supplied selection's layer
    /// width differs from the monitored layer's.
    pub(crate) fn replay<Z: Zone, R>(
        &self,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
        num_classes: usize,
        empty: impl Fn(&NeuronSelection) -> R,
        mut record: impl FnMut(&mut R, &NeuronSelection, &[f32]),
    ) -> (Monitor<Z>, Vec<Option<R>>) {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        assert!(!samples.is_empty(), "empty training set");
        assert!(self.layer < model.len(), "monitored layer out of range");

        let plan = ObservationPlan::single(self.layer);
        let monitored_class =
            |c: usize| -> bool { self.classes.as_ref().is_none_or(|cs| cs.contains(&c)) };
        let mut recorded = None;
        model.observe_rows(samples, &plan, |i, p, row| {
            let monitored = row.layer(0);
            // Lines 1-3: empty zones for monitored classes.
            let (selection, classes) = recorded.get_or_insert_with(|| {
                let layer_width = monitored.len();
                let selection = self
                    .selection
                    .clone()
                    .unwrap_or_else(|| NeuronSelection::all(layer_width));
                assert_eq!(
                    selection.layer_width(),
                    layer_width,
                    "selection layer width does not match monitored layer"
                );
                let classes = (0..num_classes)
                    .map(|c| {
                        monitored_class(c).then(|| (Z::empty(selection.len()), empty(&selection)))
                    })
                    .collect::<Vec<_>>();
                (selection, classes)
            });
            // Lines 4-8: record visited patterns of correctly classified
            // training inputs.
            let label = labels[i];
            assert!(
                label < num_classes,
                "label {label} out of range for {num_classes} classes"
            );
            if p == label {
                if let Some((zone, recorder)) = classes[label].as_mut() {
                    zone.insert(&selection.pattern_from(monitored));
                    record(recorder, selection, monitored);
                }
            }
        });
        // naps-lint: allow(typed_errors, "the training set was asserted non-empty, so the first replayed input initialised the zones")
        let (selection, classes) = recorded.expect("at least one replayed input");
        let (mut zones, recorders): (Vec<Option<Z>>, _) =
            classes.into_iter().map(Option::unzip).unzip();

        // Lines 9-14: enlarge every zone to the radius-gamma Hamming ball.
        for z in zones.iter_mut().flatten() {
            z.enlarge_to(self.gamma);
        }
        let monitor = Monitor::from_zones(zones, self.layer, selection, self.gamma);
        (monitor, recorders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ActivationMonitor;
    use crate::monitor::Verdict;
    use crate::zone::{BddZone, ExactZone};
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_three_class() -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = mlp(&[2, 10, 3], &mut rng);
        let centers = [(2.0f32, 0.0f32), (-2.0, 0.0), (0.0, 2.5)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..25 {
                let a = k as f32 * 0.25;
                xs.push(Tensor::from_vec(
                    vec![2],
                    vec![cx + 0.25 * a.sin(), cy + 0.25 * a.cos()],
                ));
                ys.push(c);
            }
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 16,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.03), &mut rng);
        (net, xs, ys)
    }

    #[test]
    fn algorithm1_soundness_over_training_set() {
        let (mut net, xs, ys) = trained_three_class();
        let monitor = MonitorBuilder::new(1, 0).build::<BddZone>(&mut net, &xs, &ys, 3);
        for (x, &y) in xs.iter().zip(&ys) {
            let rep = monitor.check(&mut net, x);
            if rep.predicted == y {
                assert_eq!(
                    rep.verdict,
                    Verdict::InPattern,
                    "correctly classified training input flagged"
                );
            }
        }
    }

    #[test]
    fn backends_build_equivalent_monitors() {
        let (mut net, xs, ys) = trained_three_class();
        let b = MonitorBuilder::new(1, 1);
        let m_bdd = b.build::<BddZone>(&mut net, &xs, &ys, 3);
        let m_exact = b.build::<ExactZone>(&mut net, &xs, &ys, 3);
        for x in xs.iter() {
            let ra = m_bdd.check(&mut net, x);
            let rb = m_exact.check(&mut net, x);
            assert_eq!(ra.predicted, rb.predicted);
            assert_eq!(ra.verdict, rb.verdict);
            assert_eq!(ra.distance_to_seeds, rb.distance_to_seeds);
        }
    }

    #[test]
    fn class_restriction_leaves_other_classes_unmonitored() {
        let (mut net, xs, ys) = trained_three_class();
        let monitor = MonitorBuilder::new(1, 0)
            .with_classes(vec![1])
            .build::<ExactZone>(&mut net, &xs, &ys, 3);
        assert_eq!(monitor.monitored_classes(), vec![1]);
        let mut saw = [false; 3];
        for x in &xs {
            let rep = monitor.check(&mut net, x);
            saw[rep.predicted] = true;
            if rep.predicted != 1 {
                assert_eq!(rep.verdict, Verdict::Unmonitored);
            }
        }
        assert!(saw[1]);
    }

    #[test]
    fn misclassified_training_inputs_are_not_recorded() {
        // Craft a "network" that always predicts class 0: an identity-free
        // single Dense with fixed weights.
        use naps_nn::{Dense, Relu};
        let w1 = naps_tensor::Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let hidden = Dense::from_parts(w1, naps_tensor::Tensor::zeros(vec![2]));
        let w2 = naps_tensor::Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 1.0, 0.0]);
        let out = Dense::from_parts(w2, naps_tensor::Tensor::zeros(vec![2]));
        let mut net = Sequential::new(vec![Box::new(hidden), Box::new(Relu::new()), Box::new(out)]);
        let xs = vec![
            Tensor::from_vec(vec![1], vec![1.0]),
            Tensor::from_vec(vec![1], vec![2.0]),
        ];
        let ys = vec![0usize, 1]; // second sample will be misclassified as 0
        let monitor = MonitorBuilder::new(1, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
        assert_eq!(monitor.zone(0).expect("zone").seed_count(), 1);
        assert_eq!(monitor.zone(1).expect("zone").seed_count(), 0);
    }

    #[test]
    fn build_replays_the_training_set_in_one_pass_per_64_inputs() {
        use crate::refined::NumericDomain;
        let (mut net, xs, ys) = trained_three_class();
        for n in [1usize, 63, 64, 65, 75] {
            let passes = n.div_ceil(64) as u64;
            net.reset_forward_passes();
            let _ = MonitorBuilder::new(1, 1).build::<ExactZone>(&mut net, &xs[..n], &ys[..n], 3);
            assert_eq!(net.forward_passes(), passes, "build over {n} inputs");
            net.reset_forward_passes();
            let _ = MonitorBuilder::new(1, 1).build_refined::<ExactZone>(
                &mut net,
                &xs[..n],
                &ys[..n],
                3,
                NumericDomain::Dbm,
            );
            assert_eq!(
                net.forward_passes(),
                passes,
                "build_refined over {n} inputs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "monitored layer out of range")]
    fn bad_layer_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&[2, 4, 2], &mut rng);
        let xs = vec![Tensor::zeros(vec![2])];
        let _ = MonitorBuilder::new(9, 0).build::<ExactZone>(&mut net, &xs, &[0], 2);
    }
}
