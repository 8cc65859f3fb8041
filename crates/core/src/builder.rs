//! Monitor construction — Algorithm 1 of the paper.

use crate::batch::{forward_observe_plan, ObservationPlan, ObservedBatch};
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
    batch_size: usize,
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
            batch_size: 64,
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

    /// Batch size used when replaying the training set.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Runs Algorithm 1: replays `(samples, labels)` through `model` and
    /// assembles the per-class comfort zones.
    ///
    /// The monitored layer's width is discovered from the first forward
    /// pass; if no [`NeuronSelection`] was supplied, all of its neurons are
    /// monitored.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != labels.len()`, the training set is
    /// empty, a label is `>= num_classes`, or the monitored layer index is
    /// out of range.
    pub fn build<Z: Zone>(
        &self,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
        num_classes: usize,
    ) -> Monitor<Z> {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        assert!(!samples.is_empty(), "empty training set");
        assert!(self.layer < model.len(), "monitored layer out of range");

        // Discover the monitored layer width from a first forward pass.
        let plan = ObservationPlan::single(self.layer);
        let first = Tensor::from_vec(vec![1, samples[0].len()], samples[0].data().to_vec());
        let (first_obs, _) = model.forward_observe_plan(&first, &plan, false);
        let layer_width = first_obs[0].shape()[1];
        let selection = self
            .selection
            .clone()
            .unwrap_or_else(|| NeuronSelection::all(layer_width));
        assert_eq!(
            selection.layer_width(),
            layer_width,
            "selection layer width does not match monitored layer"
        );

        let monitored_class =
            |c: usize| -> bool { self.classes.as_ref().is_none_or(|cs| cs.contains(&c)) };

        // Lines 1-3: empty zones for monitored classes.
        let mut zones: Vec<Option<Z>> = (0..num_classes)
            .map(|c| monitored_class(c).then(|| Z::empty(selection.len())))
            .collect();

        // Lines 4-8: record visited patterns of correctly classified
        // training inputs.
        let indices: Vec<usize> = (0..samples.len()).collect();
        for chunk in indices.chunks(self.batch_size) {
            let feat = samples[chunk[0]].len();
            let mut data = Vec::with_capacity(chunk.len() * feat);
            for &i in chunk {
                data.extend_from_slice(samples[i].data());
            }
            let batch = Tensor::from_vec(vec![chunk.len(), feat], data);
            let ObservedBatch {
                predicted,
                observed,
            } = forward_observe_plan(model, &batch, &plan);
            let monitored = &observed[0];
            for (r, &i) in chunk.iter().enumerate() {
                let label = labels[i];
                assert!(
                    label < num_classes,
                    "label {label} out of range for {num_classes} classes"
                );
                if predicted[r] == label {
                    if let Some(zone) = zones[label].as_mut() {
                        zone.insert(&selection.pattern_from(monitored.row(r)));
                    }
                }
            }
        }

        // Lines 9-14: enlarge every zone to the radius-gamma Hamming ball.
        for z in zones.iter_mut().flatten() {
            z.enlarge_to(self.gamma);
        }
        Monitor::from_zones(zones, self.layer, selection, self.gamma)
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
    fn batch_size_does_not_change_result() {
        let (mut net, xs, ys) = trained_three_class();
        let m1 = MonitorBuilder::new(1, 1)
            .with_batch_size(1)
            .build::<ExactZone>(&mut net, &xs, &ys, 3);
        let m64 = MonitorBuilder::new(1, 1)
            .with_batch_size(64)
            .build::<ExactZone>(&mut net, &xs, &ys, 3);
        for c in 0..3 {
            assert_eq!(
                m1.zone(c).map(|z| z.seed_count()),
                m64.zone(c).map(|z| z.seed_count())
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
