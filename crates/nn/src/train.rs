//! Mini-batch training loop.

use crate::loss::{accuracy, softmax_cross_entropy};
use crate::observe::pack_rows_into;
use crate::optim::Optimizer;
use crate::sequential::Sequential;
use naps_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters for [`Trainer::fit`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Print a line per epoch when `true`.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            verbose: false,
        }
    }
}

/// Per-epoch outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f64,
}

/// Drives mini-batch gradient descent on a [`Sequential`] model.
///
/// Samples are flat feature vectors (`&[Tensor]`, each 1-D) with one label
/// each; the trainer assembles shuffled `[batch, features]` tensors.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// A trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Stacks `samples[indices]` into a `[n, features]` batch tensor,
    /// through the packer that observation uses too.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or samples have inconsistent lengths.
    pub fn make_batch(samples: &[Tensor], indices: &[usize]) -> Tensor {
        let mut batch = Tensor::default();
        pack_rows_into(indices.iter().map(|&i| &samples[i]), &mut batch);
        batch
    }

    /// Trains `model` on `(samples, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != labels.len()` or the training set is
    /// empty.
    pub fn fit(
        &self,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
        rng: &mut impl Rng,
    ) -> TrainReport {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        assert!(!samples.is_empty(), "empty training set");
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            order.shuffle(rng);
            let mut total_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let x = Self::make_batch(samples, chunk);
                let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let logits = model.forward(&x, true);
                let (loss, grad) = softmax_cross_entropy(&logits, &y);
                model.zero_grad();
                model.backward(&grad);
                optimizer.step(&mut model.params_mut());
                total_loss += loss;
                batches += 1;
            }
            let mean_loss = total_loss / batches as f32;
            if self.config.verbose {
                println!("epoch {:>3}: loss {mean_loss:.4}", epoch + 1);
            }
            epoch_losses.push(mean_loss);
        }
        let final_train_accuracy = self.evaluate(model, samples, labels);
        TrainReport {
            epoch_losses,
            final_train_accuracy,
        }
    }

    /// Classification accuracy of `model` on `(samples, labels)`, evaluated
    /// in inference mode in batches.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != labels.len()`.
    pub fn evaluate(&self, model: &mut Sequential, samples: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        if samples.is_empty() {
            return 0.0;
        }
        let mut correct = 0.0f64;
        let mut seen = 0usize;
        let idx: Vec<usize> = (0..samples.len()).collect();
        for chunk in idx.chunks(self.config.batch_size.max(1)) {
            let x = Self::make_batch(samples, chunk);
            let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let logits = model.forward(&x, false);
            correct += accuracy(&logits, &y) * chunk.len() as f64;
            seen += chunk.len();
        }
        correct / seen as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::optim::{Adam, Sgd};
    use crate::relu::Relu;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n_per_class: usize, rng: &mut StdRng) -> (Vec<Tensor>, Vec<usize>) {
        use naps_tensor::Randn;
        let centers = [(2.0f32, 2.0f32), (-2.0, -2.0), (2.0, -2.0)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let x = cx + 0.3 * rng.randn();
                let y = cy + 0.3 * rng.randn();
                xs.push(Tensor::from_vec(vec![2], vec![x, y]));
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn fit_reaches_high_accuracy_on_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let (xs, ys) = blobs(30, &mut rng);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 16,
            verbose: false,
        });
        let mut opt = Adam::new(0.01);
        let report = trainer.fit(&mut net, &xs, &ys, &mut opt, &mut rng);
        assert!(
            report.final_train_accuracy > 0.95,
            "accuracy {}",
            report.final_train_accuracy
        );
        // Loss should broadly decrease.
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn make_batch_stacks_rows() {
        let samples = vec![
            Tensor::from_vec(vec![2], vec![1., 2.]),
            Tensor::from_vec(vec![2], vec![3., 4.]),
        ];
        let b = Trainer::make_batch(&samples, &[1, 0]);
        assert_eq!(b.shape(), &[2, 2]);
        assert_eq!(b.data(), &[3., 4., 1., 2.]);
    }

    #[test]
    fn evaluate_on_perfectly_learned_data() {
        let mut rng = StdRng::seed_from_u64(7);
        let (xs, ys) = blobs(10, &mut rng);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 8,
            verbose: false,
        });
        let mut opt = Adam::new(0.01);
        let _ = trainer.fit(&mut net, &xs, &ys, &mut opt, &mut rng);
        let acc = trainer.evaluate(&mut net, &xs, &ys);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn fit_records_one_loss_per_epoch() {
        let mut rng = StdRng::seed_from_u64(9);
        let (xs, ys) = blobs(5, &mut rng);
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 3, &mut rng))]);
        let trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 8,
            verbose: false,
        });
        let mut opt = Sgd::new(0.01, 0.9);
        let report = trainer.fit(&mut net, &xs, &ys, &mut opt, &mut rng);
        assert_eq!(report.epoch_losses.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one label per sample")]
    fn mismatched_labels_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, &mut rng))]);
        let trainer = Trainer::new(TrainConfig::default());
        let mut opt = Adam::new(0.01);
        let xs = vec![Tensor::zeros(vec![2])];
        let _ = trainer.fit(&mut net, &xs, &[], &mut opt, &mut rng);
    }
}
