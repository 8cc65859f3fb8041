//! Evaluation statistics — the columns of the paper's Table II.

use crate::monitor::{Monitor, Verdict};
use crate::zone::Zone;
use naps_nn::Sequential;
use naps_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Counts and derived rates from running a monitor over a labelled set.
///
/// Only samples whose **predicted** class is monitored enter `total` —
/// that is the deployment-faithful reading of the paper's single-class
/// GTSRB experiment, where the monitor is consulted exactly when the
/// network claims to see the monitored class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Samples whose predicted class is monitored.
    pub total: usize,
    /// Of `total`: samples predicted differently from their label.
    pub misclassified: usize,
    /// Of `total`: samples whose pattern fell outside the comfort zone.
    pub out_of_pattern: usize,
    /// Of `out_of_pattern`: samples that were also misclassified.
    pub out_of_pattern_and_misclassified: usize,
    /// Samples skipped because their predicted class has no zone.
    pub unmonitored: usize,
}

impl MonitorStats {
    /// `misclassified / total` — the "misclassification rate" column.
    pub fn misclassification_rate(&self) -> f64 {
        ratio(self.misclassified, self.total)
    }

    /// `out_of_pattern / total` — the paper's
    /// `#out-of-pattern images / #total images` column.
    pub fn out_of_pattern_rate(&self) -> f64 {
        ratio(self.out_of_pattern, self.total)
    }

    /// `out_of_pattern_and_misclassified / out_of_pattern` — the paper's
    /// `#out-of-pattern misclassified images / #out-of-pattern images`
    /// column: how often a warning coincides with an actual error.
    pub fn warning_precision(&self) -> f64 {
        ratio(self.out_of_pattern_and_misclassified, self.out_of_pattern)
    }

    /// Correctly classified samples that still warned, over all correctly
    /// classified samples — the false-positive rate the abstract refers to
    /// ("a small false-positive rate").
    pub fn false_positive_rate(&self) -> f64 {
        let correct = self.total - self.misclassified;
        let fp = self.out_of_pattern - self.out_of_pattern_and_misclassified;
        ratio(fp, correct)
    }

    /// Misclassified samples caught by a warning, over all misclassified
    /// samples (recall of the warning signal).
    pub fn warning_recall(&self) -> f64 {
        ratio(self.out_of_pattern_and_misclassified, self.misclassified)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Which comfort zone a sample is checked against during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Deployment-faithful: check against the zone of the **predicted**
    /// class (the monitor of Figure 1b); samples whose prediction is
    /// unmonitored are skipped.
    #[default]
    ByPrediction,
    /// Class-conditioned: check against the zone of the **ground-truth**
    /// label — the paper's single-class GTSRB evaluation, where the
    /// stop-sign monitor is assessed on all stop-sign validation images
    /// (misclassified ones included); samples whose label is unmonitored
    /// are skipped.
    ByLabel,
}

/// Runs `monitor` over a labelled evaluation set and tallies Table II
/// statistics, checking each sample against the zone of its predicted
/// class ([`EvalMode::ByPrediction`]).
///
/// # Panics
///
/// Panics if `samples.len() != labels.len()` or `model` holds a layer
/// from outside `naps-nn` ([`Sequential::observe_rows`]).
pub fn evaluate<Z: Zone>(
    monitor: &Monitor<Z>,
    model: &mut Sequential,
    samples: &[Tensor],
    labels: &[usize],
) -> MonitorStats {
    evaluate_with_mode(monitor, model, samples, labels, EvalMode::ByPrediction)
}

/// Like [`evaluate`] but with an explicit [`EvalMode`].
///
/// # Panics
///
/// Panics if `samples.len() != labels.len()` or `model` holds a layer
/// from outside `naps-nn` ([`Sequential::observe_rows`]).
pub fn evaluate_with_mode<Z: Zone>(
    monitor: &Monitor<Z>,
    model: &mut Sequential,
    samples: &[Tensor],
    labels: &[usize],
    mode: EvalMode,
) -> MonitorStats {
    assert_eq!(samples.len(), labels.len(), "one label per sample");
    let mut stats = MonitorStats::default();
    let observed = monitor.observe_batch(model, samples);
    for ((predicted, pattern), &label) in observed.iter().zip(labels) {
        let zone_class = match mode {
            EvalMode::ByPrediction => *predicted,
            EvalMode::ByLabel => label,
        };
        match monitor.check_pattern(zone_class, pattern) {
            Verdict::Unmonitored => stats.unmonitored += 1,
            verdict => {
                stats.total += 1;
                let mis = *predicted != label;
                if mis {
                    stats.misclassified += 1;
                }
                if verdict == Verdict::OutOfPattern {
                    stats.out_of_pattern += 1;
                    if mis {
                        stats.out_of_pattern_and_misclassified += 1;
                    }
                }
            }
        }
    }
    stats
}

impl std::fmt::Display for MonitorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {} | miscls {:.2}% | out-of-pattern {:.2}% | precision {:.2}% | fpr {:.2}%",
            self.total,
            100.0 * self.misclassification_rate(),
            100.0 * self.out_of_pattern_rate(),
            100.0 * self.warning_precision(),
            100.0 * self.false_positive_rate(),
        )
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

    #[test]
    fn rates_compute_from_counts() {
        let s = MonitorStats {
            total: 200,
            misclassified: 10,
            out_of_pattern: 20,
            out_of_pattern_and_misclassified: 8,
            unmonitored: 5,
        };
        assert!((s.misclassification_rate() - 0.05).abs() < 1e-12);
        assert!((s.out_of_pattern_rate() - 0.10).abs() < 1e-12);
        assert!((s.warning_precision() - 0.40).abs() < 1e-12);
        assert!((s.false_positive_rate() - 12.0 / 190.0).abs() < 1e-12);
        assert!((s.warning_recall() - 0.80).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = MonitorStats::default();
        assert_eq!(s.misclassification_rate(), 0.0);
        assert_eq!(s.warning_precision(), 0.0);
    }

    #[test]
    fn evaluate_on_training_set_has_no_warnings_at_gamma0() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let s = if i % 2 == 0 { 1.5f32 } else { -1.5 };
            xs.push(Tensor::from_vec(
                vec![2],
                vec![s + 0.1 * (i as f32).sin(), s],
            ));
            ys.push(i % 2);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 8,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
        let monitor = MonitorBuilder::new(1, 0).build::<ExactZone>(&mut net, &xs, &ys, 2);
        let stats = evaluate(&monitor, &mut net, &xs, &ys);
        // Every correctly classified training sample is in pattern, so all
        // warnings (if any) coincide with misclassifications.
        assert_eq!(
            stats.out_of_pattern, stats.out_of_pattern_and_misclassified,
            "a correct training sample warned: {stats}"
        );
        assert_eq!(stats.total + stats.unmonitored, 30);
    }

    #[test]
    fn by_label_mode_counts_misclassified_monitored_samples() {
        // A single-class monitor evaluated by label keeps misclassified
        // samples of the monitored class in `total` (they are skipped as
        // Unmonitored in by-prediction mode when predicted elsewhere).
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let s = if i % 2 == 0 { 1.0f32 } else { -1.0 };
            xs.push(Tensor::from_vec(
                vec![2],
                vec![s, s + 0.05 * i as f32 % 0.3],
            ));
            ys.push(i % 2);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            batch_size: 8,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
        let monitor = MonitorBuilder::new(1, 0)
            .with_classes(vec![0])
            .build::<ExactZone>(&mut net, &xs, &ys, 2);
        let by_label =
            super::evaluate_with_mode(&monitor, &mut net, &xs, &ys, super::EvalMode::ByLabel);
        // All class-0 samples are monitored by label.
        assert_eq!(by_label.total, 20);
        assert_eq!(by_label.unmonitored, 20);
        let by_pred =
            super::evaluate_with_mode(&monitor, &mut net, &xs, &ys, super::EvalMode::ByPrediction);
        // In by-prediction mode the totals follow the predictions instead.
        assert_eq!(by_pred.total + by_pred.unmonitored, 40);
    }

    #[test]
    fn display_is_humane() {
        let s = MonitorStats {
            total: 4,
            misclassified: 1,
            out_of_pattern: 1,
            out_of_pattern_and_misclassified: 1,
            unmonitored: 0,
        };
        let line = s.to_string();
        assert!(line.contains("total 4"));
        assert!(line.contains('%'));
    }
}
