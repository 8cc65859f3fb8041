//! Controlling the coarseness of abstraction (Section III, Figure 2).
//!
//! An abstraction that admits only the literally visited patterns warns on
//! nearly everything (`α1`, no generalization); one that admits the whole
//! pattern space never warns (`α3`, over-generalization).  The paper's
//! recipe: on a validation set with the deployment distribution, gradually
//! increase γ and keep the largest abstraction for which an out-of-pattern
//! event still likely coincides with a misclassification.

use crate::activation::ActivationMonitor;
use crate::monitor::Monitor;
use crate::stats::{evaluate_with_mode, EvalMode, MonitorStats};
use crate::zone::Zone;
use naps_nn::Sequential;
use naps_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Statistics of one γ value in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaStats {
    /// The Hamming budget.
    pub gamma: u32,
    /// Validation statistics of the monitor at this γ.
    pub stats: MonitorStats,
}

/// Sweeps γ from the monitor's current value up to `max_gamma`
/// (inclusive), evaluating on a validation set at every step.
///
/// Enlargement is incremental (zones only grow), so the sweep costs one
/// dilation plus one evaluation pass per γ — this is how Table II's rows
/// and Figure 2's spectrum are produced.
#[derive(Debug, Clone)]
pub struct GammaSweep {
    /// Largest γ to evaluate.
    pub max_gamma: u32,
    /// Which zone each validation sample is checked against (see
    /// [`EvalMode`]).
    pub mode: EvalMode,
}

impl Default for GammaSweep {
    fn default() -> Self {
        GammaSweep {
            max_gamma: 3,
            mode: EvalMode::ByPrediction,
        }
    }
}

impl GammaSweep {
    /// A sweep up to `max_gamma`.
    pub fn up_to(max_gamma: u32) -> Self {
        GammaSweep {
            max_gamma,
            ..Default::default()
        }
    }

    /// Selects the evaluation mode (e.g. [`EvalMode::ByLabel`] for the
    /// paper's single-class GTSRB setting).
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the sweep, mutating `monitor` (its γ ends at `max_gamma`).
    ///
    /// # Panics
    ///
    /// Panics if the monitor's current γ exceeds `max_gamma`, or on
    /// sample/label length mismatch.
    pub fn run<Z: Zone>(
        &self,
        monitor: &mut Monitor<Z>,
        model: &mut Sequential,
        samples: &[Tensor],
        labels: &[usize],
    ) -> Vec<GammaStats> {
        assert!(
            monitor.gamma() <= self.max_gamma,
            "monitor gamma {} already exceeds sweep max {}",
            monitor.gamma(),
            self.max_gamma
        );
        let mut out = Vec::new();
        for gamma in monitor.gamma()..=self.max_gamma {
            monitor.enlarge_to(gamma);
            let stats = evaluate_with_mode(monitor, model, samples, labels, self.mode);
            out.push(GammaStats { gamma, stats });
        }
        out
    }
}

/// How to pick γ from a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaPolicy {
    /// Smallest γ whose out-of-pattern rate does not exceed the bound —
    /// "the monitor should be largely silent in distribution".
    MaxOutOfPatternRate(f64),
    /// Smallest γ whose warning precision (misclassified-within-warned)
    /// reaches the bound while warnings still occur — "whenever it
    /// signals, misclassification is likely".
    MinWarningPrecision(f64),
    /// Smallest γ whose false-positive rate (correct-but-warned over
    /// correct) is below the bound.
    MaxFalsePositiveRate(f64),
}

/// Applies a [`GammaPolicy`] to sweep results, returning the chosen γ, or
/// `None` when no γ satisfies the policy.
pub fn choose_gamma(sweep: &[GammaStats], policy: GammaPolicy) -> Option<u32> {
    sweep
        .iter()
        .find(|g| match policy {
            GammaPolicy::MaxOutOfPatternRate(bound) => g.stats.out_of_pattern_rate() <= bound,
            GammaPolicy::MinWarningPrecision(bound) => {
                g.stats.out_of_pattern > 0 && g.stats.warning_precision() >= bound
            }
            GammaPolicy::MaxFalsePositiveRate(bound) => g.stats.false_positive_rate() <= bound,
        })
        .map(|g| g.gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorBuilder;
    use crate::zone::BddZone;
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use naps_tensor::{Randn, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_problem(n: usize, noise: f32, rng: &mut StdRng) -> (Vec<Tensor>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let s = if c == 0 { 1.0f32 } else { -1.0 };
            xs.push(Tensor::from_vec(
                vec![4],
                (0..4).map(|_| s + noise * rng.randn()).collect(),
            ));
            ys.push(c);
        }
        (xs, ys)
    }

    fn sweep_fixture() -> Vec<GammaStats> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = mlp(&[4, 12, 2], &mut rng);
        let (xs, ys) = noisy_problem(80, 0.3, &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 16,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.03), &mut rng);
        let mut monitor = MonitorBuilder::new(1, 0).build::<BddZone>(&mut net, &xs, &ys, 2);
        let (vx, vy) = noisy_problem(60, 0.6, &mut rng);
        GammaSweep::up_to(4).run(&mut monitor, &mut net, &vx, &vy)
    }

    #[test]
    fn sweep_covers_requested_gammas() {
        let sweep = sweep_fixture();
        let gammas: Vec<u32> = sweep.iter().map(|g| g.gamma).collect();
        assert_eq!(gammas, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn out_of_pattern_rate_is_monotone_decreasing_in_gamma() {
        // Figure 2: larger abstraction -> fewer out-of-pattern events.
        let sweep = sweep_fixture();
        for w in sweep.windows(2) {
            assert!(
                w[1].stats.out_of_pattern <= w[0].stats.out_of_pattern,
                "gamma {} -> {}: warnings grew",
                w[0].gamma,
                w[1].gamma
            );
        }
    }

    #[test]
    fn policies_pick_first_satisfying_gamma() {
        let mk = |gamma, total, mis, oop, oopmis| GammaStats {
            gamma,
            stats: MonitorStats {
                total,
                misclassified: mis,
                out_of_pattern: oop,
                out_of_pattern_and_misclassified: oopmis,
                unmonitored: 0,
            },
        };
        let sweep = vec![
            mk(0, 100, 5, 40, 5), // rate .40, precision .125
            mk(1, 100, 5, 15, 4), // rate .15, precision .266
            mk(2, 100, 5, 6, 3),  // rate .06, precision .50
            mk(3, 100, 5, 2, 2),  // rate .02, precision 1.0
        ];
        assert_eq!(
            choose_gamma(&sweep, GammaPolicy::MaxOutOfPatternRate(0.10)),
            Some(2)
        );
        assert_eq!(
            choose_gamma(&sweep, GammaPolicy::MinWarningPrecision(0.5)),
            Some(2)
        );
        assert_eq!(
            choose_gamma(&sweep, GammaPolicy::MaxFalsePositiveRate(0.01)),
            Some(3)
        );
        assert_eq!(
            choose_gamma(&sweep, GammaPolicy::MaxOutOfPatternRate(0.001)),
            None
        );
    }

    #[test]
    fn precision_policy_requires_live_warnings() {
        // A fully saturated abstraction (0 warnings) must not be selected
        // by the precision policy even though 0/0 could read as vacuous.
        let sweep = vec![GammaStats {
            gamma: 5,
            stats: MonitorStats {
                total: 100,
                misclassified: 3,
                out_of_pattern: 0,
                out_of_pattern_and_misclassified: 0,
                unmonitored: 0,
            },
        }];
        assert_eq!(
            choose_gamma(&sweep, GammaPolicy::MinWarningPrecision(0.2)),
            None
        );
    }
}
