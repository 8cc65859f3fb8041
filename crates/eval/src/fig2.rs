//! Figure 2: the coarseness-of-abstraction spectrum.
//!
//! The paper's Figure 2 is conceptual: an abstraction `α1` barely larger
//! than the visited states generalises nothing (everything in operation is
//! "not visited"), while an over-coarse `α3` declares everything visited.
//! This experiment makes the spectrum quantitative: sweep γ from 0 until
//! the out-of-pattern rate hits (near) zero and report, at every step, the
//! out-of-pattern rate (specificity of the abstraction) and the warning
//! precision (usefulness of a warning), plus the γ that each selection
//! policy of Section III would choose.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use crate::trained::train_mnist;
use naps_core::{choose_gamma, BddZone, GammaPolicy, GammaSweep, MonitorBuilder};
use serde::{Deserialize, Serialize};

/// One point of the abstraction spectrum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpectrumPoint {
    /// Hamming budget.
    pub gamma: u32,
    /// Out-of-pattern rate on the validation set.
    pub out_of_pattern_rate: f64,
    /// Warning precision.
    pub warning_precision: f64,
    /// False-positive rate (correct-but-warned / correct).
    pub false_positive_rate: f64,
    /// Total patterns contained in class 0's zone (growth indicator).
    pub class0_zone_patterns: f64,
}

/// The `schema_version` [`run`] stamps on [`Fig2`].
pub const SCHEMA_VERSION: u32 = 1;

/// The Figure 2 result: the spectrum plus chosen γ values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Spectrum points for γ = 0.. until saturation.
    pub spectrum: Vec<SpectrumPoint>,
    /// γ chosen by the "monitor mostly silent" policy (≤ 2 % warnings).
    pub gamma_for_silence: Option<u32>,
    /// γ chosen by the "warnings mean errors" policy (≥ 30 % precision).
    pub gamma_for_precision: Option<u32>,
}

/// Runs the γ spectrum sweep on the MNIST-like network.
pub fn run(cfg: &RunConfig) -> Fig2 {
    println!("== Figure 2: finding the just-right abstraction ==");
    println!("[training network 1: MNIST-like]");
    let mut mnist = train_mnist(cfg);
    let mut monitor = MonitorBuilder::new(mnist.monitor_layer, 0).build::<BddZone>(
        &mut mnist.model,
        &mnist.train.samples,
        &mnist.train.labels,
        10,
    );
    let max_gamma = if cfg.full { 10 } else { 6 };
    // Manual sweep so the zone size can be captured at each γ (GammaSweep
    // would only expose the final, fully dilated zone).
    let mut sweep = Vec::new();
    let mut spectrum = Vec::new();
    for gamma in 0..=max_gamma {
        let step = GammaSweep::up_to(gamma).run(
            &mut monitor,
            &mut mnist.model,
            &mnist.val.samples,
            &mnist.val.labels,
        );
        let g = *step.last().expect("one step per gamma");
        spectrum.push(SpectrumPoint {
            gamma: g.gamma,
            out_of_pattern_rate: g.stats.out_of_pattern_rate(),
            warning_precision: g.stats.warning_precision(),
            false_positive_rate: g.stats.false_positive_rate(),
            class0_zone_patterns: monitor.zone(0).map(|z| z.pattern_count()).unwrap_or(0.0),
        });
        sweep.push(g);
    }
    let gamma_for_silence = choose_gamma(&sweep, GammaPolicy::MaxOutOfPatternRate(0.02));
    let gamma_for_precision = choose_gamma(&sweep, GammaPolicy::MinWarningPrecision(0.30));

    rule(64);
    println!(
        "{:>3} {:>16} {:>16} {:>16}",
        "γ", "out-of-pattern", "precision", "false-positive"
    );
    rule(64);
    for p in &spectrum {
        println!(
            "{:>3} {:>16} {:>16} {:>16}",
            p.gamma,
            pct(p.out_of_pattern_rate),
            pct(p.warning_precision),
            pct(p.false_positive_rate)
        );
    }
    rule(64);
    println!(
        "γ for near-silence (≤2% warnings): {:?}; γ for ≥30% precision: {:?}",
        gamma_for_silence, gamma_for_precision
    );
    println!("(small γ = α1-like, no generalization; large γ = α3-like, over-generalization)");

    let fig = Fig2 {
        schema_version: SCHEMA_VERSION,
        spectrum,
        gamma_for_silence,
        gamma_for_precision,
    };
    write_json(&cfg.out_dir, "fig2", &fig);
    fig
}
