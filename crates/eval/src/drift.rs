//! Drift-detection experiment: how quickly does the out-of-pattern rate
//! surface a distribution shift?
//!
//! The paper's introduction positions the monitor as a shift indicator
//! for the development team ("may indicate that a neural network deployed
//! on an autonomous vehicle needs to be updated") without quantifying it.
//! This experiment does: the network-1 monitor's verdicts feed a
//! [`naps_core::DriftDetector`] calibrated on the clean validation
//! stream, and a deployment stream switches to corrupted inputs of
//! increasing severity.  Reported per severity: the shifted
//! out-of-pattern rate, whether the detector fired, and the **detection
//! latency** (monitored observations between the switch and the alarm).
//! A pure-clean control row checks the false-alarm behaviour.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use crate::trained::train_mnist;
use naps_core::ActivationMonitor;
use naps_core::{
    BddZone, DriftConfig, DriftDetector, DriftStatus, Monitor, MonitorBuilder, Verdict,
};
use naps_data::corrupt::{shift_dataset, Corruption};
use naps_nn::Sequential;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One deployment condition's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftRow {
    /// Condition label (`clean control`, `noise σ=0.2`, …).
    pub condition: String,
    /// Out-of-pattern rate of the condition's stream.
    pub out_of_pattern_rate: f64,
    /// Whether the detector reached [`DriftStatus::Drifting`].
    pub detected: bool,
    /// Monitored observations from the switch until the alarm
    /// (`None` when no alarm fired).
    pub detection_latency: Option<usize>,
}

/// The `schema_version` [`run`] stamps on [`Drift`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full drift experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Drift {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Baseline (clean validation) out-of-pattern rate the detector was
    /// calibrated with.
    pub baseline_rate: f64,
    /// Alarm threshold derived from the baseline.
    pub alarm_rate: f64,
    /// Per-condition rows.
    pub rows: Vec<DriftRow>,
}

fn verdict_stream(
    monitor: &Monitor<BddZone>,
    net: &mut Sequential,
    samples: &[naps_tensor::Tensor],
    shuffle_seed: u64,
) -> Vec<Verdict> {
    let mut verdicts: Vec<Verdict> = monitor
        .check_batch(net, samples)
        .into_iter()
        .map(|r| r.verdict)
        .collect();
    // Datasets are generated class by class; deployment streams are
    // i.i.d., so shuffle.
    verdicts.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
    verdicts
}

fn oop_rate(verdicts: &[Verdict]) -> f64 {
    let monitored = verdicts
        .iter()
        .filter(|v| **v != Verdict::Unmonitored)
        .count();
    if monitored == 0 {
        return 0.0;
    }
    verdicts
        .iter()
        .filter(|v| **v == Verdict::OutOfPattern)
        .count() as f64
        / monitored as f64
}

/// Runs one deployment: `warm` clean epochs, then shifted epochs, and
/// reports the detection latency relative to the switch.
fn deploy(config: &DriftConfig, clean: &[Verdict], shifted: &[Verdict]) -> (bool, Option<usize>) {
    let mut det = DriftDetector::new(config.clone());
    for _ in 0..3 {
        for v in clean {
            det.observe(*v);
        }
    }
    let mut latency = None;
    let mut step = 0usize;
    for _ in 0..3 {
        for v in shifted {
            det.observe(*v);
            step += 1;
            if det.status() == DriftStatus::Drifting && latency.is_none() {
                latency = Some(step);
            }
        }
    }
    (latency.is_some(), latency)
}

/// Runs the drift experiment and prints/persists the table.
pub fn run(cfg: &RunConfig) -> Drift {
    println!("== Drift detection: out-of-pattern rate as a shift indicator ==");
    let mut trained = train_mnist(cfg);
    let monitor = MonitorBuilder::new(trained.monitor_layer, 2).build::<BddZone>(
        &mut trained.model,
        &trained.train.samples.clone(),
        &trained.train.labels.clone(),
        10,
    );

    println!("[calibrating the detector on the clean validation stream]");
    let clean = verdict_stream(
        &monitor,
        &mut trained.model,
        &trained.val.samples.clone(),
        cfg.seed,
    );
    let baseline = oop_rate(&clean);
    // Alarm when the rate roughly doubles (with a 6-point floor so a
    // near-zero baseline does not alarm on single stragglers).
    let config = DriftConfig {
        baseline_rate: baseline.min(0.94),
        alarm_rate: (1.5 * baseline).max(baseline + 0.06).min(0.95),
        window: (clean.len() / 2).clamp(20, 200),
        ewma_alpha: 0.05,
        patience: 20,
    };

    println!("[deploying under increasingly corrupted streams]");
    let severities = [0.1f32, 0.25, 0.5, 0.8];
    let mut rows = Vec::new();

    // Control: a clean continuation must not alarm.
    let (detected, latency) = deploy(&config, &clean, &clean);
    rows.push(DriftRow {
        condition: "clean control".to_string(),
        out_of_pattern_rate: baseline,
        detected,
        detection_latency: latency,
    });

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(77));
    for (i, &sigma) in severities.iter().enumerate() {
        let noisy = shift_dataset(
            &trained.val,
            1,
            28,
            Corruption::GaussianNoise(sigma),
            &mut rng,
        );
        let shifted = verdict_stream(
            &monitor,
            &mut trained.model,
            &noisy.samples,
            cfg.seed.wrapping_add(i as u64 + 1),
        );
        let (detected, latency) = deploy(&config, &clean, &shifted);
        rows.push(DriftRow {
            condition: format!("noise σ={sigma}"),
            out_of_pattern_rate: oop_rate(&shifted),
            detected,
            detection_latency: latency,
        });
    }

    let result = Drift {
        schema_version: SCHEMA_VERSION,
        baseline_rate: baseline,
        alarm_rate: config.alarm_rate,
        rows,
    };
    print_table(&result);
    write_json(&cfg.out_dir, "drift", &result);
    result
}

fn print_table(result: &Drift) {
    rule(72);
    println!(
        "{:<16} {:>14} {:>10} {:>18}",
        "condition", "oop rate", "detected", "latency (obs)"
    );
    rule(72);
    for r in &result.rows {
        println!(
            "{:<16} {:>14} {:>10} {:>18}",
            r.condition,
            pct(r.out_of_pattern_rate),
            if r.detected { "yes" } else { "no" },
            r.detection_latency
                .map_or_else(|| "—".to_string(), |l| l.to_string()),
        );
    }
    rule(72);
    println!(
        "(baseline {} → alarm threshold {}; expected shape: harsher corruption \
         ⇒ higher rate ⇒ shorter latency, clean control silent)",
        pct(result.baseline_rate),
        pct(result.alarm_rate)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oop_rate_ignores_unmonitored() {
        let vs = [
            Verdict::OutOfPattern,
            Verdict::InPattern,
            Verdict::Unmonitored,
            Verdict::OutOfPattern,
        ];
        assert!((oop_rate(&vs) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(oop_rate(&[]), 0.0);
        assert_eq!(oop_rate(&[Verdict::Unmonitored]), 0.0);
    }

    #[test]
    fn deploy_detects_a_hot_stream_and_stays_quiet_on_a_cold_one() {
        let config = DriftConfig {
            baseline_rate: 0.02,
            alarm_rate: 0.3,
            window: 40,
            ewma_alpha: 0.1,
            patience: 10,
        };
        let clean: Vec<Verdict> = (0..100)
            .map(|i| {
                if i % 50 == 0 {
                    Verdict::OutOfPattern
                } else {
                    Verdict::InPattern
                }
            })
            .collect();
        let hot: Vec<Verdict> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    Verdict::OutOfPattern
                } else {
                    Verdict::InPattern
                }
            })
            .collect();
        let (detected, latency) = deploy(&config, &clean, &hot);
        assert!(detected);
        assert!(latency.expect("latency") > 0);
        let (quiet, none) = deploy(&config, &clean, &clean);
        assert!(!quiet);
        assert_eq!(none, None);
    }

    #[test]
    fn hotter_streams_are_detected_faster() {
        let config = DriftConfig {
            baseline_rate: 0.02,
            alarm_rate: 0.25,
            window: 40,
            ewma_alpha: 0.1,
            patience: 10,
        };
        let clean = vec![Verdict::InPattern; 100];
        let stream = |period: usize| -> Vec<Verdict> {
            (0..200)
                .map(|i| {
                    if i % period == 0 {
                        Verdict::OutOfPattern
                    } else {
                        Verdict::InPattern
                    }
                })
                .collect()
        };
        let (_, warm) = deploy(&config, &clean, &stream(3)); // ~33%
        let (_, hot) = deploy(&config, &clean, &stream(1)); // 100%
        let (warm, hot) = (warm.expect("warm"), hot.expect("hot"));
        assert!(hot <= warm, "hotter stream slower: {hot} > {warm}");
    }
}
