//! Multi-layer monitoring end to end: detection-vs-FPR across combine
//! policies, engine ≡ sequential layered equivalence, and the cost model
//! of adding monitored layers.
//!
//! The paper monitors one close-to-output ReLU layer and notes that any
//! ReLU layer qualifies.  This experiment monitors **three** (layers 5,
//! 3 and 1 of a four-block MLP — deepest first) and replays three
//! streams — clean validation digits, corrupted variants, genuine
//! novelties — through the layered monitor, measuring:
//!
//! * **policy tradeoff**: out-of-pattern rates per stream for `Any` /
//!   `All` / `Majority` versus the single-layer (deepest-layer)
//!   baseline — `Any` must detect at least as much corruption as the
//!   baseline (it folds a superset of evidence; the JSON records the
//!   margin), at a measured clean-stream FPR cost;
//! * **serving equivalence**: the layered `MonitorEngine` must return
//!   verdicts **bit-identical** to sequential
//!   [`LayeredMonitor::check_batch`] on every stream (hard gate);
//! * **marginal layer cost**: batched checks with 1, 2 and 3 monitored
//!   layers, with the model's own forward-pass counter proving each
//!   added layer costs zone lookups, **never** an extra forward pass,
//!   plus per-input timing deltas;
//! * **observation-plan footprint**: one packed pass through
//!   `forward_observe_plan` versus the allocate-everything
//!   `forward_all`.  The plan retains only the monitored layers and the
//!   logits (218 vs 1210 floats per input on this model); the two
//!   passes take about the same time, so the row records memory, not
//!   speed.
//!
//! The `layered` binary exits non-zero when serving diverges from
//! sequential layered checking, when the `Any` policy detects less
//! corruption than the single-layer baseline, or when any sweep ran
//! extra forward passes — so CI can gate on it.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use crate::streams::{corrupted_stream, novelty_stream, SHIFTS};
use naps_core::batch::{pack_batch, ObservationPlan};
use naps_core::{
    ActivationMonitor, BddZone, CombinePolicy, LayeredMonitor, LayeredReport, Monitor,
    MonitorBuilder, Verdict,
};
use naps_data::{digits, Dataset};
use naps_nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use naps_serve::{EngineConfig, MonitorEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// ReLU tap indices monitored by the layered family, deepest first (the
/// deepest is the paper's default single layer and the baseline).
const MONITORED_LAYERS: [usize; 3] = [5, 3, 1];

/// One monitored layer's description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerInfo {
    /// Model layer index.
    pub layer: usize,
    /// Monitored neuron count.
    pub width: usize,
}

/// Out-of-pattern rates of one verdict rule on the three streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRow {
    /// `"baseline (deepest layer)"`, `"Any"`, `"All"` or `"Majority"`.
    pub rule: String,
    /// Clean-stream warn rate — the false-positive-rate proxy.
    pub clean_rate: f64,
    /// Corrupted-stream warn rate — the detection measure.
    pub corrupted_rate: f64,
    /// Novelty-stream warn rate.
    pub novelty_rate: f64,
}

/// One row of the marginal-layer-cost sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarginalRow {
    /// Monitored layers in this configuration (1 = deepest only).
    pub num_layers: usize,
    /// Sequential batched check time per input, microseconds (best of
    /// two sweeps over the clean stream).
    pub per_input_us: f64,
    /// Whole-network forward passes the sweep executed, from
    /// [`Sequential::forward_passes`] — must be identical across rows.
    pub forward_passes: u64,
}

/// The marginal-cost experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarginalCost {
    /// Per-configuration rows, 1..=3 monitored layers.
    pub sweep: Vec<MarginalRow>,
    /// Largest per-input time delta between consecutive rows, µs.
    pub max_marginal_per_input_us: f64,
    /// Every sweep executed exactly the same number of forward passes
    /// (measured, not assumed): adding a monitored layer never added a
    /// forward pass.  The hard gate.
    pub no_extra_forward_pass: bool,
}

/// Observation plan vs `forward_all` on one packed pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservationWin {
    /// Time of `forward_observe_plan` (3-layer plan) over the packed
    /// clean stream, microseconds (best of three).
    pub plan_us: f64,
    /// Time of `forward_all` over the same batch, microseconds.
    pub forward_all_us: f64,
    /// `forward_all_us / plan_us`.
    pub speedup: f64,
    /// Floats retained per input by the plan path (monitored layers +
    /// logits).
    pub floats_retained_plan: usize,
    /// Floats retained per input by `forward_all` (every activation and
    /// the input copy).
    pub floats_retained_all: usize,
}

/// The `schema_version` [`run`] stamps on [`LayeredEval`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full layered-monitoring result (`results/layered.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayeredEval {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Hamming budget γ of every monitored layer.
    pub gamma: u32,
    /// The monitored layers, deepest (baseline) first.
    pub layers: Vec<LayerInfo>,
    /// Per-rule stream rates: baseline first, then the three policies.
    pub rows: Vec<PolicyRow>,
    /// `Any`-policy corrupted detection ≥ single-layer baseline (hard
    /// gate; `Any` folds a superset of the baseline's evidence).
    pub any_beats_baseline_on_corrupted: bool,
    /// Every engine verdict was bit-identical to sequential layered
    /// checking, on all streams (hard gate).
    pub engine_matches_sequential: bool,
    /// Forward passes the layered engine ran for the whole workload
    /// (micro-batches), for the marginal-cost record.
    pub engine_forward_passes: u64,
    /// The marginal-layer-cost sweep.
    pub marginal: MarginalCost,
    /// Observation-plan vs `forward_all` comparison.
    pub observation: ObservationWin,
}

/// Warn rate of `rule` over per-layer verdict vectors.
fn rate(reports: &[LayeredReport], rule: impl Fn(&LayeredReport) -> bool) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().filter(|r| rule(r)).count() as f64 / reports.len() as f64
}

fn build_monitor(
    model: &mut Sequential,
    train: &Dataset,
    layer: usize,
    gamma: u32,
) -> Monitor<BddZone> {
    let mut m = MonitorBuilder::new(layer, gamma).build::<BddZone>(
        model,
        &train.samples,
        &train.labels,
        10,
    );
    m.compact();
    m
}

/// Runs the layered-monitoring experiment and writes
/// `results/layered.json`.
pub fn run(cfg: &RunConfig) -> LayeredEval {
    println!("== Multi-layer monitoring: policies, serving, marginal cost ==");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let train = digits::generate(
        cfg.mnist_train_per_class(),
        digits::DigitStyle::clean(),
        &mut rng,
    );
    let val = digits::generate(
        cfg.mnist_val_per_class(),
        digits::DigitStyle::hard(),
        &mut rng,
    );
    let mut model = mlp(&[784, 96, 64, 48, 10], &mut rng);
    Trainer::new(TrainConfig {
        epochs: cfg.mnist_epochs(),
        batch_size: 32,
        verbose: false,
    })
    .fit(
        &mut model,
        &train.samples,
        &train.labels,
        &mut Adam::new(1.5e-3),
        &mut rng,
    );
    let gamma = 1;

    println!("[building one monitor per ReLU tap {MONITORED_LAYERS:?}]");
    let monitors: Vec<Monitor<BddZone>> = MONITORED_LAYERS
        .iter()
        .map(|&layer| build_monitor(&mut model, &train, layer, gamma))
        .collect();
    let layers: Vec<LayerInfo> = monitors
        .iter()
        .map(|m| LayerInfo {
            layer: m.layer(),
            width: m.selection().len(),
        })
        .collect();
    // One family under `Any`; every policy (and the baseline) is a fold
    // over the same per-layer verdicts, so one sequential sweep per
    // stream feeds every row.
    let layered = LayeredMonitor::new(monitors, CombinePolicy::Any);

    let corrupted = corrupted_stream(&val, &SHIFTS, cfg.seed.wrapping_add(31));
    let novel = novelty_stream(if cfg.full { 120 } else { 48 }, cfg.seed.wrapping_add(62));

    println!("[sequential layered sweeps over clean / corrupted / novelty]");
    let clean_reports = layered.check_batch(&mut model, &val.samples);
    let corrupt_reports = layered.check_batch(&mut model, &corrupted);
    let novel_reports = layered.check_batch(&mut model, &novel);

    let policy_rate = |reports: &[LayeredReport], policy: CombinePolicy| {
        rate(reports, |r| {
            policy.combine(&r.per_layer) == Verdict::OutOfPattern
        })
    };
    let baseline_rate =
        |reports: &[LayeredReport]| rate(reports, |r| r.per_layer[0] == Verdict::OutOfPattern);

    let mut rows = vec![PolicyRow {
        rule: "baseline (deepest layer)".to_string(),
        clean_rate: baseline_rate(&clean_reports),
        corrupted_rate: baseline_rate(&corrupt_reports),
        novelty_rate: baseline_rate(&novel_reports),
    }];
    for policy in [
        CombinePolicy::Any,
        CombinePolicy::All,
        CombinePolicy::Majority,
    ] {
        rows.push(PolicyRow {
            rule: format!("{policy:?}"),
            clean_rate: policy_rate(&clean_reports, policy),
            corrupted_rate: policy_rate(&corrupt_reports, policy),
            novelty_rate: policy_rate(&novel_reports, policy),
        });
    }
    let any_beats_baseline_on_corrupted = rows[1].corrupted_rate >= rows[0].corrupted_rate;

    // ---- Serving equivalence: engine ≡ sequential layered verdicts ----
    println!("[layered engine equivalence on all streams]");
    let engine = MonitorEngine::new_layered(
        &layered,
        &model,
        EngineConfig {
            workers: 2,
            max_batch: 16,
            queue_capacity: val.samples.len().max(64) * 2,
        },
    )
    .expect("MLP replicates");
    let mut engine_matches_sequential = true;
    for (label, inputs, sequential) in [
        ("clean", &val.samples, &clean_reports),
        ("corrupted", &corrupted, &corrupt_reports),
        ("novelty", &novel, &novel_reports),
    ] {
        let served = engine
            .check_layered_batch(inputs, None)
            .expect("engine is up");
        let ok = served.len() == sequential.len()
            && served.iter().zip(sequential.iter()).all(|(s, q)| {
                s.predicted == q.predicted
                    && s.combined == q.combined
                    && s.per_layer.len() == q.per_layer.len()
                    && s.per_layer
                        .iter()
                        .zip(&q.per_layer)
                        .all(|(a, b)| a.verdict == *b)
            });
        if !ok {
            engine_matches_sequential = false;
            eprintln!("FAIL: engine layered verdicts diverge from sequential on {label}");
        }
    }
    let engine_forward_passes = engine.stats().batches;
    engine.shutdown();

    // ---- Marginal cost of each extra monitored layer ----
    println!("[marginal cost sweep: 1 / 2 / 3 monitored layers]");
    let mut sweep = Vec::new();
    for num_layers in 1..=MONITORED_LAYERS.len() {
        let family = LayeredMonitor::new(
            MONITORED_LAYERS[..num_layers]
                .iter()
                .map(|&layer| build_monitor(&mut model, &train, layer, gamma))
                .collect(),
            CombinePolicy::Any,
        );
        let mut best_us = f64::INFINITY;
        model.reset_forward_passes();
        for _ in 0..2 {
            let t = Instant::now();
            let reports = family.check_batch(&mut model, &val.samples);
            let us = t.elapsed().as_secs_f64() * 1e6;
            best_us = best_us.min(us / reports.len().max(1) as f64);
        }
        sweep.push(MarginalRow {
            num_layers,
            per_input_us: best_us,
            // Two timed repetitions: the counter sees both.
            forward_passes: model.forward_passes(),
        });
    }
    let max_marginal_per_input_us = sweep
        .windows(2)
        .map(|w| w[1].per_input_us - w[0].per_input_us)
        .fold(0.0f64, f64::max);
    let no_extra_forward_pass = sweep.windows(2).all(|w| {
        // Measured, not assumed: every configuration ran the identical
        // number of whole-network passes over the identical stream.
        w[0].forward_passes == w[1].forward_passes
    });
    let marginal = MarginalCost {
        sweep,
        max_marginal_per_input_us,
        no_extra_forward_pass,
    };

    // ---- Observation plan vs forward_all ----
    let batch = pack_batch(&val.samples);
    let plan = ObservationPlan::new(MONITORED_LAYERS.to_vec());
    let time_best = |f: &mut dyn FnMut() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let keep = f();
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(keep > 0);
            best = best.min(us);
        }
        best
    };
    let plan_us = time_best(&mut || model.forward_observe_plan(&batch, &plan, false).0.len());
    let forward_all_us = time_best(&mut || model.forward_all(&batch, false).len());
    // Per input: plan keeps the monitored widths + logits; forward_all
    // keeps every boundary (input copy included).
    let widths = [784usize, 96, 96, 64, 64, 48, 48, 10];
    let floats_retained_all: usize = widths.iter().sum();
    let floats_retained_plan: usize = layers.iter().map(|l| l.width).sum::<usize>() + 10;
    let observation = ObservationWin {
        plan_us,
        forward_all_us,
        speedup: forward_all_us / plan_us.max(f64::EPSILON),
        floats_retained_plan,
        floats_retained_all,
    };

    let result = LayeredEval {
        schema_version: SCHEMA_VERSION,
        gamma,
        layers,
        rows,
        any_beats_baseline_on_corrupted,
        engine_matches_sequential,
        engine_forward_passes,
        marginal,
        observation,
    };
    print_table(&result);
    write_json(&cfg.out_dir, "layered", &result);
    result
}

fn print_table(result: &LayeredEval) {
    rule(72);
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "rule", "clean", "corrupted", "novelty"
    );
    rule(72);
    for row in &result.rows {
        println!(
            "{:<26} {:>12} {:>12} {:>12}",
            row.rule,
            pct(row.clean_rate),
            pct(row.corrupted_rate),
            pct(row.novelty_rate)
        );
    }
    rule(72);
    println!(
        "any >= baseline on corrupted: {}; engine == sequential: {}",
        result.any_beats_baseline_on_corrupted, result.engine_matches_sequential
    );
    for row in &result.marginal.sweep {
        println!(
            "  {} layer(s): {:.2} us/input, {} forward passes",
            row.num_layers, row.per_input_us, row.forward_passes
        );
    }
    println!(
        "no extra forward pass per added layer: {} (max marginal {:.2} us/input)",
        result.marginal.no_extra_forward_pass, result.marginal.max_marginal_per_input_us
    );
    println!(
        "observation plan: {:.0} us vs forward_all {:.0} us ({:.2}x), \
         retains {}/{} floats per input",
        result.observation.plan_us,
        result.observation.forward_all_us,
        result.observation.speedup,
        result.observation.floats_retained_plan,
        result.observation.floats_retained_all
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(per_layer: Vec<Verdict>) -> LayeredReport {
        let combined = CombinePolicy::Any.combine(&per_layer);
        LayeredReport {
            predicted: 0,
            per_layer,
            combined,
        }
    }

    #[test]
    fn rates_fold_per_layer_verdicts() {
        use Verdict::*;
        let reports = vec![
            report(vec![OutOfPattern, InPattern, InPattern]),
            report(vec![InPattern, InPattern, InPattern]),
            report(vec![OutOfPattern, OutOfPattern, OutOfPattern]),
            report(vec![InPattern, OutOfPattern, OutOfPattern]),
        ];
        let any = |r: &LayeredReport| CombinePolicy::Any.combine(&r.per_layer) == OutOfPattern;
        let all = |r: &LayeredReport| CombinePolicy::All.combine(&r.per_layer) == OutOfPattern;
        let baseline = |r: &LayeredReport| r.per_layer[0] == OutOfPattern;
        assert_eq!(rate(&reports, any), 0.75);
        assert_eq!(rate(&reports, all), 0.25);
        assert_eq!(rate(&reports, baseline), 0.5);
        // Any >= baseline >= all, structurally.
        assert!(rate(&reports, any) >= rate(&reports, baseline));
        assert!(rate(&reports, baseline) >= rate(&reports, all));
        assert_eq!(rate(&[], any), 0.0);
    }
}
