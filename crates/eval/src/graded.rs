//! Graded verdict triage: distance histograms, nearest-class
//! attribution, and the bounded-DP speedup.
//!
//! The binary monitor says *that* a decision is unsupported; the graded
//! monitor says *how far* outside the comfort zone it fell and *whose*
//! zone is nearest.  This experiment replays three streams through the
//! serving engine's graded path — clean validation data, corrupted
//! variants of it, and genuine novelties — and measures what the graded
//! signal buys:
//!
//! * **distance histograms** per stream: clean inputs pile up at
//!   distance 0, corrupted ones land a few flips out, novelties fall
//!   beyond the budget (the [`naps_core::Triage::Novelty`] bucket);
//! * **misclassification attribution**: on corrupted inputs the network
//!   gets wrong, how often the nearest comfort zone names the *true*
//!   class — versus the always-predicted-class baseline, which by
//!   construction scores zero on misclassified inputs;
//! * **bounded-vs-unbounded speedup**: the budget-bounded early-exit DP
//!   against the full-array sweep, on the same frozen zones and query
//!   mix, with exact agreement (truncation at the budget) verified
//!   query-for-query;
//! * **drift hookup**: per-class detectors armed on the engine, stable
//!   on the clean stream, alarming (epoch-stamped) on the corrupted one.
//!
//! The `graded` binary exits non-zero when the bounded path disagrees
//! with the unbounded path, when verdicts are not bit-identical to
//! sequential grading, or when attribution fails to beat the baseline —
//! so CI can gate on it.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use naps_core::{
    BddZone, DriftConfig, DriftStatus, GradedQuery, Monitor, MonitorBuilder, Triage, Verdict,
};
use naps_data::corrupt::{apply, Corruption};
use naps_data::novelty::{render_gray, Novelty};
use naps_data::{digits, Dataset};
use naps_nn::{mlp, Adam, TrainConfig, Trainer};
use naps_serve::{EngineConfig, FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Distance histogram of one served stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamHistogram {
    /// Stream label (`clean`, `corrupted`, `novelty`).
    pub stream: String,
    /// `counts[d]` = verdicts at zone distance `d`, for `d` in
    /// `0..=budget`.
    pub counts: Vec<usize>,
    /// Verdicts beyond the budget from the predicted class's zone
    /// (`distance_to_zone = None` on a monitored class).
    pub beyond_budget: usize,
    /// Verdicts triaged [`Triage::Novelty`] (beyond the budget from
    /// *every* monitored zone).
    pub novelties: usize,
    /// Verdicts triaged [`Triage::MisclassificationCandidate`].
    pub misclassification_candidates: usize,
    /// Out-of-pattern rate of the stream (monitored verdicts).
    pub out_of_pattern_rate: f64,
    /// Stream length.
    pub samples: usize,
}

/// The attribution experiment on the corrupted stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attribution {
    /// Corrupted inputs the network misclassified.
    pub misclassified: usize,
    /// ... of which the nearest comfort zone (smallest bounded zone
    /// distance over all monitored classes, predicted included, ties to
    /// the lower class) names the true label.
    pub nearest_zone_hits: usize,
    /// `nearest_zone_hits / misclassified`.
    pub nearest_zone_accuracy: f64,
    /// The always-predicted-class baseline on the same inputs — zero by
    /// construction (they are misclassified), recorded for the JSON
    /// consumer.
    pub baseline_accuracy: f64,
    /// Attribution accuracy over the **whole** corrupted stream when the
    /// rule is "predicted class if in-pattern, else nearest zone".
    pub full_stream_accuracy: f64,
    /// Network accuracy on the whole corrupted stream (the baseline for
    /// `full_stream_accuracy`).
    pub full_stream_baseline: f64,
}

/// Bounded-vs-unbounded DP timing on the frozen zones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoundedSpeedup {
    /// The budget the bounded DP ran with (≤ γ + 2).
    pub budget: u32,
    /// Distance queries timed (patterns × classes).
    pub queries: usize,
    /// Wall time of the unbounded full-sweep path, microseconds.
    pub unbounded_us: f64,
    /// Wall time of the bounded early-exit path, microseconds.
    pub bounded_us: f64,
    /// `unbounded_us / bounded_us`.
    pub speedup: f64,
    /// Every bounded answer equalled the unbounded one truncated at the
    /// budget (the correctness gate).
    pub agrees_with_unbounded: bool,
}

/// One class's drift posture after the corrupted stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftSummary {
    /// Class index.
    pub class: usize,
    /// `Warmup` / `Stable` / `Drifting` as a string (the core enum is
    /// not serializable by design).
    pub status: String,
    /// Epoch the evidence was gathered under.
    pub epoch: u64,
    /// Windowed out-of-pattern rate.
    pub windowed_rate: f64,
    /// Verdicts folded in.
    pub observed: usize,
}

/// The `schema_version` [`run`] stamps on [`GradedTriage`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full graded-triage result (`results/graded.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradedTriage {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// The monitor's γ.
    pub gamma: u32,
    /// The graded query budget (γ + 1, within the ≤ γ + 2 bound).
    pub budget: u32,
    /// Per-stream distance histograms.
    pub histograms: Vec<StreamHistogram>,
    /// Nearest-class attribution on the corrupted stream.
    pub attribution: Attribution,
    /// Bounded-vs-unbounded DP timing.
    pub speedup: BoundedSpeedup,
    /// Every served graded verdict was bit-identical to sequential
    /// `check_graded_batch` (the serving correctness gate).
    pub served_matches_sequential: bool,
    /// Per-class drift after the corrupted stream (armed on the engine).
    pub drift: Vec<DriftSummary>,
    /// Classes drifting after the corrupted stream.
    pub drifting_classes: usize,
    /// Classes drifting after the clean stream (should be 0).
    pub drifting_on_clean: usize,
}

/// The deployment-time corruption mix (cycled per sample).
const SHIFTS: [Corruption; 3] = [
    Corruption::GaussianNoise(0.35),
    Corruption::Fog(0.45),
    Corruption::Brightness(0.6),
];

fn corrupted_stream(val: &Dataset, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    val.samples
        .iter()
        .enumerate()
        .map(|(i, s)| apply(s, 1, 28, SHIFTS[i % SHIFTS.len()], &mut rng))
        .collect()
}

fn novelty_stream(n: usize, seed: u64) -> Vec<Tensor> {
    let kinds = [
        Novelty::Scooter,
        Novelty::Asterisk,
        Novelty::Spiral,
        Novelty::Static,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| render_gray(kinds[i % kinds.len()], 28, &mut rng))
        .collect()
}

fn histogram(stream: &str, graded: &[naps_core::GradedReport], budget: u32) -> StreamHistogram {
    let mut counts = vec![0usize; budget as usize + 1];
    let mut beyond = 0usize;
    for g in graded {
        match g.distance_to_zone {
            Some(d) => counts[d as usize] += 1,
            None if g.report.verdict != Verdict::Unmonitored => beyond += 1,
            None => {}
        }
    }
    let monitored = graded
        .iter()
        .filter(|g| g.report.verdict != Verdict::Unmonitored)
        .count();
    let oop = graded
        .iter()
        .filter(|g| g.report.verdict == Verdict::OutOfPattern)
        .count();
    StreamHistogram {
        stream: stream.to_string(),
        counts,
        beyond_budget: beyond,
        novelties: graded
            .iter()
            .filter(|g| g.triage == Triage::Novelty)
            .count(),
        misclassification_candidates: graded
            .iter()
            .filter(|g| g.triage == Triage::MisclassificationCandidate)
            .count(),
        out_of_pattern_rate: if monitored == 0 {
            0.0
        } else {
            oop as f64 / monitored as f64
        },
        samples: graded.len(),
    }
}

/// The class whose zone is nearest under the graded report's budget:
/// the predicted class at its bounded distance competes with the ranked
/// `nearest` list; ties go to the lower class index (matching the
/// ranking order).  `None` when nothing is within the budget.
fn nearest_class(g: &naps_core::GradedReport) -> Option<usize> {
    let mut best: Option<(u32, usize)> = g.distance_to_zone.map(|d| (d, g.report.predicted));
    for n in &g.nearest {
        let cand = (n.distance, n.class);
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    best.map(|(_, c)| c)
}

/// Runs the graded-triage experiment and writes `results/graded.json`.
pub fn run(cfg: &RunConfig) -> GradedTriage {
    println!("== Graded verdicts: distance triage, attribution, bounded DP ==");
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
    let mut model = mlp(&[784, 96, 48, 10], &mut rng);
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
    let gamma = 2;
    let monitor_layer = 3; // second ReLU (width 48)
    let mut monitor: Monitor<BddZone> = MonitorBuilder::new(monitor_layer, gamma).build(
        &mut model,
        &train.samples,
        &train.labels,
        10,
    );
    monitor.compact();
    // γ + 1: one flip beyond the comfort zone is still attributable;
    // anything further is novelty.  (The acceptance bound is ≤ γ + 2;
    // the bounded DP's pruning advantage grows as the budget shrinks.)
    let budget = gamma + 1;
    let query = GradedQuery::new(budget, 3);

    let corrupted = corrupted_stream(&val, cfg.seed.wrapping_add(31));
    let novel = novelty_stream(if cfg.full { 120 } else { 48 }, cfg.seed.wrapping_add(62));

    let workers = 2;
    let engine = MonitorEngine::new(
        &monitor,
        &model,
        EngineConfig {
            workers,
            max_batch: 16,
            queue_capacity: val.samples.len().max(64) * 2,
        },
    )
    .expect("MLP replicates");
    engine.enable_drift(DriftConfig {
        baseline_rate: 0.02,
        alarm_rate: 0.35,
        window: 20,
        ewma_alpha: 0.1,
        patience: 10,
    });

    // ---- Serve the three streams graded; verify against sequential ----
    let mut served_matches_sequential = true;
    let mut histograms = Vec::new();
    let mut check_stream = |label: &str, inputs: &[Tensor], model: &mut naps_nn::Sequential| {
        let sequential = monitor.check_graded_batch(model, inputs, query);
        let served = engine
            .check_graded_batch(inputs, query)
            .expect("engine is up");
        let ok = served.len() == sequential.len()
            && served
                .iter()
                .zip(&sequential)
                .all(|(s, q)| s.graded.as_ref() == Some(q));
        if !ok {
            served_matches_sequential = false;
            eprintln!("FAIL: served graded verdicts diverge from sequential on {label}");
        }
        histograms.push(histogram(label, &sequential, budget));
        sequential
    };
    let _clean_graded = check_stream("clean", &val.samples, &mut model);
    let drifting_on_clean = engine
        .drift_status()
        .expect("armed")
        .iter()
        .filter(|c| c.status == DriftStatus::Drifting)
        .count();
    let corrupt_graded = check_stream("corrupted", &corrupted, &mut model);
    let drift_after: Vec<DriftSummary> = engine
        .drift_status()
        .expect("armed")
        .iter()
        .map(|c| DriftSummary {
            class: c.class,
            status: format!("{:?}", c.status),
            epoch: c.epoch,
            windowed_rate: c.windowed_rate,
            observed: c.observed,
        })
        .collect();
    let drifting_classes = drift_after
        .iter()
        .filter(|c| c.status == "Drifting")
        .count();
    let _novel_graded = check_stream("novelty", &novel, &mut model);

    // ---- Misclassification attribution on the corrupted stream ----
    let mut misclassified = 0usize;
    let mut nearest_hits = 0usize;
    let mut full_hits = 0usize;
    let mut baseline_hits = 0usize;
    for (g, &label) in corrupt_graded.iter().zip(&val.labels) {
        let predicted = g.report.predicted;
        if predicted == label {
            baseline_hits += 1;
        }
        // Full-stream rule: trust in-pattern decisions, re-attribute the
        // rest to the nearest zone (fall back to predicted when nothing
        // is within budget).
        let attributed = if g.report.verdict == Verdict::InPattern {
            predicted
        } else {
            nearest_class(g).unwrap_or(predicted)
        };
        if attributed == label {
            full_hits += 1;
        }
        if predicted != label {
            misclassified += 1;
            if nearest_class(g) == Some(label) {
                nearest_hits += 1;
            }
        }
    }
    let attribution = Attribution {
        misclassified,
        nearest_zone_hits: nearest_hits,
        nearest_zone_accuracy: if misclassified == 0 {
            0.0
        } else {
            nearest_hits as f64 / misclassified as f64
        },
        baseline_accuracy: 0.0,
        full_stream_accuracy: full_hits as f64 / corrupt_graded.len() as f64,
        full_stream_baseline: baseline_hits as f64 / corrupt_graded.len() as f64,
    };

    // ---- Bounded vs unbounded DP on the frozen zones ----
    let frozen = FrozenMonitor::freeze(&monitor);
    let patterns: Vec<naps_core::Pattern> = monitor
        .observe_batch(&mut model, &val.samples)
        .into_iter()
        .chain(monitor.observe_batch(&mut model, &corrupted))
        .chain(monitor.observe_batch(&mut model, &novel))
        .map(|(_, p)| p)
        .collect();
    let classes: Vec<usize> = (0..frozen.num_classes())
        .filter(|&c| frozen.zone(c).is_some())
        .collect();
    let t0 = Instant::now();
    let mut unbounded: Vec<Option<u32>> = Vec::with_capacity(patterns.len() * classes.len());
    for p in &patterns {
        for &c in &classes {
            unbounded.push(frozen.zone(c).expect("monitored").distance_to_zone(p));
        }
    }
    let unbounded_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let mut bounded: Vec<Option<u32>> = Vec::with_capacity(patterns.len() * classes.len());
    for p in &patterns {
        for &c in &classes {
            bounded.push(
                frozen
                    .zone(c)
                    .expect("monitored")
                    .distance_to_zone_within(p, budget),
            );
        }
    }
    let bounded_us = t1.elapsed().as_secs_f64() * 1e6;
    let agrees = unbounded
        .iter()
        .zip(&bounded)
        .all(|(u, b)| *b == u.filter(|&d| d <= budget));
    let speedup = BoundedSpeedup {
        budget,
        queries: patterns.len() * classes.len(),
        unbounded_us,
        bounded_us,
        speedup: unbounded_us / bounded_us.max(f64::EPSILON),
        agrees_with_unbounded: agrees,
    };

    engine.shutdown();
    let result = GradedTriage {
        schema_version: SCHEMA_VERSION,
        gamma,
        budget,
        histograms,
        attribution,
        speedup,
        served_matches_sequential,
        drift: drift_after,
        drifting_classes,
        drifting_on_clean,
    };
    print_table(&result);
    write_json(&cfg.out_dir, "graded", &result);
    result
}

fn print_table(result: &GradedTriage) {
    rule(76);
    println!(
        "{:<12} {:>8} {:<35}  {:>8} {:>8} {:>8}",
        "stream", "oop", "distance histogram 0..budget,beyond", "novel", "miscls", "n"
    );
    rule(76);
    for h in &result.histograms {
        println!(
            "{:<12} {:>8} {:?}+{}  {:>8} {:>8} {:>8}",
            h.stream,
            pct(h.out_of_pattern_rate),
            h.counts,
            h.beyond_budget,
            h.novelties,
            h.misclassification_candidates,
            h.samples
        );
    }
    rule(76);
    let a = &result.attribution;
    println!(
        "attribution: {}/{} misclassified corrupted inputs recovered by nearest \
         zone ({}; baseline {}), full-stream {} vs network {}",
        a.nearest_zone_hits,
        a.misclassified,
        pct(a.nearest_zone_accuracy),
        pct(a.baseline_accuracy),
        pct(a.full_stream_accuracy),
        pct(a.full_stream_baseline),
    );
    let s = &result.speedup;
    println!(
        "bounded DP: {:.2}x vs unbounded over {} queries at budget {} (agree: {}); \
         served==sequential: {}",
        s.speedup, s.queries, s.budget, s.agrees_with_unbounded, result.served_matches_sequential
    );
    println!(
        "drift: {} classes drifting after corrupted stream ({} on clean)",
        result.drifting_classes, result.drifting_on_clean
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use naps_core::{GradedReport, MonitorReport, NearestZone};

    fn graded(
        predicted: usize,
        verdict: Verdict,
        distance_to_zone: Option<u32>,
        nearest: Vec<NearestZone>,
        triage: Triage,
    ) -> GradedReport {
        GradedReport {
            report: MonitorReport {
                predicted,
                verdict,
                distance_to_seeds: None,
            },
            distance_to_zone,
            nearest,
            query: GradedQuery::new(4, 3),
            triage,
        }
    }

    #[test]
    fn nearest_class_prefers_smallest_distance_then_class() {
        let g = graded(
            2,
            Verdict::OutOfPattern,
            Some(3),
            vec![
                NearestZone {
                    class: 5,
                    distance: 1,
                },
                NearestZone {
                    class: 7,
                    distance: 1,
                },
            ],
            Triage::OutOfPattern,
        );
        assert_eq!(nearest_class(&g), Some(5));
        // The predicted class wins ties at equal distance when lower.
        let g = graded(
            0,
            Verdict::OutOfPattern,
            Some(1),
            vec![NearestZone {
                class: 4,
                distance: 1,
            }],
            Triage::OutOfPattern,
        );
        assert_eq!(nearest_class(&g), Some(0));
        // Nothing within budget: no attribution.
        let g = graded(0, Verdict::OutOfPattern, None, vec![], Triage::Novelty);
        assert_eq!(nearest_class(&g), None);
    }

    #[test]
    fn histogram_buckets_distances_and_triage() {
        let gs = vec![
            graded(0, Verdict::InPattern, Some(0), vec![], Triage::InPattern),
            graded(
                0,
                Verdict::OutOfPattern,
                Some(2),
                vec![],
                Triage::OutOfPattern,
            ),
            graded(0, Verdict::OutOfPattern, None, vec![], Triage::Novelty),
            graded(
                0,
                Verdict::OutOfPattern,
                Some(1),
                vec![NearestZone {
                    class: 1,
                    distance: 0,
                }],
                Triage::MisclassificationCandidate,
            ),
        ];
        let h = histogram("t", &gs, 4);
        assert_eq!(h.counts, vec![1, 1, 1, 0, 0]);
        assert_eq!(h.beyond_budget, 1);
        assert_eq!(h.novelties, 1);
        assert_eq!(h.misclassification_candidates, 1);
        assert_eq!(h.samples, 4);
        assert!((h.out_of_pattern_rate - 0.75).abs() < 1e-12);
    }
}
