//! Compiled zone evaluators vs. the walked snapshot oracle.
//!
//! The serving path lowers every frozen zone into a
//! [`CompiledZone`](naps_bdd::CompiledZone)
//! (flat topo-ordered walk, 64-lane bit-sliced batches, small-zone
//! interval/sorted-key indexes, and the bounded distance DP on the same
//! node array).  This experiment measures what that buys on the shared
//! serving fixture — compiled vs. walked queries per second for every
//! query kind the engine serves — verifies the compiled answers are
//! **bit-identical** to the interpreted snapshot walk on the whole
//! workload, records which fast path each zone compiled to, and writes
//! `results/compiled.json` so future PRs can regression-check the
//! compiled path.
//!
//! The driving binary exits non-zero on any divergence, or when the
//! bit-sliced membership kernel's speedup falls below 2x — the compiled
//! path must pay for itself even in smoke mode.

use crate::config::RunConfig;
use crate::report::{rule, write_json};
use naps_bdd::CompiledPath;
use naps_bench::serving_fixture;
use naps_core::{MonitorReport, Pattern, Verdict};
use naps_serve::FrozenMonitor;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One query kind, timed on both paths over the same workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledRow {
    /// Query kind (`membership`, `membership_batch`, `seed_distance`,
    /// `membership_sliced_flat`, `bounded_zone_distance`).
    pub kind: String,
    /// Walked-snapshot queries per second.
    pub walked_qps: f64,
    /// Compiled-evaluator queries per second.
    pub compiled_qps: f64,
    /// `compiled_qps / walked_qps`.
    pub speedup: f64,
    /// Whether every compiled answer matched the walked oracle.
    pub identical: bool,
}

/// How many zones compiled to each membership fast path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FastPathCounts {
    /// Contiguous small zones (two-compare membership).
    pub interval: usize,
    /// Enumerated small zones (binary search over sorted keys).
    pub sorted_keys: usize,
    /// Node-array zones (scalar walk / bit-sliced batches).
    pub flat_walk: usize,
}

impl FastPathCounts {
    fn count(&mut self, path: CompiledPath) {
        match path {
            CompiledPath::Interval => self.interval += 1,
            CompiledPath::SortedKeys => self.sorted_keys += 1,
            CompiledPath::FlatWalk => self.flat_walk += 1,
        }
    }
}

/// The `schema_version` [`run`] stamps on [`CompiledEval`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full compiled-vs-walked comparison plus fast-path census.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledEval {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Judged `(predicted, pattern)` pairs per timed pass.
    pub workload: usize,
    /// Monitored zones in the frozen fixture monitor.
    pub monitored_zones: usize,
    /// γ of the fixture monitor (the bounded query runs at γ + 2).
    pub gamma: u32,
    /// Fast paths of the enlarged-zone evaluators.
    pub zone_paths: FastPathCounts,
    /// Fast paths of the seed-set evaluators.
    pub seed_paths: FastPathCounts,
    /// One row per query kind.
    pub rows: Vec<CompiledRow>,
    /// Batched judging speedup (the engine hot path: membership +
    /// seed distance, class-grouped).
    pub batch_membership_speedup: f64,
    /// The gated cell: the bit-sliced node-array kernel vs. the walked
    /// per-pattern walk (the path large zones take) — stable enough to
    /// hard-fail on, unlike the allocation-noise-prone end-to-end rows.
    pub sliced_membership_speedup: f64,
    /// Whether every kind agreed on every query.
    pub all_identical: bool,
}

/// The walked-oracle counterpart of [`FrozenMonitor::report`]: the exact
/// judging the engine ran before evaluators were compiled.
fn walked_report(frozen: &FrozenMonitor, predicted: usize, pattern: &Pattern) -> MonitorReport {
    match frozen.zone(predicted) {
        None => MonitorReport {
            predicted,
            verdict: Verdict::Unmonitored,
            distance_to_seeds: None,
        },
        Some(z) => MonitorReport {
            predicted,
            verdict: if z.zone_snapshot().eval(&pattern.to_bools()) {
                Verdict::InPattern
            } else {
                Verdict::OutOfPattern
            },
            distance_to_seeds: z.seed_snapshot().min_hamming_distance(&pattern.to_bools()),
        },
    }
}

fn time_qps<T>(n: usize, repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(f());
    }
    (repeats * n) as f64 / start.elapsed().as_secs_f64()
}

/// Runs the compiled-vs-walked comparison and writes
/// `results/compiled.json`.
pub fn run(cfg: &RunConfig) -> CompiledEval {
    println!("== Compiled zone evaluators vs walked snapshots ==");
    let (probes_n, repeats) = if cfg.full { (2048, 7) } else { (512, 3) };
    let (monitor, mut model, probes) = serving_fixture(6, probes_n, cfg.seed);
    let frozen = FrozenMonitor::freeze(&monitor);
    let pairs: Vec<(usize, Pattern)> = frozen.observe_batch(&mut model, &probes);
    let pair_refs: Vec<(usize, &Pattern)> = pairs.iter().map(|(p, pat)| (*p, pat)).collect();
    let budget = frozen.gamma() + 2;

    let mut zone_paths = FastPathCounts::default();
    let mut seed_paths = FastPathCounts::default();
    let mut monitored_zones = 0usize;
    for c in 0..frozen.num_classes() {
        if let Some(z) = frozen.zone(c) {
            monitored_zones += 1;
            zone_paths.count(z.zone_eval().path());
            seed_paths.count(z.seed_eval().path());
        }
    }
    println!(
        "[{} pairs, {} monitored zones; zone paths {}i/{}s/{}f, seed paths {}i/{}s/{}f]",
        pairs.len(),
        monitored_zones,
        zone_paths.interval,
        zone_paths.sorted_keys,
        zone_paths.flat_walk,
        seed_paths.interval,
        seed_paths.sorted_keys,
        seed_paths.flat_walk,
    );

    let mut rows = Vec::new();
    rule(66);
    println!(
        "{:>24} {:>12} {:>12} {:>8} {:>6}",
        "kind", "walked qps", "compiled qps", "speedup", "same"
    );
    rule(66);
    let mut push = |kind: &str, walked_qps: f64, compiled_qps: f64, identical: bool| {
        let speedup = compiled_qps / walked_qps;
        println!(
            "{kind:>24} {walked_qps:>12.0} {compiled_qps:>12.0} {speedup:>8.2} {identical:>6}"
        );
        rows.push(CompiledRow {
            kind: kind.to_string(),
            walked_qps,
            compiled_qps,
            speedup,
            identical,
        });
    };

    // Scalar membership: one pattern at a time through the zone of its
    // predicted class.
    let member_compiled: Vec<bool> = pair_refs
        .iter()
        .map(|&(p, pat)| frozen.zone(p).is_some_and(|z| z.contains(pat)))
        .collect();
    let member_walked: Vec<bool> = pair_refs
        .iter()
        .map(|&(p, pat)| {
            frozen
                .zone(p)
                .is_some_and(|z| z.zone_snapshot().eval(&pat.to_bools()))
        })
        .collect();
    push(
        "membership",
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter(|&&(p, pat)| {
                    frozen
                        .zone(p)
                        .is_some_and(|z| z.zone_snapshot().eval(&pat.to_bools()))
                })
                .count()
        }),
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter(|&&(p, pat)| frozen.zone(p).is_some_and(|z| z.contains(pat)))
                .count()
        }),
        member_compiled == member_walked,
    );

    // Batched judging — the engine's hot path: grouped per class so the
    // bit-sliced evaluator answers up to 64 rows per node-array sweep,
    // vs. the walked row-at-a-time reports the engine ran before.
    let judged_compiled = frozen.report_batch(&pair_refs);
    let judged_walked: Vec<MonitorReport> = pair_refs
        .iter()
        .map(|&(p, pat)| walked_report(&frozen, p, pat))
        .collect();
    let batch_walked_qps = time_qps(pairs.len(), repeats, || {
        pair_refs
            .iter()
            .map(|&(p, pat)| walked_report(&frozen, p, pat))
            .collect::<Vec<_>>()
    });
    let batch_compiled_qps = time_qps(pairs.len(), repeats, || frozen.report_batch(&pair_refs));
    push(
        "membership_batch",
        batch_walked_qps,
        batch_compiled_qps,
        judged_compiled == judged_walked,
    );

    // Seed distance: the distance column of every report.
    let seeds_compiled: Vec<Option<u32>> = pair_refs
        .iter()
        .map(|&(p, pat)| frozen.zone(p).and_then(|z| z.distance_to_seeds(pat)))
        .collect();
    let seeds_walked: Vec<Option<u32>> = pair_refs
        .iter()
        .map(|&(p, pat)| {
            frozen
                .zone(p)
                .and_then(|z| z.seed_snapshot().min_hamming_distance(&pat.to_bools()))
        })
        .collect();
    push(
        "seed_distance",
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter_map(|&(p, pat)| {
                    frozen
                        .zone(p)
                        .and_then(|z| z.seed_snapshot().min_hamming_distance(&pat.to_bools()))
                })
                .count()
        }),
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter_map(|&(p, pat)| frozen.zone(p).and_then(|z| z.distance_to_seeds(pat)))
                .count()
        }),
        seeds_compiled == seeds_walked,
    );

    // The bit-sliced node-array kernel itself: force flat compilation
    // (no small-zone shortcut on the compiled side) and answer each
    // class's rows 64 lanes per node-array sweep, against the same
    // walked per-pattern root-to-terminal walk.  This is the path zones
    // too big for the small index take in production.
    let flat: Vec<Option<naps_bdd::CompiledZone>> = (0..frozen.num_classes())
        .map(|c| {
            frozen
                .zone(c)
                .map(|z| naps_bdd::CompiledZone::compile_flat_only(z.zone_snapshot()))
        })
        .collect();
    let by_class: Vec<Vec<&Pattern>> = (0..frozen.num_classes())
        .map(|c| {
            pair_refs
                .iter()
                .filter(|&&(p, _)| p == c)
                .map(|&(_, pat)| pat)
                .collect()
        })
        .collect();
    let sliced_pass = || -> Vec<bool> {
        let mut hits = Vec::with_capacity(pairs.len());
        for (c, rows) in by_class.iter().enumerate() {
            if let Some(z) = &flat[c] {
                let words: Vec<&[u64]> = rows.iter().map(|p| p.words()).collect();
                hits.extend(z.eval_many(&words));
            }
        }
        hits
    };
    let walked_pass = || -> Vec<bool> {
        let mut hits = Vec::with_capacity(pairs.len());
        for (c, rows) in by_class.iter().enumerate() {
            if let Some(z) = frozen.zone(c) {
                let snap = z.zone_snapshot();
                hits.extend(rows.iter().map(|p| snap.eval(&p.to_bools())));
            }
        }
        hits
    };
    push(
        "membership_sliced_flat",
        time_qps(pairs.len(), repeats, walked_pass),
        time_qps(pairs.len(), repeats, sliced_pass),
        sliced_pass() == walked_pass(),
    );

    // Bounded zone distance at γ + 2: the graded ranking query.
    let bounded_compiled: Vec<Option<u32>> = pair_refs
        .iter()
        .map(|&(p, pat)| {
            frozen
                .zone(p)
                .and_then(|z| z.distance_to_zone_within(pat, budget))
        })
        .collect();
    let bounded_walked: Vec<Option<u32>> = pair_refs
        .iter()
        .map(|&(p, pat)| {
            frozen.zone(p).and_then(|z| {
                z.zone_snapshot()
                    .min_hamming_distance_within(&pat.to_bools(), budget)
            })
        })
        .collect();
    push(
        "bounded_zone_distance",
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter_map(|&(p, pat)| {
                    frozen.zone(p).and_then(|z| {
                        z.zone_snapshot()
                            .min_hamming_distance_within(&pat.to_bools(), budget)
                    })
                })
                .count()
        }),
        time_qps(pairs.len(), repeats, || {
            pair_refs
                .iter()
                .filter_map(|&(p, pat)| {
                    frozen
                        .zone(p)
                        .and_then(|z| z.distance_to_zone_within(pat, budget))
                })
                .count()
        }),
        bounded_compiled == bounded_walked,
    );
    rule(66);

    let batch_membership_speedup = rows
        .iter()
        .find(|r| r.kind == "membership_batch")
        .map_or(0.0, |r| r.speedup);
    let sliced_membership_speedup = rows
        .iter()
        .find(|r| r.kind == "membership_sliced_flat")
        .map_or(0.0, |r| r.speedup);
    let all_identical = rows.iter().all(|r| r.identical);
    println!(
        "[batched judging {batch_membership_speedup:.2}x, bit-sliced kernel \
         {sliced_membership_speedup:.2}x, all identical: {all_identical}]"
    );

    let result = CompiledEval {
        schema_version: SCHEMA_VERSION,
        workload: pairs.len(),
        monitored_zones,
        gamma: frozen.gamma(),
        zone_paths,
        seed_paths,
        rows,
        batch_membership_speedup,
        sliced_membership_speedup,
        all_identical,
    };
    write_json(&cfg.out_dir, "compiled", &result);
    result
}
