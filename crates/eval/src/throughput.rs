//! Serving throughput: the `naps-serve` engine vs. sequential checking.
//!
//! The ROADMAP's north star is serving monitored classifications as fast
//! as the hardware allows.  This experiment measures end-to-end queries
//! per second on the shared `naps-bench` serving fixture across worker
//! counts (1/2/4/8) and micro-batch sizes (1/16/128), verifies that
//! every parallel configuration returns verdicts **bit-identical** to
//! sequential checking, and writes `results/throughput.json` so future
//! PRs can regression-check monitoring latency and QPS against a
//! recorded trajectory.
//!
//! Speedups are hardware-relative: the available parallelism is recorded
//! alongside every row, so a 1-core CI container producing a ~1x speedup
//! and an 8-core workstation producing ~4x are both healthy runs.
//!
//! The sequential baseline is `Monitor::check_batch` in chunks of the
//! row's batch size.  It observes through `Sequential::observe_rows`,
//! which may split a call of more than 64 rows across the host's cores
//! when its forward work pays for a thread spawn; the fixture's ring
//! MLP (≈ 6,400 multiply-accumulates per row) is below that line, so
//! its baseline runs on one thread at every batch size.

use crate::config::RunConfig;
use crate::report::{rule, write_json};
use naps_bench::serving_fixture;
use naps_core::ActivationMonitor;
use naps_serve::{EngineConfig, MonitorEngine};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Engine worker threads (0 = the sequential baseline: in-process
    /// `check_batch` calls, which fan a call of more than 64 rows out
    /// only when its forward work pays for it).
    pub workers: usize,
    /// Micro-batch size (engine `max_batch`, or the sequential chunk).
    pub batch: usize,
    /// Queries served per second.
    pub qps: f64,
    /// Speedup over the sequential baseline at the same
    /// batch size.
    pub speedup_vs_sequential: f64,
    /// Whether every verdict matched sequential checking bit-for-bit.
    pub verdicts_identical: bool,
    /// Forward passes the engine executed (0 for the baseline rows).
    pub engine_batches: u64,
}

/// One single-thread compiled-vs-walked judging row: the frozen judging
/// path (compiled evaluators, class-grouped batches) against the walked
/// snapshot oracle on the same observed pairs — the forward pass is
/// excluded from both sides, so this isolates what compilation buys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledVsWalkedRow {
    /// Query kind (`judge_batch` = verdict + seed distance per row).
    pub kind: String,
    /// Walked-snapshot queries per second.
    pub walked_qps: f64,
    /// Compiled-evaluator queries per second.
    pub compiled_qps: f64,
    /// `compiled_qps / walked_qps`.
    pub speedup: f64,
    /// Whether compiled reports matched the walked oracle bit-for-bit.
    pub verdicts_identical: bool,
}

/// The `schema_version` [`run`] stamps on [`Throughput`].
pub const SCHEMA_VERSION: u32 = 2;

/// The full throughput matrix plus environment context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Throughput {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Hardware parallelism the run had available.
    pub available_parallelism: usize,
    /// Hardware threads, duplicated under the name downstream tooling
    /// reads alongside [`Throughput::skipped_reason`].
    pub hardware_threads: usize,
    /// Probes served per measured configuration.
    pub workload: usize,
    /// Speedup of the 4-worker / batch-128 configuration (the gated
    /// cell; target ≥ 3x).
    pub speedup_4w_batch128: f64,
    /// Whether that cell met the ≥ 3x target — `None` when the run had
    /// fewer than 4 hardware threads, where the target is unreachable
    /// and a low number means nothing.
    pub meets_3x_target: Option<bool>,
    /// Why the 3x target was not judged (`None` when it was): records
    /// the hardware shortfall explicitly so a null verdict is
    /// distinguishable from a missing one.
    pub skipped_reason: Option<String>,
    /// Baseline + engine rows.
    pub rows: Vec<ThroughputRow>,
    /// Single-thread compiled-vs-walked judging rows (PR 6's compiled
    /// evaluators against the interpreted snapshot walk).
    pub compiled_vs_walked: Vec<CompiledVsWalkedRow>,
}

const BATCHES: [usize; 3] = [1, 16, 128];
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Runs the throughput matrix and writes `results/throughput.json`.
pub fn run(cfg: &RunConfig) -> Throughput {
    println!("== Serving throughput: MonitorEngine vs sequential ==");
    let (probes_n, repeats) = if cfg.full { (2048, 5) } else { (512, 3) };
    let (monitor, mut model, probes) = serving_fixture(6, probes_n, cfg.seed);
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "[fixture: {} probes, {} classes, available parallelism {parallelism}]",
        probes.len(),
        monitor.num_classes(),
    );

    // Sequential oracle (also the verdict reference for every engine row).
    let reference = monitor.check_batch(&mut model, &probes);

    let mut rows = Vec::new();
    let mut baseline_qps = vec![0.0f64; BATCHES.len()];
    rule(66);
    println!(
        "{:>8} {:>7} {:>12} {:>10} {:>10}",
        "workers", "batch", "qps", "speedup", "identical"
    );
    rule(66);
    for (bi, &batch) in BATCHES.iter().enumerate() {
        let start = Instant::now();
        let mut identical = true;
        for _ in 0..repeats {
            let mut got = Vec::with_capacity(probes.len());
            for chunk in probes.chunks(batch) {
                got.extend(monitor.check_batch(&mut model, chunk));
            }
            identical &= got == reference;
        }
        let qps = (repeats * probes.len()) as f64 / start.elapsed().as_secs_f64();
        baseline_qps[bi] = qps;
        println!(
            "{:>8} {:>7} {:>12.0} {:>10.2} {:>10}",
            "seq", batch, qps, 1.0, identical
        );
        rows.push(ThroughputRow {
            workers: 0,
            batch,
            qps,
            speedup_vs_sequential: 1.0,
            verdicts_identical: identical,
            engine_batches: 0,
        });
    }
    for &workers in WORKERS.iter() {
        for (bi, &batch) in BATCHES.iter().enumerate() {
            let engine = MonitorEngine::new(
                &monitor,
                &model,
                EngineConfig {
                    workers,
                    max_batch: batch,
                    queue_capacity: 2 * probes.len(),
                },
            )
            .expect("serving fixture is an MLP");
            let served = |engine: &MonitorEngine| -> Vec<naps_core::MonitorReport> {
                engine
                    .check_batch(&probes)
                    .expect("engine is up")
                    .into_iter()
                    .map(|r| r.report)
                    .collect()
            };
            // Warm-up pass (thread spawn, allocator) excluded from timing.
            let mut identical = served(&engine) == reference;
            let start = Instant::now();
            for _ in 0..repeats {
                identical &= served(&engine) == reference;
            }
            let qps = (repeats * probes.len()) as f64 / start.elapsed().as_secs_f64();
            let stats = engine.shutdown();
            let speedup = qps / baseline_qps[bi];
            println!("{workers:>8} {batch:>7} {qps:>12.0} {speedup:>10.2} {identical:>10}");
            rows.push(ThroughputRow {
                workers,
                batch,
                qps,
                speedup_vs_sequential: speedup,
                verdicts_identical: identical,
                engine_batches: stats.batches,
            });
        }
    }
    rule(66);
    assert!(
        rows.iter().all(|r| r.verdicts_identical),
        "a parallel configuration diverged from sequential verdicts"
    );

    // The gated cell: 4 workers at micro-batch 128 should
    // reach >= 3x sequential QPS — judged only on hardware that can
    // physically deliver it (>= 4 threads).
    let speedup_4w_batch128 = rows
        .iter()
        .find(|r| r.workers == 4 && r.batch == 128)
        .map_or(0.0, |r| r.speedup_vs_sequential);
    let meets_3x_target = (parallelism >= 4).then_some(speedup_4w_batch128 >= 3.0);
    match meets_3x_target {
        Some(false) => eprintln!(
            "WARNING: 4 workers / batch 128 reached only \
             {speedup_4w_batch128:.2}x sequential QPS on {parallelism} \
             hardware threads (target >= 3x) — serving regression?"
        ),
        Some(true) => println!("[4w/128 speedup {speedup_4w_batch128:.2}x >= 3x target met]"),
        None => println!(
            "[4w/128 speedup {speedup_4w_batch128:.2}x recorded; 3x target \
             not judged on {parallelism} hardware thread(s)]"
        ),
    }

    let skipped_reason = if meets_3x_target.is_none() {
        Some(format!(
            "only {parallelism} hardware thread(s) available; the 4-worker \
             3x target needs at least 4"
        ))
    } else {
        None
    };

    // Single-thread compiled-vs-walked judging on the same fixture: one
    // shared observation pass, then the compiled class-grouped batch
    // judging vs. the walked row-at-a-time oracle.
    let frozen = naps_serve::FrozenMonitor::freeze(&monitor);
    let pairs = frozen.observe_batch(&mut model, &probes);
    let pair_refs: Vec<(usize, &naps_core::Pattern)> =
        pairs.iter().map(|(p, pat)| (*p, pat)).collect();
    let walk_one = |&(p, pat): &(usize, &naps_core::Pattern)| -> naps_core::MonitorReport {
        match frozen.zone(p) {
            None => naps_core::MonitorReport {
                predicted: p,
                verdict: naps_core::Verdict::Unmonitored,
                distance_to_seeds: None,
            },
            Some(z) => naps_core::MonitorReport {
                predicted: p,
                verdict: if z.zone_snapshot().eval(&pat.to_bools()) {
                    naps_core::Verdict::InPattern
                } else {
                    naps_core::Verdict::OutOfPattern
                },
                distance_to_seeds: z.seed_snapshot().min_hamming_distance(&pat.to_bools()),
            },
        }
    };
    let compiled_reports = frozen.report_batch(&pair_refs);
    let walked_reports: Vec<naps_core::MonitorReport> = pair_refs.iter().map(walk_one).collect();
    let identical = compiled_reports == walked_reports;
    let time_qps = |mut f: Box<dyn FnMut() + '_>| -> f64 {
        let start = Instant::now();
        for _ in 0..repeats {
            f();
        }
        (repeats * pairs.len()) as f64 / start.elapsed().as_secs_f64()
    };
    let walked_qps = time_qps(Box::new(|| {
        std::hint::black_box(pair_refs.iter().map(walk_one).collect::<Vec<_>>());
    }));
    let compiled_qps = time_qps(Box::new(|| {
        std::hint::black_box(frozen.report_batch(&pair_refs));
    }));
    let judge_speedup = compiled_qps / walked_qps;
    println!(
        "[single-thread judge: walked {walked_qps:.0} qps, compiled {compiled_qps:.0} qps \
         ({judge_speedup:.2}x), identical: {identical}]"
    );
    assert!(
        identical,
        "compiled judging diverged from the walked snapshot oracle"
    );
    let compiled_vs_walked = vec![CompiledVsWalkedRow {
        kind: "judge_batch".to_string(),
        walked_qps,
        compiled_qps,
        speedup: judge_speedup,
        verdicts_identical: identical,
    }];

    let result = Throughput {
        schema_version: SCHEMA_VERSION,
        available_parallelism: parallelism,
        hardware_threads: parallelism,
        workload: probes.len(),
        speedup_4w_batch128,
        meets_3x_target,
        skipped_reason,
        rows,
        compiled_vs_walked,
    };
    write_json(&cfg.out_dir, "throughput", &result);
    result
}
