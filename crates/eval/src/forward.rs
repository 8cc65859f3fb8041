//! The allocation-free serving forward pass vs. the allocating baseline.
//!
//! `check_batch`'s front half — pack the batch, run the plan-observed
//! forward pass, extract per-row patterns — is compute-bound instead of
//! allocator-bound: the model is prepared once at freeze/publish/load
//! ([`naps_nn::PreparedModel`]), and each engine worker owns a
//! [`naps_core::prepared::PreparedObserver`] whose batch / carry /
//! pattern storage is refilled in place across micro-batches.
//!
//! The baseline is the allocating oracle: per micro-batch, one
//! [`naps_core::batch::forward_observe_plan`] over the packed rows (each
//! layer's own `forward`, a fresh tensor per layer), then each monitored
//! layer's pattern read off its planned activations.  Every in-process
//! observer runs the prepared forward too, so the oracle is the one
//! allocating path left to compare against.
//!
//! This experiment drives both paths over three fixtures at the engine's
//! micro-batch sizes — the shared dense serving fixture and the paper's
//! convolutional networks 1 ([`naps_nn::mnist_net`], monitored at
//! fc(40)) and 2 ([`naps_nn::gtsrb_net`], with batch norm, monitored at
//! fc(84)) — measures rows per second before and after, counts heap
//! allocations per micro-batch on each path via the driving binary's
//! counting global allocator, and verifies the prepared rows are
//! **identical** to the allocating path's on the whole workload.  It writes
//! `results/forward.json`; the driving binary exits non-zero when the
//! prepared path allocates at all in steady state on any fixture, when
//! the dense single-row speedup falls below 1.3x, or on any divergence.

use crate::config::RunConfig;
use crate::report::{rule, write_json};
use naps_bench::serving_fixture;
use naps_core::batch::{forward_observe_plan, pack_batch};
use naps_core::prepared::PreparedObserver;
use naps_core::{BddZone, MonitorBuilder, Pattern};
use naps_data::{digits, signs, Dataset};
use naps_nn::{
    gtsrb_net, mnist_net, ModelSnapshot, Sequential, GTSRB_MONITOR_LAYER, MNIST_MONITOR_LAYER,
};
use naps_serve::{FrozenLayeredMonitor, FrozenMonitor};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One micro-batch size, timed on both paths over the same workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForwardRow {
    /// Rows per micro-batch.
    pub batch_size: usize,
    /// Allocating-oracle rows per second (`forward_observe_plan` plus
    /// per-tap `pattern_from`).
    pub allocating_qps: f64,
    /// Prepared-path rows per second (`observe_batch_prepared`).
    pub prepared_qps: f64,
    /// Median over alternating timed rounds of the per-round
    /// prepared-over-allocating speedup.
    pub speedup: f64,
    /// Heap allocations per micro-batch on the allocating path.
    pub allocating_allocs_per_batch: f64,
    /// Heap allocations per micro-batch on the warmed prepared path
    /// (the gated column: must be exactly zero).
    pub prepared_allocs_per_batch: f64,
    /// Whether the prepared rows matched the allocating path's exactly.
    pub identical: bool,
}

/// Both paths on one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForwardFixture {
    /// Which model: `"dense"` (the serving fixture), `"mnist_net"` or
    /// `"gtsrb_net"`.
    pub model: String,
    /// Probe rows driven through each path per timed pass.
    pub workload: usize,
    /// One row per micro-batch size.
    pub rows: Vec<ForwardRow>,
    /// Prepared-path allocations across every steady-state micro-batch
    /// of this fixture.
    pub steady_state_allocs: u64,
    /// Whether every batch size agreed on every row.
    pub all_identical: bool,
}

/// The `schema_version` [`run`] stamps on [`ForwardEval`].
pub const SCHEMA_VERSION: u32 = 2;

/// The full before/after comparison the binary gates on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForwardEval {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// The dense serving fixture, then Network 1, then Network 2.
    pub fixtures: Vec<ForwardFixture>,
    /// Total prepared-path allocations across every steady-state timed
    /// micro-batch of every fixture (the hard gate: zero).
    pub steady_state_allocs: u64,
    /// The gated speedup: dense micro-batches of one row, the
    /// latency-bound serving case where the allocator dominates the
    /// forward pass.
    pub single_row_speedup: f64,
    /// Whether every fixture agreed on every row.
    pub all_identical: bool,
}

/// Times `rounds` alternating passes of the allocating path `alloc` and
/// the prepared path `prep`, each over `rows` rows, swapping which goes
/// first every round.  Returns both paths' rows per second over all
/// rounds and the median of the per-round `prep / alloc` speedups: a
/// host phase change then skews a round or two, not the whole ratio.
fn time_alternating<A, P>(
    rows: usize,
    rounds: usize,
    mut alloc: impl FnMut() -> A,
    mut prep: impl FnMut() -> P,
) -> (f64, f64, f64) {
    fn secs<T>(f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    }
    let (mut alloc_total, mut prep_total) = (0.0, 0.0);
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (ta, tp) = if round % 2 == 0 {
            let ta = secs(&mut alloc);
            (ta, secs(&mut prep))
        } else {
            let tp = secs(&mut prep);
            (secs(&mut alloc), tp)
        };
        alloc_total += ta;
        prep_total += tp;
        ratios.push(ta / tp);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = rounds / 2;
    let median = if rounds % 2 == 1 {
        ratios[mid]
    } else {
        0.5 * (ratios[mid - 1] + ratios[mid])
    };
    let total_rows = (rounds * rows) as f64;
    (total_rows / alloc_total, total_rows / prep_total, median)
}

/// Runs the allocating-vs-prepared comparison on every fixture and
/// writes `results/forward.json`.  `alloc_count` reads the driving
/// binary's counting global allocator (monotone allocation events); the
/// library cannot own the `#[global_allocator]` itself.
pub fn run(cfg: &RunConfig, alloc_count: fn() -> u64) -> ForwardEval {
    println!("== Allocation-free prepared forward pass vs allocating baseline ==");
    let (probes_n, rounds) = if cfg.full { (1920, 25) } else { (480, 101) };
    let (monitor, model, probes) = serving_fixture(6, probes_n, cfg.seed);
    let dense = compare(
        "dense",
        &monitor,
        model,
        &probes,
        &[1, 4, 16],
        rounds,
        alloc_count,
    );

    // The paper's conv networks, untrained (the forward pass costs the
    // same), each monitored at its paper layer from its own predictions.
    // Their workloads are small, so each ratio is the median of at least
    // five alternating rounds: one round let a host phase change swing a
    // batch-1 ratio from 1.13 to 0.91 on unchanged code.
    let (train_per_class, probes_per_class, rounds) = if cfg.full { (6, 10, 7) } else { (2, 4, 5) };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = mnist_net(&mut rng);
    let train = digits::generate(train_per_class, digits::DigitStyle::clean(), &mut rng);
    let probes = digits::generate(probes_per_class, digits::DigitStyle::hard(), &mut rng);
    let conv = conv_fixture(
        "mnist_net",
        net,
        &train,
        &probes,
        MNIST_MONITOR_LAYER,
        rounds,
        alloc_count,
    );

    // Network 2 has 43 classes, so fewer images per class; one training
    // pass moves its batch-norm running statistics off their defaults.
    let (train_per_class, probes_per_class) = if cfg.full { (2, 3) } else { (1, 1) };
    let mut net = gtsrb_net(&mut rng);
    let train = signs::generate(train_per_class, signs::SignStyle::clean(), &mut rng);
    let probes = signs::generate(probes_per_class, signs::SignStyle::hard(), &mut rng);
    net.forward(&pack_batch(&train.samples), true);
    let gtsrb = conv_fixture(
        "gtsrb_net",
        net,
        &train,
        &probes,
        GTSRB_MONITOR_LAYER,
        rounds,
        alloc_count,
    );

    let single_row_speedup = dense
        .rows
        .iter()
        .find(|r| r.batch_size == 1)
        .map_or(0.0, |r| r.speedup);
    let fixtures = vec![dense, conv, gtsrb];
    let steady_state_allocs = fixtures.iter().map(|f| f.steady_state_allocs).sum();
    let all_identical = fixtures.iter().all(|f| f.all_identical);
    println!(
        "[dense single-row speedup {single_row_speedup:.2}x, steady-state prepared \
         allocations {steady_state_allocs}, all identical: {all_identical}]"
    );

    let result = ForwardEval {
        schema_version: SCHEMA_VERSION,
        fixtures,
        steady_state_allocs,
        single_row_speedup,
        all_identical,
    };
    write_json(&cfg.out_dir, "forward", &result);
    result
}

/// Monitors `net` at `layer` (γ = 1) from its own predictions on
/// `train`, then compares both paths on `probes` at batch sizes 1, 8, 32.
fn conv_fixture(
    name: &str,
    mut net: Sequential,
    train: &Dataset,
    probes: &Dataset,
    layer: usize,
    rounds: usize,
    alloc_count: fn() -> u64,
) -> ForwardFixture {
    let labels: Vec<usize> = train
        .samples
        .iter()
        .map(|x| net.predict(&x.clone().reshape(vec![1, x.len()]))[0])
        .collect();
    let monitor = MonitorBuilder::new(layer, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &labels,
        train.num_classes,
    );
    compare(
        name,
        &monitor,
        net,
        &probes.samples,
        &[1, 8, 32],
        rounds,
        alloc_count,
    )
}

/// The allocating oracle of one micro-batch: one `forward_observe_plan`
/// over the packed `chunk`, then each monitored layer's pattern read off
/// its planned activations — the rows
/// [`FrozenLayeredMonitor::observe_batch_prepared`] must equal.
fn observe_allocating(
    frozen: &FrozenLayeredMonitor,
    model: &mut Sequential,
    chunk: &[Tensor],
) -> Vec<(usize, Vec<Pattern>)> {
    let plan = frozen.plan();
    let batch = forward_observe_plan(model, &pack_batch(chunk), plan);
    let row = |r: usize| -> Vec<Pattern> {
        frozen
            .layers()
            .iter()
            .map(|m| {
                let slot = plan
                    .position(m.layer())
                    .expect("monitored layer is planned");
                m.selection().pattern_from(batch.observed[slot].row(r))
            })
            .collect()
    };
    (0..chunk.len())
        .map(|r| (batch.predicted[r], row(r)))
        .collect()
}

/// Drives the allocating and the prepared observe path over `probes` in
/// micro-batches of each size: identity first, then allocations per
/// micro-batch, then rows per second over alternating rounds.
fn compare(
    name: &str,
    monitor: &naps_core::Monitor<BddZone>,
    mut model: Sequential,
    probes: &[Tensor],
    batch_sizes: &[usize],
    rounds: usize,
    alloc_count: fn() -> u64,
) -> ForwardFixture {
    let frozen = FrozenLayeredMonitor::from_single(FrozenMonitor::freeze(monitor));
    // The cold half, once: capture the frozen weights and prepare them
    // against the monitor's observation plan — exactly what the engine
    // does per replica at construction.
    let snapshot = ModelSnapshot::capture(&model).expect("built-in layers capture");
    let prepared = snapshot.prepare(frozen.plan());
    let mut observer = PreparedObserver::new();

    let mut rows = Vec::new();
    let mut steady_state_allocs = 0u64;
    println!("-- {name}: {} probe rows --", probes.len());
    rule(78);
    println!(
        "{:>6} {:>14} {:>14} {:>8} {:>12} {:>12} {:>6}",
        "batch", "alloc qps", "prepared qps", "speedup", "allocs/b", "prep allocs", "same"
    );
    rule(78);
    for &bs in batch_sizes {
        let batches: Vec<&[Tensor]> = probes.chunks(bs).collect();
        let n_batches = batches.len();

        // Equivalence first: every prepared row must equal the
        // allocating oracle's on the whole workload.
        let mut identical = true;
        for chunk in &batches {
            let want = observe_allocating(&frozen, &mut model, chunk);
            let got = frozen.observe_batch_prepared(&prepared, &mut observer, chunk);
            if got != &want[..] {
                identical = false;
            }
        }

        // Allocation census: allocations per micro-batch on each path.
        // The prepared observer is already warm from the equivalence
        // sweep above, so everything it does now is steady state.
        let before = alloc_count();
        for chunk in &batches {
            std::hint::black_box(observe_allocating(&frozen, &mut model, chunk));
        }
        let allocating_allocs = alloc_count() - before;
        let before = alloc_count();
        for chunk in &batches {
            std::hint::black_box(frozen.observe_batch_prepared(&prepared, &mut observer, chunk));
        }
        let prepared_allocs = alloc_count() - before;
        steady_state_allocs += prepared_allocs;

        let (allocating_qps, prepared_qps, speedup) = time_alternating(
            probes.len(),
            rounds,
            || {
                batches
                    .iter()
                    .map(|chunk| observe_allocating(&frozen, &mut model, chunk).len())
                    .sum::<usize>()
            },
            || {
                batches
                    .iter()
                    .map(|chunk| {
                        frozen
                            .observe_batch_prepared(&prepared, &mut observer, chunk)
                            .len()
                    })
                    .sum::<usize>()
            },
        );
        let allocating_allocs_per_batch = allocating_allocs as f64 / n_batches as f64;
        let prepared_allocs_per_batch = prepared_allocs as f64 / n_batches as f64;
        println!(
            "{bs:>6} {allocating_qps:>14.0} {prepared_qps:>14.0} {speedup:>8.2} \
             {allocating_allocs_per_batch:>12.1} {prepared_allocs_per_batch:>12.1} \
             {identical:>6}"
        );
        rows.push(ForwardRow {
            batch_size: bs,
            allocating_qps,
            prepared_qps,
            speedup,
            allocating_allocs_per_batch,
            prepared_allocs_per_batch,
            identical,
        });
    }
    rule(78);
    let all_identical = rows.iter().all(|r| r.identical);
    ForwardFixture {
        model: name.to_owned(),
        workload: probes.len(),
        rows,
        steady_state_allocs,
        all_identical,
    }
}
