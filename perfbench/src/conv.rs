//! `conv_digits`: the paper's own network, dominated by compute.
//! Network 1 (conv40-pool-conv20-pool-fc320-160-80-40-10), trained for
//! one epoch on clean digits and monitored at fc(40) with γ = 1, is
//! served by a 1-worker engine; one caller sends `check_batch` calls of
//! 32 hard digits, the pool shuffled by the seed.  The conv forward pass (`im2col` plus the
//! blocked GEMM) is nearly all of each call, and conv models still take
//! the engine's live, allocating path.

use crate::common::{
    bdd_nodes, layer_span_names, quality, replay_layers, replicate, serve_figures, setups,
    span_medians, span_seconds, trace_figures, traced_build, Args, EndToEnd, Report, Tally,
};
use crate::measure::{count_allocs, Hist, Rate, Tracer};
use naps_core::{BddZone, MonitorBuilder, MonitorReport, Pattern};
use naps_data::{digits, Dataset};
use naps_nn::{mnist_net, Adam, Sequential, TrainConfig, Trainer, MNIST_MONITOR_LAYER};
use naps_serve::{EngineConfig, FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const CLASSES: usize = 10;
const TRAIN_PER_CLASS: usize = 120;
/// Hard digits per class in the served pool, which is also the quality
/// pool.
const TEST_PER_CLASS: usize = 256;
/// Seed of everything that defines the workload: the training split, the
/// initial weights, the training order and the hard pool.  `--seed`
/// shuffles the pool, so it decides which 32 digits make each call.  A
/// model trained per seed made the quality ratios vary across seeds more
/// than any bound; a pool drawn per seed made them vary by 7–10%.
const FIXED_SEED: u64 = 1;
/// Images per `check_batch` call.
const CALL: usize = 32;
const SETUPS: usize = 3;
const GAMMA: u32 = 1;
/// Unmeasured calls before the measured phase.
const WARMUP_CALLS: usize = 5;
const RATE_WINDOW: Duration = Duration::from_secs(1);
/// Calls replayed in-process per traced layer call.
const REPLAYS: usize = 10;

struct Conv {
    engine: MonitorEngine,
    frozen: FrozenMonitor,
    /// The oracle's copy of the model (the engine owns a replica).
    net: Sequential,
    train: Dataset,
    calls: Vec<Vec<Tensor>>,
    labels: Vec<usize>,
    /// The oracle's verdict on every image of `calls`, in order.
    oracle: Vec<MonitorReport>,
    /// The next call to issue.
    cursor: usize,
}

fn setup(seed: u64, t: &mut Tracer) -> Conv {
    let mut rng = StdRng::seed_from_u64(FIXED_SEED);
    let (train, test) = t.span("data.generate", |_| {
        let train = digits::generate(TRAIN_PER_CLASS, digits::DigitStyle::clean(), &mut rng);
        let mut test = digits::generate(TEST_PER_CLASS, digits::DigitStyle::hard(), &mut rng);
        test.shuffle(&mut StdRng::seed_from_u64(seed));
        (train, test)
    });
    let mut net = mnist_net(&mut rng);
    t.span("nn.train", |_| {
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 32,
            verbose: false,
        });
        let samples = &train.samples;
        trainer.fit(
            &mut net,
            samples,
            &train.labels,
            &mut Adam::new(1.5e-3),
            &mut rng,
        );
    });
    let monitor = t.span("core.build", |_| {
        MonitorBuilder::new(MNIST_MONITOR_LAYER, GAMMA).build::<BddZone>(
            &mut net,
            &train.samples,
            &train.labels,
            CLASSES,
        )
    });
    let frozen = t.span("serve.freeze", |_| FrozenMonitor::freeze(&monitor));
    let engine = MonitorEngine::with_replicas(
        frozen.clone(),
        vec![replicate(&net)],
        EngineConfig {
            workers: 1,
            max_batch: CALL,
            queue_capacity: 1024,
        },
    )
    .expect("a 1-worker engine with one replica");
    let calls = test.samples.chunks(CALL).map(<[Tensor]>::to_vec).collect();
    Conv {
        engine,
        frozen,
        net,
        train,
        calls,
        labels: test.labels,
        oracle: Vec::new(),
        cursor: 0,
    }
}

fn oracle(c: &mut Conv) -> Vec<MonitorReport> {
    let Conv {
        frozen, net, calls, ..
    } = c;
    calls
        .iter()
        .flat_map(|call| frozen.check_batch(net, call))
        .collect()
}

/// Issues `check_batch` calls in turn until `until` (or `max_calls`),
/// each an `op` span with a `serve.check` child, and verifies every
/// verdict against the oracle.
fn drive(
    c: &mut Conv,
    until: Instant,
    max_calls: usize,
    latency: &mut Hist,
    rate: &mut Rate,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    rate.restart(Instant::now());
    let mut calls = 0;
    while Instant::now() < until && calls < max_calls {
        let k = c.cursor % c.calls.len();
        c.cursor += 1;
        calls += 1;
        let start = Instant::now();
        let served = t.span("op", |t| {
            t.span("serve.check", |_| c.engine.check_batch(&c.calls[k]))
        });
        let now = Instant::now();
        tally.attempted += CALL as u64;
        let served = served.map_err(|e| {
            tally.failed += CALL as u64;
            format!("check_batch failed: {e}")
        })?;
        for (i, s) in served.iter().enumerate() {
            let epoch = c.frozen.epoch();
            tally.verdict(s.epoch == epoch && s.report == c.oracle[k * CALL + i]);
        }
        latency.record(now - start);
        rate.tick(CALL as u64, now);
    }
    rate.finish(Instant::now());
    Ok(())
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new(false);
    let (mut c, setup_s) = if args.trace {
        t.set_enabled(true);
        let c = setup(args.seed, &mut t);
        t.set_enabled(false);
        (c, Vec::new())
    } else {
        let fingerprint = |c: &Conv| c.frozen.clone();
        setups(SETUPS, || setup(args.seed, &mut t), fingerprint, &mut r)
    };
    c.oracle = oracle(&mut c);
    let mut tally = Tally::default();
    let measured = Duration::from_secs(args.seconds);
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut latency = [Hist::new(), Hist::new()];
    let mut rate = Rate::new(RATE_WINDOW);
    let (mut warm_hist, mut warm_rate) = (Hist::new(), Rate::new(RATE_WINDOW));
    let far = Instant::now() + Duration::from_secs(3600);
    let mut run = drive(
        &mut c,
        far,
        WARMUP_CALLS,
        &mut warm_hist,
        &mut warm_rate,
        &mut t,
        &mut tally,
    );
    for (&traced, hist) in phases.iter().zip(latency.iter_mut()) {
        if run.is_err() {
            break;
        }
        t.set_enabled(traced);
        let until = Instant::now() + measured / phases.len() as u32;
        run = drive(
            &mut c,
            until,
            usize::MAX,
            hist,
            &mut rate,
            &mut t,
            &mut tally,
        );
    }
    if let Err(e) = run {
        r.problem(e);
    }
    let [latency, traced] = latency;
    if args.trace {
        layers(c, &latency, &traced, &mut t, &mut r);
        if let Err(e) = t.write_jsonl(&crate::trace_path(args)) {
            r.note(format!("trace file not written: {e}"));
        }
        r.attempted += tally.attempted;
        r.failed += tally.failures();
    } else {
        c.engine.stop();
        EndToEnd {
            setup_s,
            rate,
            latency,
            quality: quality(&c.oracle, &c.labels),
            tally,
        }
        .report(&mut r);
    }
    r
}

/// The traced run's per-layer figures: in-process replays of each layer
/// call on the served batches, a traced monitor build over the training
/// set, freeze and publish.
fn layers(mut c: Conv, untraced: &Hist, traced: &Hist, t: &mut Tracer, r: &mut Report) {
    trace_figures(untraced, traced, t, r);
    t.set_enabled(true);
    let names = layer_span_names(&c.net);
    let (mut observe_allocs, mut judge_allocs) = (0, 0);
    for k in 0..REPLAYS {
        let call = &c.calls[k % c.calls.len()];
        let (observed, allocs) =
            count_allocs(|| t.span("nn.observe", |_| c.frozen.observe_batch(&mut c.net, call)));
        observe_allocs = allocs;
        let pairs: Vec<(usize, &Pattern)> = observed.iter().map(|(p, pat)| (*p, pat)).collect();
        let (_, allocs) = count_allocs(|| t.span("bdd.judge", |_| c.frozen.report_batch(&pairs)));
        judge_allocs = allocs;
        let feat = call[0].len();
        let batch = Tensor::from_vec(
            vec![call.len(), feat],
            call.iter().flat_map(|x| x.data().iter().copied()).collect(),
        );
        replay_layers(&mut c.net, &names, &batch, t);
    }
    r.metric("alloc.observe_per_op", observe_allocs as f64, "count");
    r.metric("alloc.judge_per_op", judge_allocs as f64, "count");

    let ((rebuilt, inserted), build_allocs) = count_allocs(|| {
        t.span("core.build", |t| {
            traced_build(
                &mut c.net,
                &c.train.samples,
                &c.train.labels,
                CLASSES,
                MNIST_MONITOR_LAYER,
                GAMMA,
                t,
            )
        })
    });
    let (frozen, freeze_allocs) =
        count_allocs(|| t.span("serve.freeze", |_| FrozenMonitor::freeze(&rebuilt)));
    if frozen != c.frozen {
        r.problem("the traced build differs from MonitorBuilder::build");
    }
    let (published, publish_allocs) =
        count_allocs(|| t.span("serve.publish", |_| c.engine.publish(frozen)));
    if let Err(e) = published {
        r.problem(format!("publish failed: {e}"));
    }
    r.metric("alloc.build_per_op", build_allocs as f64, "count");
    r.metric("alloc.freeze_per_op", freeze_allocs as f64, "count");
    r.metric("alloc.publish_per_op", publish_allocs as f64, "count");
    r.metric("core.patterns_inserted", inserted as f64, "count");
    span_medians(
        t,
        [
            ("core.insert_us", "core.insert"),
            ("core.enlarge_us", "core.enlarge"),
            ("serve.freeze_us", "serve.freeze"),
            ("serve.publish_us", "serve.publish"),
        ],
        r,
    );
    span_seconds(
        t,
        [
            ("core.build_s", "core.build"),
            ("nn.train_s", "nn.train"),
            ("data.generate_s", "data.generate"),
        ],
        r,
    );
    serve_figures(&c.engine, &c.net, c.calls[0][0].len(), &names, t, r);
    r.metric("bdd.nodes", bdd_nodes(&c.frozen), "count");
    c.engine.stop();
}
