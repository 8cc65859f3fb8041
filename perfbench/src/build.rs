//! `build_digits`: the write side of the monitor.  The dense digits MLP
//! `[784, 320, 160, 80, 40, 10]` (Network 1's dense head), trained for
//! three epochs on clean digits, is served by a 1-worker engine; one
//! thread repeats one operation: build the monitor over the training set,
//! presented in an order drawn from the seed, at fc(80) with γ = 2
//! (Algorithm 1: BDD insertion and γ-enlargement), freeze it, and
//! hot-swap it into the engine.  The quality ratios come from the final
//! epoch on a pool of hard test digits.

use crate::common::{
    bdd_nodes, layer_span_names, quality, replay_layers, serve_figures, setups, span_medians,
    span_seconds, trace_figures, traced_build, Args, EndToEnd, Report, Tally,
};
use crate::measure::{count_allocs, Hist, Rate, Tracer};
use naps_core::prepared::PreparedObserver;
use naps_core::{ActivationMonitor, BddZone, Monitor, MonitorBuilder, MonitorReport, Pattern};
use naps_data::{digits, Dataset};
use naps_nn::{mlp, Adam, ModelSnapshot, Sequential, TrainConfig, Trainer};
use naps_serve::{EngineConfig, FrozenLayeredMonitor, FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const CLASSES: usize = 10;
const TRAIN_PER_CLASS: usize = 120;
/// Hard test digits per class (the quality pool).
const TEST_PER_CLASS: usize = 300;
/// Seed of everything that defines the workload: the training split, the
/// initial weights, the training order and the test pool.  `--seed`
/// decides the order in which the builder sees the training set.  A model
/// trained per seed made the build cost, the memory peak and the quality
/// ratios vary across seeds more than any bound.
const FIXED_SEED: u64 = 1;
const DIMS: [usize; 6] = [784, 320, 160, 80, 40, 10];
const EPOCHS: usize = 3;
/// The ReLU after fc(80) in `mlp(&DIMS)`.
const LAYER: usize = 5;
const GAMMA: u32 = 2;
const SETUPS: usize = 3;
const RATE_WINDOW: Duration = Duration::from_secs(2);
/// Test images per replayed in-process call.
const CALL: usize = 32;

struct Build {
    engine: MonitorEngine,
    monitor: Monitor<BddZone>,
    net: Sequential,
    train: Dataset,
    test: Dataset,
    /// The BDD node total of the first rebuild; every rebuild must match.
    nodes: Option<f64>,
}

fn setup(seed: u64, t: &mut Tracer) -> Build {
    let mut rng = StdRng::seed_from_u64(FIXED_SEED);
    let (train, test) = t.span("data.generate", |_| {
        (
            digits::generate(TRAIN_PER_CLASS, digits::DigitStyle::clean(), &mut rng),
            digits::generate(TEST_PER_CLASS, digits::DigitStyle::hard(), &mut rng),
        )
    });
    let mut net = mlp(&DIMS, &mut rng);
    t.span("nn.train", |_| {
        let trainer = Trainer::new(TrainConfig {
            epochs: EPOCHS,
            batch_size: 32,
            verbose: false,
        });
        trainer.fit(
            &mut net,
            &train.samples,
            &train.labels,
            &mut Adam::new(1e-3),
            &mut rng,
        );
    });
    // The build input: the training set in an order drawn from the seed.
    // The zones do not depend on the order; the insertion work does.
    let mut train = train;
    train.shuffle(&mut StdRng::seed_from_u64(seed));
    let monitor = t.span("core.build", |_| {
        MonitorBuilder::new(LAYER, GAMMA).build::<BddZone>(
            &mut net,
            &train.samples,
            &train.labels,
            CLASSES,
        )
    });
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 1,
            max_batch: 16,
            queue_capacity: 1024,
        },
    )
    .expect("the digits MLP is snapshot-replicable");
    Build {
        engine,
        monitor,
        net,
        train,
        test,
        nodes: None,
    }
}

fn oracle(b: &mut Build) -> Vec<MonitorReport> {
    b.monitor.check_batch(&mut b.net, &b.test.samples)
}

/// One operation: build (traced replica when tracing), freeze, publish.
/// Returns the built monitor, its published epoch and its BDD node total.
fn operation(b: &mut Build, t: &mut Tracer) -> Result<(Monitor<BddZone>, u64, f64), String> {
    let Build {
        engine, net, train, ..
    } = b;
    let monitor = t.span("core.build", |t| {
        if t.enabled() {
            traced_build(net, &train.samples, &train.labels, CLASSES, LAYER, GAMMA, t).0
        } else {
            MonitorBuilder::new(LAYER, GAMMA).build::<BddZone>(
                net,
                &train.samples,
                &train.labels,
                CLASSES,
            )
        }
    });
    let frozen = t.span("serve.freeze", |_| FrozenMonitor::freeze(&monitor));
    let nodes = bdd_nodes(&frozen);
    let epoch = t
        .span("serve.publish", |_| engine.publish(frozen))
        .map_err(|e| format!("publish failed: {e}"))?;
    Ok((monitor, epoch, nodes))
}

/// Repeats the operation until `until`, each an `op` span; every build
/// must have the same BDD node total (the build is a function of the
/// training set).  Returns the last monitor and its epoch.
fn drive(
    b: &mut Build,
    until: Instant,
    max_ops: usize,
    latency: &mut Hist,
    rate: &mut Rate,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Option<(Monitor<BddZone>, u64)>, String> {
    rate.restart(Instant::now());
    let mut last = None;
    let mut ops = 0;
    while Instant::now() < until && ops < max_ops {
        ops += 1;
        let start = Instant::now();
        tally.attempted += 1;
        let done = t.span("op", |t| operation(b, t));
        let now = Instant::now();
        let (monitor, epoch, n) = done.inspect_err(|_| tally.failed += 1)?;
        let first = *b.nodes.get_or_insert(n);
        if first != n {
            tally.failed += 1;
            return Err(format!(
                "a rebuild has {n} BDD nodes, the first had {first}"
            ));
        }
        latency.record(now - start);
        rate.tick(1, now);
        last = Some((monitor, epoch));
    }
    rate.finish(Instant::now());
    Ok(last)
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new(false);
    let (mut b, setup_s) = if args.trace {
        t.set_enabled(true);
        let b = setup(args.seed, &mut t);
        t.set_enabled(false);
        (b, Vec::new())
    } else {
        let fingerprint = |b: &Build| FrozenMonitor::freeze(&b.monitor);
        setups(SETUPS, || setup(args.seed, &mut t), fingerprint, &mut r)
    };
    let verdicts = oracle(&mut b);
    let mut tally = Tally::default();
    let measured = Duration::from_secs(args.seconds);
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut latency = [Hist::new(), Hist::new()];
    let mut rate = Rate::new(RATE_WINDOW);
    // One unmeasured operation first, as warm-up.
    let (mut warm_hist, mut warm_rate) = (Hist::new(), Rate::new(RATE_WINDOW));
    let far = Instant::now() + Duration::from_secs(3600);
    let mut last = drive(
        &mut b,
        far,
        1,
        &mut warm_hist,
        &mut warm_rate,
        &mut t,
        &mut tally,
    );
    for (&traced, hist) in phases.iter().zip(latency.iter_mut()) {
        let Ok(_) = last else { break };
        t.set_enabled(traced);
        let until = Instant::now() + measured / phases.len() as u32;
        last = drive(
            &mut b,
            until,
            usize::MAX,
            hist,
            &mut rate,
            &mut t,
            &mut tally,
        );
    }
    t.set_enabled(false);
    let [latency, traced] = latency;

    // The gate: the engine's verdicts on the test split under the final
    // epoch against the monitor that epoch was built from.
    match last {
        Ok(Some((monitor, epoch))) => {
            let want = monitor.check_batch(&mut b.net, &b.test.samples);
            if want != verdicts {
                r.problem("a rebuilt monitor judges the test split differently from the first");
            }
            match b.engine.check_batch(&b.test.samples) {
                Ok(served) => {
                    for (s, w) in served.iter().zip(&want) {
                        tally.verdict(s.epoch == epoch && s.report == *w);
                    }
                }
                Err(e) => r.problem(format!("check_batch failed: {e}")),
            }
        }
        Ok(None) => r.problem("no operation completed"),
        Err(e) => r.problem(e),
    }

    if args.trace {
        layers(&mut b, &latency, &traced, &mut t, &mut r);
        if let Err(e) = t.write_jsonl(&crate::trace_path(args)) {
            r.note(format!("trace file not written: {e}"));
        }
        r.attempted += tally.attempted;
        r.failed += tally.failures();
    } else {
        b.engine.stop();
        let labels = b.test.labels.clone();
        EndToEnd {
            setup_s,
            rate,
            latency,
            quality: quality(&verdicts, &labels),
            tally,
        }
        .report(&mut r);
    }
    r
}

/// The traced run's per-layer figures: the build, freeze and publish
/// spans of the traced phase, one counted operation, and in-process
/// replays of the serving calls on the test split.
fn layers(b: &mut Build, untraced: &Hist, traced: &Hist, t: &mut Tracer, r: &mut Report) {
    trace_figures(untraced, traced, t, r);
    t.set_enabled(true);
    let ((built, inserted), build_allocs) = count_allocs(|| {
        let mut quiet = Tracer::new(false);
        traced_build(
            &mut b.net,
            &b.train.samples,
            &b.train.labels,
            CLASSES,
            LAYER,
            GAMMA,
            &mut quiet,
        )
    });
    let (frozen, freeze_allocs) = count_allocs(|| FrozenMonitor::freeze(&built));
    let reference = FrozenMonitor::freeze(&b.monitor);
    if frozen.clone().with_epoch(0) != reference.with_epoch(0) {
        r.problem("the traced build differs from MonitorBuilder::build");
    }
    r.metric("bdd.nodes", bdd_nodes(&frozen), "count");
    let (published, publish_allocs) = count_allocs(|| b.engine.publish(frozen));
    if let Err(e) = published {
        r.problem(format!("publish failed: {e}"));
    }
    r.metric("alloc.build_per_op", build_allocs as f64, "count");
    r.metric("alloc.freeze_per_op", freeze_allocs as f64, "count");
    r.metric("alloc.publish_per_op", publish_allocs as f64, "count");
    r.metric("core.patterns_inserted", inserted as f64, "count");

    let served = b.engine.monitor();
    let layered = &FrozenLayeredMonitor::from_single((*served).clone());
    let prepared = &ModelSnapshot::capture(&b.net)
        .expect("the digits MLP is snapshot-replicable")
        .prepare(layered.plan());
    let mut observer = PreparedObserver::new();
    let names = layer_span_names(&b.net);
    let (mut observe_allocs, mut judge_allocs) = (0, 0);
    for (k, call) in b.test.samples.chunks(CALL).enumerate() {
        if let Err(e) = t.span("serve.check", |_| b.engine.check_batch(call)) {
            r.problem(format!("check_batch failed: {e}"));
        }
        let obs = &mut observer;
        let (rows, allocs) = count_allocs(|| {
            t.span("nn.observe", move |_| {
                layered.observe_batch_prepared(prepared, obs, call)
            })
        });
        // The first call warms the prepared observer.
        if k > 0 {
            observe_allocs = allocs;
        }
        let pairs: Vec<(usize, &Pattern)> = rows.iter().map(|(p, pats)| (*p, &pats[0])).collect();
        let (_, allocs) = count_allocs(|| t.span("bdd.judge", |_| served.report_batch(&pairs)));
        judge_allocs = allocs;
        let batch = Tensor::from_vec(
            vec![call.len(), call[0].len()],
            call.iter().flat_map(|x| x.data().iter().copied()).collect(),
        );
        replay_layers(&mut b.net, &names, &batch, t);
    }
    r.metric("alloc.observe_per_op", observe_allocs as f64, "count");
    r.metric("alloc.judge_per_op", judge_allocs as f64, "count");
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
    serve_figures(&b.engine, &b.net, DIMS[0], &names, t, r);
    b.engine.stop();
}
