//! `wire_small`: the per-request serving overhead.  One client keeps a
//! window of 8 `check` requests outstanding on one loopback connection
//! to a gateway over a 1-worker engine; the model is the serving
//! fixture's ring MLP `[16, 96, 48, 6]` at γ = 1.  Forward plus judge
//! cost about 2 µs per request, so the codec, the socket calls and the
//! engine's queue do nearly all the work.

use crate::common::{
    bdd_nodes, layer_span_names, quality, replay_layers, serve_figures, setups, span_medians,
    span_seconds, trace_figures, Args, EndToEnd, Report, Tally,
};
use crate::measure::{count_allocs, median, Hist, Rate, Tracer};
use naps_core::prepared::PreparedObserver;
use naps_core::{BddZone, Monitor, MonitorReport};
use naps_gateway::{
    decode_response, encode_request, encode_response, Gateway, GatewayClient, GatewayConfig,
    Rejection, Request, RequestKind, Response,
};
use naps_nn::{ModelSnapshot, Sequential};
use naps_serve::{EngineConfig, EpochReport, FrozenLayeredMonitor, FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLASSES: usize = 6;
const IN_DIM: usize = 16;
/// Ring probes served in a cycle; also the quality pool.
const PROBES: usize = 3000;
/// Requests kept outstanding: enough that the client never waits on a
/// single in-flight request (whose latency is bimodal on small hosts).
const WINDOW: usize = 8;
const SETUPS: usize = 5;
/// Seed of everything that defines the workload: the fixture's model and
/// the probe pool.  `--seed` decides the order in which the probes are
/// sent.  A model trained per seed made the quality ratios and costs vary
/// across seeds more than any bound.
const FIXED_SEED: u64 = 11;
const WARMUP: Duration = Duration::from_millis(500);
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// In-process replays per traced layer call.
const REPLAYS: usize = 2000;

struct Wire {
    engine: Arc<MonitorEngine>,
    gateway: Gateway,
    client: GatewayClient,
    monitor: Monitor<BddZone>,
    net: Sequential,
    probes: Vec<Tensor>,
    labels: Vec<usize>,
}

/// The probe pool in an order drawn from `seed`.  Each probe is a class,
/// its ring centre (the serving fixture's training distribution), and
/// uniform noise whose amplitude cycles through in-distribution (0.25,
/// the fixture's own jitter), near (0.6) and far (3.0).  The label is the
/// class.
fn ring_probes(seed: u64) -> (Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(FIXED_SEED);
    let mut probes = Vec::with_capacity(PROBES);
    let mut labels = Vec::with_capacity(PROBES);
    for p in 0..PROBES {
        let class = rng.gen_range(0..CLASSES);
        let amplitude = [0.25f32, 0.6, 3.0][p % 3];
        let phase = class as f32 * std::f32::consts::TAU / CLASSES as f32;
        let data = (0..IN_DIM)
            .map(|i| (phase + i as f32 * 0.6).sin() * 2.0 + amplitude * rng.gen_range(-1.0f32..1.0))
            .collect();
        probes.push(Tensor::from_vec(vec![IN_DIM], data));
        labels.push(class);
    }
    let mut order: Vec<usize> = (0..PROBES).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
        .iter()
        .map(|&i| (probes[i].clone(), labels[i]))
        .unzip()
}

fn setup(seed: u64, t: &mut Tracer) -> Wire {
    // The fixture generates its ring training set, trains and builds the
    // monitor in one call, so the trace reports it whole as training.
    let (monitor, net, _) = t.span("nn.train", |_| {
        naps_bench::serving_fixture(CLASSES, 0, FIXED_SEED)
    });
    let (probes, labels) = t.span("data.generate", |_| ring_probes(seed));
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 1,
            max_batch: 16,
            queue_capacity: 1024,
        },
    )
    .expect("the ring MLP is snapshot-replicable");
    let engine = Arc::new(engine);
    let config = GatewayConfig {
        metrics: false,
        ..GatewayConfig::default()
    };
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind a loopback port");
    let client = GatewayClient::connect(gateway.local_addr()).expect("connect to the gateway");
    Wire {
        engine,
        gateway,
        client,
        monitor,
        net,
        probes,
        labels,
    }
}

fn oracle(w: &mut Wire) -> Vec<MonitorReport> {
    FrozenMonitor::freeze(&w.monitor).check_batch(&mut w.net, &w.probes)
}

/// One closed loop's bookkeeping: the send instant and probe of each
/// outstanding request (indexed by correlation id), and where results go.
struct Loop<'a> {
    oracle: &'a [MonitorReport],
    epoch: u64,
    sent: [(Instant, usize); 2 * WINDOW],
    latency: &'a mut Hist,
    rate: &'a mut Rate,
    tally: &'a mut Tally,
}

impl Loop<'_> {
    fn send(&mut self, w: &mut Wire, cursor: &mut usize, t: &mut Tracer) -> Result<(), String> {
        let p = *cursor % PROBES;
        *cursor += 1;
        let at = Instant::now();
        let id = t
            .span("gateway.send", |_| {
                w.client.send(RequestKind::Check, None, &w.probes[p])
            })
            .map_err(|e| format!("send failed: {e}"))?;
        self.sent[id as usize % self.sent.len()] = (at, p);
        self.tally.attempted += 1;
        Ok(())
    }

    fn receive(&mut self, w: &mut Wire, t: &mut Tracer, record: bool) -> Result<(), String> {
        let (id, resp) = t
            .span("gateway.recv_wait", |_| w.client.recv())
            .map_err(|e| format!("recv failed: {e}"))?;
        let now = Instant::now();
        let (at, p) = self.sent[id as usize % self.sent.len()];
        match resp {
            Response::Single(EpochReport { epoch, report, .. }) => {
                self.tally
                    .verdict(epoch == self.epoch && report == self.oracle[p]);
            }
            Response::Rejected(Rejection::Saturated) => self.tally.failed += 1,
            _ => self.tally.verdict(false),
        }
        if record {
            self.latency.record(now - at);
            self.rate.tick(1, now);
        }
        Ok(())
    }
}

/// The closed loop: keeps `WINDOW` requests outstanding until `until`,
/// timing each from its send to its response, then drains the window.
/// Each step (receive one response, send the next request) is an `op`
/// span with `gateway.recv_wait` and `gateway.send` children.
fn pipeline(
    w: &mut Wire,
    cursor: &mut usize,
    until: Instant,
    mut l: Loop<'_>,
    t: &mut Tracer,
) -> Result<(), String> {
    for _ in 0..WINDOW {
        l.send(w, cursor, t)?;
    }
    l.rate.restart(Instant::now());
    while Instant::now() < until {
        t.span("op", |t| -> Result<(), String> {
            l.receive(w, t, true)?;
            l.send(w, cursor, t)
        })?;
    }
    l.rate.finish(Instant::now());
    for _ in 0..WINDOW {
        l.receive(w, t, false)?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new(false);
    let (mut w, setup_s) = if args.trace {
        t.set_enabled(true);
        let w = setup(args.seed, &mut t);
        t.set_enabled(false);
        (w, Vec::new())
    } else {
        let fingerprint = |w: &Wire| FrozenMonitor::freeze(&w.monitor);
        setups(SETUPS, || setup(args.seed, &mut t), fingerprint, &mut r)
    };
    let verdicts = oracle(&mut w);
    let epoch = w.engine.epoch();
    let mut tally = Tally::default();
    let mut cursor = 0usize;
    let measured = Duration::from_secs(args.seconds);
    // A traced run splits its time between an untraced and a traced
    // phase of the same loop; their p50 ratio is the tracing overhead.
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let (mut warm_hist, mut warm_rate) = (Hist::new(), Rate::new(RATE_WINDOW));
    let mut latency = [Hist::new(), Hist::new()];
    let mut rate = Rate::new(RATE_WINDOW);
    let mut run = pipeline(
        &mut w,
        &mut cursor,
        Instant::now() + WARMUP,
        Loop {
            oracle: &verdicts,
            epoch,
            sent: [(Instant::now(), 0); 2 * WINDOW],
            latency: &mut warm_hist,
            rate: &mut warm_rate,
            tally: &mut tally,
        },
        &mut t,
    );
    for (&traced, hist) in phases.iter().zip(latency.iter_mut()) {
        if run.is_err() {
            break;
        }
        t.set_enabled(traced);
        let phase = measured / phases.len() as u32;
        run = pipeline(
            &mut w,
            &mut cursor,
            Instant::now() + phase,
            Loop {
                oracle: &verdicts,
                epoch,
                sent: [(Instant::now(), 0); 2 * WINDOW],
                latency: hist,
                rate: &mut rate,
                tally: &mut tally,
            },
            &mut t,
        );
    }
    if let Err(e) = run {
        r.problem(e);
    }
    let [latency, traced] = latency;

    if args.trace {
        layers(&mut w, &verdicts, epoch, &latency, &traced, &mut t, &mut r);
        if let Err(e) = t.write_jsonl(&crate::trace_path(args)) {
            r.note(format!("trace file not written: {e}"));
        }
    }
    let Wire {
        engine,
        gateway,
        client,
        labels,
        ..
    } = w;
    drop(client);
    let stats = gateway.shutdown();
    engine.stop();
    let unanswered = stats.accepted.abs_diff(stats.answered);
    if stats.shed > 0 || unanswered > 0 {
        r.problem(format!(
            "gateway shed {} and left {unanswered} requests unanswered",
            stats.shed
        ));
    }
    if args.trace {
        r.metric("gateway.shed", stats.shed as f64, "count");
        r.metric("gateway.unanswered", unanswered as f64, "count");
        r.attempted += tally.attempted;
        r.failed += tally.failures();
    } else {
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

/// The traced run's per-layer figures: the wire spans of the traced
/// phase, then in-process replays of each layer call on the same probes.
fn layers(
    w: &mut Wire,
    verdicts: &[MonitorReport],
    epoch: u64,
    untraced: &Hist,
    traced: &Hist,
    t: &mut Tracer,
    r: &mut Report,
) {
    trace_figures(untraced, traced, t, r);

    t.set_enabled(true);
    let frozen = FrozenMonitor::freeze(&w.monitor);
    let layered = &FrozenLayeredMonitor::from_single(frozen.clone());
    let prepared = &ModelSnapshot::capture(&w.net)
        .expect("the ring MLP is snapshot-replicable")
        .prepare(layered.plan());
    let mut observer = PreparedObserver::new();
    let names = layer_span_names(&w.net);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let mut counts = [Vec::new(), Vec::new(), Vec::new()];
    for k in 0..REPLAYS {
        let p = k % PROBES;
        let probe = std::slice::from_ref(&w.probes[p]);
        let request = Request {
            id: k as u64,
            kind: RequestKind::Check,
            query: None,
            input: w.probes[p].data().to_vec(),
        };
        let answer = Response::Single(EpochReport {
            epoch,
            report: verdicts[p].clone(),
            graded: None,
        });
        let payload = encode_response(k as u64, &answer).expect("a verdict encodes");
        let (decoded, codec_allocs) = count_allocs(|| {
            let req = t.span("gateway.encode", |_| encode_request(&request));
            let resp = t.span("gateway.decode", |_| decode_response(&payload));
            (req, resp)
        });
        match decoded {
            (Ok(bytes), Ok((_, resp))) if resp == answer => {
                request_bytes = bytes.len();
                response_bytes = payload.len();
            }
            _ => r.problem("the codec did not round-trip a verdict"),
        }
        t.span("serve.check", |_| w.engine.check(&w.probes[p]))
            .map_err(|e| r.problem(format!("in-process check failed: {e}")))
            .ok();
        let obs = &mut observer;
        let (rows, observe_allocs) = count_allocs(|| {
            t.span("nn.observe", move |_| {
                layered.observe_batch_prepared(prepared, obs, probe)
            })
        });
        let (pred, pattern) = (rows[0].0, &rows[0].1[0]);
        let (judged, judge_allocs) =
            count_allocs(|| t.span("bdd.judge", |_| frozen.report_batch(&[(pred, pattern)])));
        if judged[0] != verdicts[p] {
            r.problem("the in-process replay disagrees with the oracle");
        }
        replay_layers(
            &mut w.net,
            &names,
            &Tensor::from_vec(vec![1, IN_DIM], probe[0].data().to_vec()),
            t,
        );
        // The first replays warm the prepared observer; count the rest.
        if k >= 16 {
            counts[0].push(observe_allocs as f64);
            counts[1].push(judge_allocs as f64);
            counts[2].push(codec_allocs as f64);
        }
    }
    r.metric("gateway.request_bytes", request_bytes as f64, "bytes");
    r.metric("gateway.response_bytes", response_bytes as f64, "bytes");
    for (metric, c) in [
        "alloc.observe_per_op",
        "alloc.judge_per_op",
        "alloc.codec_per_op",
    ]
    .into_iter()
    .zip(&counts)
    {
        r.metric(metric, median(c).unwrap_or(f64::NAN), "count");
    }

    let (mut freeze_allocs, mut publish_allocs) = (0, 0);
    for _ in 0..5 {
        let (f, allocs) =
            count_allocs(|| t.span("serve.freeze", |_| FrozenMonitor::freeze(&w.monitor)));
        freeze_allocs = allocs;
        let (published, allocs) = count_allocs(|| t.span("serve.publish", |_| w.engine.publish(f)));
        publish_allocs = allocs;
        if let Err(e) = published {
            r.problem(format!("publish failed: {e}"));
        }
    }
    r.metric("alloc.freeze_per_op", freeze_allocs as f64, "count");
    r.metric("alloc.publish_per_op", publish_allocs as f64, "count");
    r.metric("bdd.nodes", bdd_nodes(&frozen), "count");
    span_medians(
        t,
        [
            ("gateway.send_us", "gateway.send"),
            ("gateway.recv_wait_us", "gateway.recv_wait"),
            ("gateway.encode_us", "gateway.encode"),
            ("gateway.decode_us", "gateway.decode"),
            ("serve.freeze_us", "serve.freeze"),
            ("serve.publish_us", "serve.publish"),
        ],
        r,
    );
    span_seconds(
        t,
        [
            ("nn.train_s", "nn.train"),
            ("data.generate_s", "data.generate"),
        ],
        r,
    );
    serve_figures(&w.engine, &w.net, IN_DIM, &names, t, r);
}
