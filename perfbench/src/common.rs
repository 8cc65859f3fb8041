//! What the workloads share: the run report, the quality and
//! verification tallies, repeated set-up, and model helpers (replication,
//! per-layer replay, shape-derived work counts, the traced monitor build).

use crate::measure::{median, peak_rss_mb, Hist, Rate, Tracer};
use naps_core::batch::{forward_observe_plan, ObservationPlan, ObservedBatch};
use naps_core::{BddZone, Monitor, MonitorReport, NeuronSelection, Verdict, Zone};
use naps_nn::{Conv2d, Dense, Flatten, MaxPool2d, Relu, Sequential};
use naps_serve::{FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use std::time::Instant;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One run's result: operations attempted and failed, the problems that
/// make it incorrect, its metrics, and human-readable notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }
}

/// Served verdicts compared with the sequential oracle, and operations
/// attempted and failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub compared: u64,
    pub matched: u64,
}

impl Tally {
    /// Records whether one served verdict (report and epoch) matched the
    /// oracle's.
    pub fn verdict(&mut self, same: bool) {
        self.compared += 1;
        self.matched += u64::from(same);
    }

    /// Failed operations: errors, sheds and oracle mismatches.
    pub fn failures(&self) -> u64 {
        self.failed + (self.compared - self.matched)
    }
}

/// The paper's two quality figures over a workload's input pool:
/// `recall` is the share of misclassified inputs flagged out-of-pattern,
/// `false_warning` the share of correctly classified inputs flagged.
pub struct Quality {
    pub recall: f64,
    pub false_warning: f64,
    pub misclassified: usize,
    pub inputs: usize,
}

pub fn quality(reports: &[MonitorReport], labels: &[usize]) -> Quality {
    let (mut wrong, mut wrong_flagged, mut right, mut right_flagged) = (0usize, 0, 0usize, 0);
    for (r, &label) in reports.iter().zip(labels) {
        let flagged = r.verdict == Verdict::OutOfPattern;
        if r.predicted == label {
            right += 1;
            right_flagged += usize::from(flagged);
        } else {
            wrong += 1;
            wrong_flagged += usize::from(flagged);
        }
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Quality {
        recall: ratio(wrong_flagged, wrong),
        false_warning: ratio(right_flagged, right),
        misclassified: wrong,
        inputs: reports.len(),
    }
}

/// Builds the workload state `n` times, timing each build, and returns
/// the last state with the build times in seconds.  Every build must give
/// the same `fingerprint` (the frozen monitor: set-up is a function of
/// the seed); a difference is reported as a problem.
pub fn setups<S, F: PartialEq>(
    n: usize,
    mut build: impl FnMut() -> S,
    fingerprint: impl Fn(&S) -> F,
    report: &mut Report,
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut kept: Option<(S, F)> = None;
    for i in 0..n.max(1) {
        let start = Instant::now();
        let state = build();
        times.push(start.elapsed().as_secs_f64());
        let print = fingerprint(&state);
        if kept.as_ref().is_some_and(|(_, first)| *first != print) {
            report.problem(format!(
                "set-up {i} built another monitor than set-up 0 from the same seed"
            ));
        }
        kept = Some((state, print));
    }
    (kept.expect("at least one set-up ran").0, times)
}

/// Everything an untraced run measures, reported as the eight end-to-end
/// metrics.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub rate: Rate,
    pub latency: Hist,
    pub quality: Quality,
    pub tally: Tally,
}

impl EndToEnd {
    pub fn report(self, r: &mut Report) {
        let EndToEnd {
            setup_s,
            rate,
            latency,
            quality,
            tally,
        } = self;
        r.attempted += tally.attempted;
        r.failed += tally.failures();
        if tally.compared == 0 || latency.len() == 0 || rate.windows() == 0 {
            r.problem("the measured phase completed no operation");
            return;
        }
        if quality.misclassified == 0 || quality.recall == 0.0 || quality.false_warning == 0.0 {
            r.problem(format!(
                "a quality ratio is zero (recall {}, false warnings {}, {} of {} misclassified)",
                quality.recall, quality.false_warning, quality.misclassified, quality.inputs
            ));
        }
        let verified = tally.matched as f64 / tally.compared as f64;
        if tally.matched != tally.compared {
            r.problem(format!(
                "{} of {} served verdicts differ from the sequential oracle",
                tally.compared - tally.matched,
                tally.compared
            ));
        }
        r.note(format!(
            "latency samples {}, throughput windows {}, set-ups {:?} s, quality over {} inputs ({} misclassified)",
            latency.len(),
            rate.windows(),
            setup_s,
            quality.inputs,
            quality.misclassified
        ));
        let q = |p: f64| latency.quantile_us(p).unwrap_or(f64::NAN);
        r.note(format!(
            "latency p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} us",
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9)
        ));
        r.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        r.metric("ops_per_s", rate.median().unwrap_or(f64::NAN), "1/s");
        r.metric("latency_p50_us", q(0.5), "us");
        r.metric("latency_p90_us", q(0.9), "us");
        match peak_rss_mb() {
            Some(mb) => r.metric("peak_rss_mb", mb, "MB"),
            None => r.problem("no VmHWM in /proc/self/status"),
        }
        r.metric("warning_recall", quality.recall, "ratio");
        r.metric("false_warning_ratio", quality.false_warning, "ratio");
        r.metric("verified_ratio", verified, "ratio");
    }
}

/// Reports what a traced run says about itself: `trace.overhead_ratio`
/// (traced over untraced p50 of the same loop) and `trace.span_coverage`
/// (the share of each `op` span its layer spans cover).
pub fn trace_figures(untraced: &Hist, traced: &Hist, t: &Tracer, r: &mut Report) {
    let ratio = match (traced.quantile_us(0.5), untraced.quantile_us(0.5)) {
        (Some(a), Some(b)) => a / b,
        _ => f64::NAN,
    };
    r.metric("trace.overhead_ratio", ratio, "ratio");
    let coverage = t.child_coverage("op").unwrap_or(f64::NAN);
    r.metric("trace.span_coverage", coverage, "ratio");
}

/// Reports the median self time of each `(metric, span)` pair in µs.
pub fn span_medians<'a>(
    t: &Tracer,
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    r: &mut Report,
) {
    for (metric, span) in pairs {
        r.metric(metric, t.median_self_us(span).unwrap_or(f64::NAN), "us");
    }
}

/// Reports the mean duration of each `(metric, span)` pair in seconds.
pub fn span_seconds<'a>(
    t: &Tracer,
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    r: &mut Report,
) {
    for (metric, span) in pairs {
        r.metric(metric, t.mean_total_s(span).unwrap_or(f64::NAN), "s");
    }
}

/// Reports the serving layer's figures shared by every workload: the
/// per-layer forward spans, the replayed check, observe and judge spans
/// with the engine overhead between them, the engine's batching
/// counters, and the model's shape-derived work per row.
pub fn serve_figures(
    engine: &MonitorEngine,
    net: &Sequential,
    input_len: usize,
    names: &[&'static str],
    t: &Tracer,
    r: &mut Report,
) {
    span_medians(
        t,
        [
            ("serve.check_us", "serve.check"),
            ("nn.observe_us", "nn.observe"),
            ("bdd.judge_us", "bdd.judge"),
        ],
        r,
    );
    for &name in names {
        r.metric(
            format!("{name}_us"),
            t.median_self_us(name).unwrap_or(f64::NAN),
            "us",
        );
    }
    let med = |span: &str| t.median_self_us(span).unwrap_or(f64::NAN);
    let overhead = med("serve.check") - med("nn.observe") - med("bdd.judge");
    r.metric("serve.overhead_us", overhead, "us");
    let stats = engine.stats();
    let mean_batch = stats.processed as f64 / stats.batches.max(1) as f64;
    r.metric("serve.mean_batch", mean_batch, "rows");
    r.metric("serve.largest_batch", stats.largest_batch as f64, "rows");
    let (macs, bytes) = work_per_row(net, input_len);
    r.metric("tensor.macs_per_row", macs, "count");
    r.metric("tensor.bytes_per_row", bytes, "bytes");
}

/// A second, behaviourally identical copy of a model built from the
/// layer types the paper's networks use (Sequential is not `Clone`).
///
/// # Panics
///
/// Panics on a layer type outside that set.
pub fn replicate(net: &Sequential) -> Sequential {
    let layers = (0..net.len())
        .map(|i| -> Box<dyn naps_nn::Layer> {
            let any = net.layer(i).as_any();
            if let Some(l) = any.downcast_ref::<Conv2d>() {
                Box::new(l.clone())
            } else if let Some(l) = any.downcast_ref::<Dense>() {
                Box::new(l.clone())
            } else if let Some(l) = any.downcast_ref::<Relu>() {
                Box::new(l.clone())
            } else if let Some(l) = any.downcast_ref::<MaxPool2d>() {
                Box::new(l.clone())
            } else if let Some(l) = any.downcast_ref::<Flatten>() {
                Box::new(l.clone())
            } else {
                panic!("cannot replicate layer {}", net.layer(i).label())
            }
        })
        .collect();
    Sequential::new(layers)
}

/// The per-layer span names of a model: `nn.layerNN.<label>_us`, the
/// label stripped to letters and digits (`fc(40)` → `fc40`).  Leaked
/// once per run so spans can carry `&'static str` names.
pub fn layer_span_names(net: &Sequential) -> Vec<&'static str> {
    (0..net.len())
        .map(|i| {
            let label: String = net
                .layer(i)
                .label()
                .chars()
                .filter(char::is_ascii_alphanumeric)
                .collect();
            &*Box::leak(format!("nn.layer{i:02}.{label}").into_boxed_str())
        })
        .collect()
}

/// Runs `batch` through the model one layer at a time
/// (`Sequential::layer_mut(i).forward`), one span per layer.
pub fn replay_layers(net: &mut Sequential, names: &[&'static str], batch: &Tensor, t: &mut Tracer) {
    let mut x = batch.clone();
    for (i, &name) in names.iter().enumerate() {
        x = t.span(name, |_| net.layer_mut(i).forward(&x, false));
    }
    std::hint::black_box(&x);
}

/// Multiply-accumulates and bytes moved per input row, computed from the
/// layer shapes (not measured): a dense layer does `in × out` MACs, a
/// convolution `out_len × in_c × k²`; bytes count each layer's input and
/// output activations plus its parameters, as f32.
pub fn work_per_row(net: &Sequential, input_len: usize) -> (f64, f64) {
    let (mut macs, mut floats) = (0usize, 0usize);
    let mut width = input_len;
    for i in 0..net.len() {
        let layer = net.layer(i);
        let any = layer.as_any();
        let out = layer.output_len();
        if let Some(d) = any.downcast_ref::<Dense>() {
            macs += d.in_features() * d.out_features();
            floats += d.weights().len() + d.bias().len();
        } else if let Some(c) = any.downcast_ref::<Conv2d>() {
            let dims = c.dims();
            let kernel = dims.in_c * dims.k * dims.k;
            macs += c.out_len() * kernel;
            floats += c.out_channels() * (kernel + 1);
        }
        floats += width + out;
        width = out;
    }
    (macs as f64, (floats * 4) as f64)
}

/// Total BDD nodes over the frozen monitor's class zones.
pub fn bdd_nodes(frozen: &FrozenMonitor) -> f64 {
    (0..frozen.num_classes())
        .filter_map(|c| frozen.zone(c))
        .map(|z| z.node_count() as f64)
        .sum()
}

/// Algorithm 1 of the paper, traced: the same steps as
/// `MonitorBuilder::build` (forward passes in batches of 64, insertion of
/// each correctly classified row's pattern into its class zone, then
/// γ-enlargement of every zone), issued through the library's public
/// calls with one span per step.  Returns the monitor and the number of
/// patterns inserted.
pub fn traced_build(
    net: &mut Sequential,
    samples: &[Tensor],
    labels: &[usize],
    classes: usize,
    layer: usize,
    gamma: u32,
    t: &mut Tracer,
) -> (Monitor<BddZone>, usize) {
    let plan = ObservationPlan::single(layer);
    let batches: Vec<(Vec<usize>, ObservedBatch)> = t.span("core.observe", |_| {
        let indices: Vec<usize> = (0..samples.len()).collect();
        indices
            .chunks(64)
            .map(|chunk| {
                let feat = samples[chunk[0]].len();
                let mut data = Vec::with_capacity(chunk.len() * feat);
                for &i in chunk {
                    data.extend_from_slice(samples[i].data());
                }
                let batch = Tensor::from_vec(vec![chunk.len(), feat], data);
                (chunk.to_vec(), forward_observe_plan(net, &batch, &plan))
            })
            .collect()
    });
    let width = batches[0].1.observed[0].shape()[1];
    let selection = NeuronSelection::all(width);
    let mut zones: Vec<Option<BddZone>> = (0..classes)
        .map(|_| Some(BddZone::empty(selection.len())))
        .collect();
    let inserted = t.span("core.insert", |_| {
        let mut inserted = 0;
        for (chunk, observed) in &batches {
            for (r, &i) in chunk.iter().enumerate() {
                if observed.predicted[r] == labels[i] {
                    if let Some(zone) = zones[labels[i]].as_mut() {
                        zone.insert(&selection.pattern_from(observed.observed[0].row(r)));
                        inserted += 1;
                    }
                }
            }
        }
        inserted
    });
    t.span("core.enlarge", |_| {
        for z in zones.iter_mut().flatten() {
            z.enlarge_to(gamma);
        }
    });
    (
        Monitor::from_zones(zones, layer, selection, gamma),
        inserted,
    )
}
