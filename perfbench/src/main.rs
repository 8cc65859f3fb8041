//! The naps benchmark: three closed-loop workloads, each putting most of
//! its work in a different layer, every served verdict checked against
//! the sequential in-process oracle.  See README.md for the workloads,
//! the metrics and how to read a traced run.
//!
//! ```text
//! perfbench --workload <wire_small|conv_digits|build_digits> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  The exit
//! code is 0 only for a correct run.

mod build;
mod common;
mod conv;
mod measure;
mod wire;

use common::{Args, Report};
use std::path::Path;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_us",
    "latency_p90_us",
    "peak_rss_mb",
    "warning_recall",
    "false_warning_ratio",
    "verified_ratio",
];

/// The per-layer metrics every workload reports with `--trace 1`, with
/// their units.  A workload whose path does not enter a layer reports it
/// as 0 (README.md lists which).
const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.send_us", "us"),
    ("gateway.recv_wait_us", "us"),
    ("gateway.encode_us", "us"),
    ("gateway.decode_us", "us"),
    ("gateway.request_bytes", "bytes"),
    ("gateway.response_bytes", "bytes"),
    ("gateway.shed", "count"),
    ("gateway.unanswered", "count"),
    ("serve.check_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.mean_batch", "rows"),
    ("serve.largest_batch", "rows"),
    ("serve.freeze_us", "us"),
    ("serve.publish_us", "us"),
    ("nn.observe_us", "us"),
    ("nn.train_s", "s"),
    ("data.generate_s", "s"),
    ("nn.layer00.fc96_us", "us"),
    ("nn.layer01.relu_us", "us"),
    ("nn.layer02.fc48_us", "us"),
    ("nn.layer03.relu_us", "us"),
    ("nn.layer04.fc6_us", "us"),
    ("nn.layer00.fc320_us", "us"),
    ("nn.layer02.fc160_us", "us"),
    ("nn.layer04.fc80_us", "us"),
    ("nn.layer05.relu_us", "us"),
    ("nn.layer06.fc40_us", "us"),
    ("nn.layer07.relu_us", "us"),
    ("nn.layer08.fc10_us", "us"),
    ("nn.layer00.conv40_us", "us"),
    ("nn.layer02.maxpool_us", "us"),
    ("nn.layer03.conv20_us", "us"),
    ("nn.layer04.relu_us", "us"),
    ("nn.layer05.maxpool_us", "us"),
    ("nn.layer06.flatten_us", "us"),
    ("nn.layer07.fc320_us", "us"),
    ("nn.layer08.relu_us", "us"),
    ("nn.layer09.fc160_us", "us"),
    ("nn.layer10.relu_us", "us"),
    ("nn.layer11.fc80_us", "us"),
    ("nn.layer12.relu_us", "us"),
    ("nn.layer13.fc40_us", "us"),
    ("nn.layer14.relu_us", "us"),
    ("nn.layer15.fc10_us", "us"),
    ("tensor.macs_per_row", "count"),
    ("tensor.bytes_per_row", "bytes"),
    ("core.insert_us", "us"),
    ("core.enlarge_us", "us"),
    ("core.patterns_inserted", "count"),
    ("core.build_s", "s"),
    ("bdd.nodes", "count"),
    ("bdd.judge_us", "us"),
    ("alloc.observe_per_op", "count"),
    ("alloc.judge_per_op", "count"),
    ("alloc.codec_per_op", "count"),
    ("alloc.build_per_op", "count"),
    ("alloc.freeze_per_op", "count"),
    ("alloc.publish_per_op", "count"),
    ("host.calib_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
];

const USAGE: &str =
    "usage: perfbench --workload <wire_small|conv_digits|build_digits> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=600).contains(&s))
                        .ok_or_else(|| bad("a whole number of seconds from 1 to 600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks the report's metrics against the expected names, fills
/// per-layer metrics a workload does not touch with 0, and renders the
/// result line.
fn render(report: &mut Report, trace: bool) -> String {
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&n| (n, "")).collect()
    };
    let mut fields = Vec::with_capacity(expected.len());
    for m in &report.metrics {
        if !expected.iter().any(|(n, _)| *n == m.name) {
            report
                .problems
                .push(format!("unexpected metric {}", m.name));
        }
    }
    for (name, unit) in expected {
        let found = report.metrics.iter().find(|m| m.name == name);
        let (value, unit) = match found {
            Some(m) => (m.value, m.unit),
            None if trace => (0.0, unit),
            None => {
                report.problems.push(format!("metric {name} missing"));
                continue;
            }
        };
        if !value.is_finite() {
            report.problems.push(format!("metric {name} is {value}"));
            continue;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calib_before = measure::calibrate();
    let mut report = match args.workload.as_str() {
        "wire_small" => wire::run(&args),
        "conv_digits" => conv::run(&args),
        "build_digits" => build::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calib_after = measure::calibrate();
    if args.trace {
        report.metric("host.calib_us", (calib_before + calib_after) / 2.0, "us");
    }
    println!(
        "# {} seed {} trace {}: host.calib_us before {calib_before:.1} after {calib_after:.1}",
        args.workload, args.seed, args.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let line = render(&mut report, args.trace);
    for p in &report.problems {
        println!("# PROBLEM: {p}");
    }
    for m in &report.metrics {
        println!("# {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    if !(report.problems.is_empty() && report.failed == 0) {
        std::process::exit(1);
    }
}

/// Where a traced run writes its spans: inside the working directory.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    Path::new(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}
