//! Runs the benchmark binary end to end: every workload prints the metric
//! names `BENCHMARK.json` lists, every served verdict matches the oracle
//! on two seeds, the quality ratios repeat for one seed, and the exact
//! counts of a traced run repeat between two runs of one seed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["wire_small", "conv_digits", "build_digits"];

/// Per-layer metrics that are exact counts: they must repeat exactly
/// between two runs of one seed.  (`serve.mean_batch` and
/// `serve.largest_batch` depend on how requests meet the worker in time,
/// so they are not among them.)
const EXACT_COUNTS: [&str; 14] = [
    "alloc.observe_per_op",
    "alloc.judge_per_op",
    "alloc.codec_per_op",
    "alloc.build_per_op",
    "alloc.freeze_per_op",
    "alloc.publish_per_op",
    "bdd.nodes",
    "core.patterns_inserted",
    "tensor.macs_per_row",
    "tensor.bytes_per_row",
    "gateway.request_bytes",
    "gateway.response_bytes",
    "gateway.shed",
    "gateway.unanswered",
];

/// The stated tolerance of a traced run: the layer spans inside each
/// traced operation cover at least this share of its latency.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Run {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }

    fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// Parses the result line: `{"correct": b, "attempted": n, "failed": n,
/// "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}`.
fn parse(line: &str) -> Run {
    let field = |key: &str| -> &str {
        let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        let rest = &line[at..];
        &rest[..rest.find([',', '}']).expect("value ends")]
    };
    let metrics_at = line.find("\"metrics\": {").expect("metrics present") + 12;
    let mut metrics = Vec::new();
    for entry in line[metrics_at..].split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name");
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .expect("metric value");
        metrics.push((name.to_owned(), value.parse().expect("a number")));
    }
    Run {
        correct: field("correct") == "true",
        failed: field("failed").parse().expect("a count"),
        metrics,
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    parse(stdout.lines().last().expect("a result line"))
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section ends")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_owned())
        .collect()
}

#[test]
fn untraced_runs_verify_every_verdict_on_two_seeds_and_repeat_their_quality() {
    let names = listed("end_to_end");
    for workload in WORKLOADS {
        let first = run(workload, 7, false);
        let again = run(workload, 7, false);
        let other = run(workload, 8, false);
        for r in [&first, &again, &other] {
            assert!(r.correct && r.failed == 0, "{workload} reported a failure");
            assert_eq!(r.names(), names, "{workload} end-to-end names");
            assert_eq!(r.get("verified_ratio"), 1.0, "{workload}");
        }
        for q in ["warning_recall", "false_warning_ratio"] {
            assert_eq!(
                first.get(q),
                again.get(q),
                "{workload} {q} differs for one seed"
            );
        }
    }
}

#[test]
fn traced_runs_repeat_their_exact_counts() {
    let names = listed("per_layer");
    for workload in WORKLOADS {
        let first = run(workload, 7, true);
        let again = run(workload, 7, true);
        assert!(
            first.correct && again.correct,
            "{workload} reported a failure"
        );
        assert_eq!(first.names(), names, "{workload} per-layer names");
        for r in [&first, &again] {
            let coverage = r.get("trace.span_coverage");
            assert!(
                coverage >= MIN_SPAN_COVERAGE,
                "{workload} spans cover {coverage}"
            );
        }
        for count in EXACT_COUNTS {
            assert_eq!(
                first.get(count),
                again.get(count),
                "{workload} {count} did not repeat"
            );
        }
    }
}
