//! The experiment harness's result records must survive JSON round-trips:
//! EXPERIMENTS.md is reconciled against `results/*.json`, so the schema is
//! a contract.

use naps_eval::case_study::{CaseStudy, ConditionResult};
use naps_eval::fig2::{Fig2, SpectrumPoint};
use naps_eval::table1::{Table1, Table1Row};
use naps_eval::table2::{Table2, Table2Block, Table2Row};

#[test]
fn table1_roundtrips() {
    let t = Table1 {
        schema_version: 1,
        rows: vec![Table1Row {
            id: 1,
            classifier: "MNIST".into(),
            architecture: "conv(40), relu".into(),
            train_accuracy: 0.9983,
            val_accuracy: 0.924,
            train_size: 1200,
            val_size: 500,
        }],
    };
    let json = serde_json::to_string(&t).expect("serialize");
    let back: Table1 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.rows.len(), 1);
    assert_eq!(back.schema_version, 1);
    assert_eq!(back.rows[0].classifier, "MNIST");
    assert!((back.rows[0].train_accuracy - 0.9983).abs() < 1e-12);
}

#[test]
fn table2_roundtrips() {
    let t = Table2 {
        schema_version: 1,
        blocks: vec![Table2Block {
            id: 2,
            misclassification_rate: 0.1028,
            rows: vec![Table2Row {
                gamma: 3,
                out_of_pattern_rate: 0.1168,
                warning_precision: 0.88,
                total: 214,
                out_of_pattern: 25,
            }],
        }],
    };
    let json = serde_json::to_string(&t).expect("serialize");
    let back: Table2 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.blocks[0].rows[0].gamma, 3);
    assert_eq!(back.blocks[0].rows[0].total, 214);
}

#[test]
fn fig2_roundtrips() {
    let f = Fig2 {
        schema_version: 1,
        spectrum: vec![SpectrumPoint {
            gamma: 4,
            out_of_pattern_rate: 0.016,
            warning_precision: 0.875,
            false_positive_rate: 0.0022,
            class0_zone_patterns: 1.5e6,
        }],
        gamma_for_silence: Some(4),
        gamma_for_precision: Some(1),
    };
    let json = serde_json::to_string(&f).expect("serialize");
    let back: Fig2 = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.gamma_for_silence, Some(4));
    assert_eq!(back.spectrum.len(), 1);
}

#[test]
fn case_study_roundtrips() {
    let c = CaseStudy {
        schema_version: 1,
        conditions: vec![ConditionResult {
            condition: "heavy rain".into(),
            accuracy: 0.815,
            warning_rate: 0.025,
        }],
    };
    let json = serde_json::to_string(&c).expect("serialize");
    let back: CaseStudy = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.conditions[0].condition, "heavy rain");
}

#[test]
fn config_profiles_scale_consistently() {
    use naps_eval::RunConfig;
    let fast = RunConfig::default();
    let full = RunConfig {
        full: true,
        ..RunConfig::default()
    };
    assert!(full.mnist_train_per_class() >= fast.mnist_train_per_class());
    assert!(full.mnist_val_per_class() >= fast.mnist_val_per_class());
    assert!(full.gtsrb_train_per_class() >= fast.gtsrb_train_per_class());
    assert!(full.frontcar_scenarios() >= fast.frontcar_scenarios());
}

/// Parses `json` as the emitter's report type `T` (a file without a
/// `schema_version`, or with a field the type no longer has a shape for,
/// fails here) and returns the version it carries.
fn schema_of<T: serde::Deserialize>(name: &str, json: &str, version: fn(&T) -> u32) -> u32 {
    let report: T = serde_json::from_str(json)
        .unwrap_or_else(|e| panic!("results/{name} does not parse as its report type: {e}"));
    version(&report)
}

/// The version stamp alone, for the reports that `naps-analyzer` and
/// `naps-sim` write by hand (they have no serde type; CI rewrites both on
/// every run).
#[derive(serde::Deserialize)]
struct Stamped {
    schema_version: u32,
}

/// Every checked-in `results/*.json` must match what today's emitter
/// writes: it deserializes into the emitter's report type and carries
/// the emitter's current `schema_version`.  A stale artefact fails here;
/// regenerate it by running its binary.
#[test]
fn checked_in_results_match_their_emitters() {
    use naps_eval::{
        case_study, compiled, drift, fig2, forward, gateway, graded, layered, online, refinement,
        selection, table1, table2, throughput,
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let json = std::fs::read_to_string(&path).expect("readable result file");
        let (found, expected) = match name {
            "compiled.json" => (
                schema_of(name, &json, |r: &compiled::CompiledEval| r.schema_version),
                compiled::SCHEMA_VERSION,
            ),
            "forward.json" => (
                schema_of(name, &json, |r: &forward::ForwardEval| r.schema_version),
                forward::SCHEMA_VERSION,
            ),
            "gateway.json" => (
                schema_of(name, &json, |r: &gateway::GatewaySoak| r.schema_version),
                gateway::SCHEMA_VERSION,
            ),
            "graded.json" => (
                schema_of(name, &json, |r: &graded::GradedTriage| r.schema_version),
                graded::SCHEMA_VERSION,
            ),
            "layered.json" => (
                schema_of(name, &json, |r: &layered::LayeredEval| r.schema_version),
                layered::SCHEMA_VERSION,
            ),
            "online.json" => (
                schema_of(name, &json, |r: &online::OnlineAdaptation| r.schema_version),
                online::SCHEMA_VERSION,
            ),
            "throughput.json" => (
                schema_of(name, &json, |r: &throughput::Throughput| r.schema_version),
                throughput::SCHEMA_VERSION,
            ),
            "table1.json" => (
                schema_of(name, &json, |r: &table1::Table1| r.schema_version),
                table1::SCHEMA_VERSION,
            ),
            "table2.json" => (
                schema_of(name, &json, |r: &table2::Table2| r.schema_version),
                table2::SCHEMA_VERSION,
            ),
            "fig2.json" => (
                schema_of(name, &json, |r: &fig2::Fig2| r.schema_version),
                fig2::SCHEMA_VERSION,
            ),
            "case_study.json" => (
                schema_of(name, &json, |r: &case_study::CaseStudy| r.schema_version),
                case_study::SCHEMA_VERSION,
            ),
            "drift.json" => (
                schema_of(name, &json, |r: &drift::Drift| r.schema_version),
                drift::SCHEMA_VERSION,
            ),
            "refinement.json" => (
                schema_of(name, &json, |r: &refinement::Refinement| r.schema_version),
                refinement::SCHEMA_VERSION,
            ),
            "selection.json" => (
                schema_of(name, &json, |r: &selection::Selection| r.schema_version),
                selection::SCHEMA_VERSION,
            ),
            "analysis.json" => (schema_of(name, &json, |r: &Stamped| r.schema_version), 2),
            "sim.json" => (schema_of(name, &json, |r: &Stamped| r.schema_version), 1),
            // The online eval's persisted monitor, not a report (ignored by git).
            "monitor_epoch1.json" => continue,
            other => panic!("results/{other} has no emitter mapped in this test"),
        };
        assert_eq!(found, expected, "results/{name} is stale: regenerate it");
        checked += 1;
    }
    assert!(
        checked >= 10,
        "only {checked} result files found in {dir:?}"
    );
}
