//! Section III case study / Figure 3: a monitored neural front-car
//! selection unit for highway piloting.
//!
//! The pipeline is trained under nominal conditions, its monitor built
//! with Algorithm 1, and then driven through scenario distributions the
//! training never contained.  The experiment reports, per condition, the
//! selection accuracy and the out-of-pattern warning rate — demonstrating
//! the paper's claim that frequent unseen patterns indicate distribution
//! shift to the development team.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use naps_frontcar::{Conditions, FrontCarPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Results for one scenario distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConditionResult {
    /// Human-readable condition name.
    pub condition: String,
    /// Selection accuracy.
    pub accuracy: f64,
    /// Fraction of decisions flagged out-of-pattern.
    pub warning_rate: f64,
}

/// The `schema_version` [`run`] stamps on [`CaseStudy`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full case-study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Per-condition outcomes; index 0 is nominal.
    pub conditions: Vec<ConditionResult>,
}

/// Trains the pipeline and evaluates it across scenario distributions.
pub fn run(cfg: &RunConfig) -> CaseStudy {
    println!("== Case study: monitored front-car selection (Figure 3) ==");
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(2));
    let pipe_cfg = PipelineConfig {
        train_scenarios: cfg.frontcar_scenarios(),
        ..PipelineConfig::default()
    };
    println!(
        "[training selection network on {} nominal scenarios]",
        pipe_cfg.train_scenarios
    );
    let mut pipe = FrontCarPipeline::train(pipe_cfg, &mut rng);

    let n_eval = if cfg.full { 2000 } else { 600 };
    let suites: [(&str, Conditions); 4] = [
        ("nominal", Conditions::nominal()),
        ("heavy rain", Conditions::heavy_rain()),
        ("dense cut-ins", Conditions::dense_cutins()),
        ("degraded sensor", Conditions::degraded_sensor()),
    ];
    let mut conditions = Vec::new();
    for (name, c) in suites {
        let accuracy = pipe.accuracy(n_eval, c, &mut rng);
        let warning_rate = pipe.warning_rate(n_eval, c, &mut rng);
        conditions.push(ConditionResult {
            condition: name.to_owned(),
            accuracy,
            warning_rate,
        });
    }

    rule(56);
    println!(
        "{:<18} {:>12} {:>16}",
        "condition", "accuracy", "warning rate"
    );
    rule(56);
    for c in &conditions {
        println!(
            "{:<18} {:>12} {:>16}",
            c.condition,
            pct(c.accuracy),
            pct(c.warning_rate)
        );
    }
    rule(56);
    println!("(expected shape: shifted conditions warn more than nominal)");

    let result = CaseStudy {
        schema_version: SCHEMA_VERSION,
        conditions,
    };
    write_json(&cfg.out_dir, "case_study", &result);
    result
}
