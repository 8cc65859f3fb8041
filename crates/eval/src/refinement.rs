//! Refinement ablation (paper Section V item 2): binary pattern monitor
//! vs. numeric abstract-domain refinements.
//!
//! The paper sketches refining the on/off abstraction "using tools such
//! as difference bound matrices".  This experiment quantifies that idea
//! on the network-1 setup: alongside the γ = 2 binary monitor of Table
//! II, [`MonitorBuilder::build_refined`] records per-class numeric
//! envelopes of the monitored layer's activations — the per-neuron box
//! ([`naps_core::IntervalZone`]) and the relational DBM
//! ([`naps_core::DbmZone`]) — over the correctly classified training
//! inputs.  The experiment then reads each [`naps_core::RefinedMonitor`]'s
//! binary verdicts and numeric violations on the validation set and
//! measures how each detector's warning rate and warning precision
//! compare, plus the union of binary and DBM warnings.
//!
//! Expected shape: the numeric domains warn more often (every envelope
//! violation is a warning even when the on/off pattern is familiar),
//! buying extra misclassification coverage at a lower per-warning
//! precision; the DBM warns at least as often as the box by
//! construction.  The binary monitor keeps the O(#neurons) query; the
//! numeric refinements pay O(#neurons) (box) / O(#neurons²) (DBM).

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use crate::trained::train_mnist;
use naps_core::{
    ActivationMonitor, BddZone, MonitorBuilder, NeuronSelection, NumericDomain, Verdict,
};
use serde::{Deserialize, Serialize};

/// One detector's row of the ablation table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefinementRow {
    /// Detector name (`binary γ=2`, `box s=0.5`, `dbm s=0.5`, …).
    pub detector: String,
    /// Fraction of validation inputs the detector warns on.
    pub flagged_rate: f64,
    /// Fraction of warnings that are misclassifications.
    pub warning_precision: f64,
    /// Fraction of all misclassifications the detector catches.
    pub warning_recall: f64,
    /// Raw warning count.
    pub flagged: usize,
    /// Validation-set size.
    pub total: usize,
}

/// The `schema_version` [`run`] stamps on [`Refinement`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full refinement-ablation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Refinement {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Binary monitor's Hamming budget.
    pub gamma: u32,
    /// Validation misclassification rate of the underlying network.
    pub misclassification_rate: f64,
    /// Per-detector rows.
    pub rows: Vec<RefinementRow>,
}

struct Tally {
    flagged: usize,
    flagged_miscls: usize,
}

impl Tally {
    fn new() -> Self {
        Tally {
            flagged: 0,
            flagged_miscls: 0,
        }
    }

    fn add(&mut self, warned: bool, miscls: bool) {
        if warned {
            self.flagged += 1;
            if miscls {
                self.flagged_miscls += 1;
            }
        }
    }

    fn row(&self, detector: &str, total: usize, miscls_total: usize) -> RefinementRow {
        RefinementRow {
            detector: detector.to_string(),
            flagged_rate: self.flagged as f64 / total.max(1) as f64,
            warning_precision: self.flagged_miscls as f64 / self.flagged.max(1) as f64,
            warning_recall: self.flagged_miscls as f64 / miscls_total.max(1) as f64,
            flagged: self.flagged,
            total,
        }
    }
}

/// One validation observation, gathered in a single evaluation pass.
struct Observation {
    miscls: bool,
    binary_warn: bool,
    box_violation: f32,
    dbm_violation: f32,
}

/// Slack levels swept for the numeric domains — the numeric analogue of
/// the γ sweep: larger slack = coarser abstraction (Figure 2's spectrum).
const SLACKS: [f32; 4] = [0.0, 0.5, 1.0, 2.0];

/// Runs the refinement ablation on the network-1 (MNIST-like) setup.
pub fn run(cfg: &RunConfig) -> Refinement {
    println!("== Refinement ablation: binary monitor vs numeric domains ==");
    let gamma = 2;
    let mut trained = train_mnist(cfg);
    let num_classes = 10;

    println!("[building binary monitor (γ={gamma}) with box and DBM envelopes]");
    let builder = MonitorBuilder::new(trained.monitor_layer, gamma)
        .with_selection(NeuronSelection::all(naps_nn::MNIST_MONITOR_WIDTH));
    let [boxes, dbms] = [NumericDomain::Box, NumericDomain::Dbm].map(|domain| {
        builder.build_refined::<BddZone>(
            &mut trained.model,
            &trained.train.samples,
            &trained.train.labels,
            num_classes,
            domain,
        )
    });

    println!("[evaluating detectors on the validation split]");
    let total = trained.val.samples.len();
    let by_box = boxes.check_batch(&mut trained.model, &trained.val.samples);
    let by_dbm = dbms.check_batch(&mut trained.model, &trained.val.samples);
    let observations: Vec<Observation> = by_box
        .iter()
        .zip(&by_dbm)
        .zip(&trained.val.labels)
        .map(|((b, d), &label)| Observation {
            miscls: b.predicted != label,
            binary_warn: b.binary == Verdict::OutOfPattern,
            // An empty envelope (class never correctly predicted in
            // training) rejects everything: infinite violation.
            box_violation: b.violation.unwrap_or(f32::INFINITY),
            dbm_violation: d.violation.unwrap_or(f32::INFINITY),
        })
        .collect();

    let miscls_total = observations.iter().filter(|o| o.miscls).count();
    let tally = |warn: &dyn Fn(&Observation) -> bool, name: &str| -> RefinementRow {
        let mut t = Tally::new();
        for o in &observations {
            t.add(warn(o), o.miscls);
        }
        t.row(name, total, miscls_total)
    };

    let mut rows = vec![tally(&|o| o.binary_warn, &format!("binary γ={gamma}"))];
    for s in SLACKS {
        rows.push(tally(&|o| o.box_violation > s, &format!("box s={s}")));
    }
    for s in SLACKS {
        rows.push(tally(&|o| o.dbm_violation > s, &format!("dbm s={s}")));
    }
    rows.push(tally(
        &|o| o.binary_warn || o.dbm_violation > *SLACKS.last().expect("nonempty"),
        &format!("binary ∪ dbm s={}", SLACKS.last().expect("nonempty")),
    ));

    let result = Refinement {
        schema_version: SCHEMA_VERSION,
        gamma,
        misclassification_rate: miscls_total as f64 / total.max(1) as f64,
        rows,
    };
    print_table(&result);
    write_json(&cfg.out_dir, "refinement", &result);
    result
}

fn print_table(result: &Refinement) {
    rule(78);
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "detector", "flag rate", "precision", "recall", "#flagged"
    );
    rule(78);
    for r in &result.rows {
        println!(
            "{:<14} {:>14} {:>14} {:>14} {:>14}",
            r.detector,
            pct(r.flagged_rate),
            pct(r.warning_precision),
            pct(r.warning_recall),
            format!("{}/{}", r.flagged, r.total),
        );
    }
    rule(78);
    println!(
        "(network misclassification rate: {}; dbm refines box: dbm flag rate ≥ box flag rate)",
        pct(result.misclassification_rate)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_computes_rates_and_precision() {
        let mut t = Tally::new();
        t.add(true, true);
        t.add(true, false);
        t.add(false, true);
        t.add(false, false);
        let row = t.row("probe", 4, 2);
        assert_eq!(row.flagged, 2);
        assert!((row.flagged_rate - 0.5).abs() < 1e-12);
        assert!((row.warning_precision - 0.5).abs() < 1e-12);
        assert!((row.warning_recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_does_not_divide_by_zero() {
        let t = Tally::new();
        let row = t.row("empty", 0, 0);
        assert_eq!(row.flagged_rate, 0.0);
        assert_eq!(row.warning_precision, 0.0);
        assert_eq!(row.warning_recall, 0.0);
    }

    #[test]
    fn slack_sweep_is_ordered() {
        // The swept slacks must be strictly increasing so the table reads
        // as a coarseness spectrum.
        for w in SLACKS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
