//! Table I: network architectures and train/validation accuracies.

use crate::config::RunConfig;
use crate::report::{pct, rule, write_json};
use crate::trained::{train_gtsrb, train_mnist};
use serde::{Deserialize, Serialize};

/// One Table I row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Network id (1 = MNIST-like, 2 = GTSRB-like).
    pub id: usize,
    /// Classifier name.
    pub classifier: String,
    /// Architecture summary (Table I notation).
    pub architecture: String,
    /// Training accuracy.
    pub train_accuracy: f64,
    /// Validation accuracy.
    pub val_accuracy: f64,
    /// Training set size.
    pub train_size: usize,
    /// Validation set size.
    pub val_size: usize,
}

/// The `schema_version` [`run`] stamps on [`Table1`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full Table I result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Both rows.
    pub rows: Vec<Table1Row>,
}

/// Trains both networks and prints/persists Table I.
pub fn run(cfg: &RunConfig) -> Table1 {
    println!("== Table I: architectures and accuracies ==");
    let mut rows = Vec::new();

    println!("[training network 1: MNIST-like]");
    let m = train_mnist(cfg);
    rows.push(Table1Row {
        id: 1,
        classifier: "MNIST".to_owned(),
        architecture: m.model.summary(),
        train_accuracy: m.train_accuracy,
        val_accuracy: m.val_accuracy,
        train_size: m.train.len(),
        val_size: m.val.len(),
    });

    println!("[training network 2: GTSRB-like]");
    let g = train_gtsrb(cfg);
    rows.push(Table1Row {
        id: 2,
        classifier: "GTSRB".to_owned(),
        architecture: g.model.summary(),
        train_accuracy: g.train_accuracy,
        val_accuracy: g.val_accuracy,
        train_size: g.train.len(),
        val_size: g.val.len(),
    });

    rule(78);
    println!(
        "{:<3} {:<10} {:>9} {:>9}  architecture",
        "ID", "Classifier", "train", "val"
    );
    rule(78);
    for r in &rows {
        println!(
            "{:<3} {:<10} {:>9} {:>9}  {}",
            r.id,
            r.classifier,
            pct(r.train_accuracy),
            pct(r.val_accuracy),
            r.architecture
        );
    }
    rule(78);
    println!("(paper: net 1 = 99.34%/98.81%, net 2 = 99.98%/96.73%)");

    let table = Table1 {
        schema_version: SCHEMA_VERSION,
        rows,
    };
    write_json(&cfg.out_dir, "table1", &table);
    table
}
