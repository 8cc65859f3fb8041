//! Grid-cell monitoring — the paper's Section V extension (1).
//!
//! Object detectors in the YOLO family partition the image into a grid
//! and emit per-cell proposals from a **shared** head.  The paper notes
//! the monitoring technique "shall be directly applicable" there: give
//! every grid cell its own comfort-zone monitor, because cells see
//! different traffic (a sky cell rarely contains pedestrians) even when
//! the head weights are shared.  [`GridMonitor`] packages that idea: a
//! rows × cols arrangement of [`Monitor`]s over one shared head, queried
//! cell-wise in a single call.

use crate::activation::{ActivationMonitor, MonitorOutcome};
use crate::batch::ObservationPlan;
use crate::builder::MonitorBuilder;
use crate::monitor::{Monitor, MonitorReport, Verdict};
use crate::zone::{BddZone, Zone};
use naps_nn::Sequential;
use naps_tensor::Tensor;

/// Outcome of checking one full grid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridReport {
    /// One report per cell, row-major.
    pub cells: Vec<MonitorReport>,
    /// Indices (row-major) of the cells that raised an out-of-pattern
    /// warning.
    pub out_of_pattern_cells: Vec<usize>,
}

impl GridReport {
    /// Fraction of monitored (non-[`Verdict::Unmonitored`]) cells that
    /// warned.
    pub fn warning_rate(&self) -> f64 {
        let monitored = self
            .cells
            .iter()
            .filter(|r| r.verdict != Verdict::Unmonitored)
            .count();
        if monitored == 0 {
            return 0.0;
        }
        self.out_of_pattern_cells.len() as f64 / monitored as f64
    }
}

impl MonitorOutcome for GridReport {
    fn out_of_pattern(&self) -> bool {
        !self.out_of_pattern_cells.is_empty()
    }
}

/// A rows × cols grid of per-cell comfort-zone monitors over one shared
/// proposal head.
///
/// All cells monitor the same layer of the same head with the same
/// neuron selection — what differs is each cell's pattern set, built
/// from that cell's own traffic.
#[derive(Debug)]
pub struct GridMonitor<Z: Zone = BddZone> {
    cells: Vec<Monitor<Z>>,
    rows: usize,
    cols: usize,
}

impl<Z: Zone> GridMonitor<Z> {
    /// Assembles a grid from per-cell monitors (row-major order).
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols`, the grid is empty, or the
    /// cells disagree on layer, selection or class count.
    pub fn from_cells(rows: usize, cols: usize, cells: Vec<Monitor<Z>>) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert_eq!(cells.len(), rows * cols, "one monitor per grid cell");
        let first = &cells[0];
        for m in &cells[1..] {
            assert_eq!(m.layer(), first.layer(), "cells monitor different layers");
            assert_eq!(
                m.selection(),
                first.selection(),
                "cells monitor different neuron selections"
            );
            assert_eq!(
                m.num_classes(),
                first.num_classes(),
                "cells disagree on the number of classes"
            );
        }
        GridMonitor { cells, rows, cols }
    }

    /// Builds the whole grid by running Algorithm 1 once per cell on that
    /// cell's own training traffic (`per_cell_data[r * cols + c]`, each a
    /// `(samples, labels)` pair through the shared `head`).
    ///
    /// # Panics
    ///
    /// Panics if `per_cell_data.len() != rows * cols` or any cell's data
    /// is empty (see [`MonitorBuilder::build`]).
    pub fn build(
        rows: usize,
        cols: usize,
        builder: &MonitorBuilder,
        head: &mut Sequential,
        per_cell_data: &[(Vec<Tensor>, Vec<usize>)],
        num_classes: usize,
    ) -> Self {
        assert_eq!(
            per_cell_data.len(),
            rows * cols,
            "one (samples, labels) pair per grid cell"
        );
        let cells = per_cell_data
            .iter()
            .map(|(xs, ys)| builder.build::<Z>(head, xs, ys, num_classes))
            .collect();
        GridMonitor::from_cells(rows, cols, cells)
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The monitor of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn cell(&self, row: usize, col: usize) -> &Monitor<Z> {
        assert!(row < self.rows && col < self.cols, "cell outside the grid");
        &self.cells[row * self.cols + col]
    }

    /// Checks one frame: `cell_inputs[r * cols + c]` is the feature
    /// vector the shared head sees for that cell.  The frame runs through
    /// the shared head in one [`Sequential::observe_rows`] pass (one
    /// forward pass per 64 cells), then row `i` is judged against cell
    /// `i`'s zones.  All cells share layer and selection (checked in
    /// [`GridMonitor::from_cells`]), so the pass can be shared.
    ///
    /// # Panics
    ///
    /// Panics if `cell_inputs.len() != rows * cols`, the cell inputs
    /// have inconsistent widths, or `head` holds a layer from outside
    /// `naps-nn` ([`Sequential::observe_rows`]).
    pub fn check_frame(&self, head: &mut Sequential, cell_inputs: &[Tensor]) -> GridReport {
        assert_eq!(
            cell_inputs.len(),
            self.rows * self.cols,
            "one input per grid cell"
        );
        let selection = self.cells[0].selection();
        let plan = ObservationPlan::single(self.cells[0].layer());
        let mut cells = Vec::with_capacity(cell_inputs.len());
        let mut out_of_pattern_cells = Vec::new();
        head.observe_rows(cell_inputs, &plan, |i, predicted, row| {
            let report = self.cells[i].report(predicted, &selection.pattern_from(row.layer(0)));
            if report.verdict == Verdict::OutOfPattern {
                out_of_pattern_cells.push(i);
            }
            cells.push(report);
        });
        GridReport {
            cells,
            out_of_pattern_cells,
        }
    }
}

impl<Z: Zone> ActivationMonitor for GridMonitor<Z> {
    type Report = GridReport;

    /// Checks one full frame packed into a single tensor: row `r * cols +
    /// c` of a `[rows * cols, features]` tensor (or the equivalent flat
    /// layout) is the feature vector the shared head sees for that cell.
    /// Use [`GridMonitor::check_frame`] when the per-cell inputs are
    /// already separate tensors.
    ///
    /// # Panics
    ///
    /// Panics if the input's length is not a multiple of the cell count.
    fn check(&self, model: &mut Sequential, input: &Tensor) -> GridReport {
        let cells = self.rows * self.cols;
        assert_eq!(
            input.len() % cells,
            0,
            "frame length {} is not divisible by the {cells} grid cells",
            input.len()
        );
        let feat = input.len() / cells;
        let cell_inputs: Vec<Tensor> = input
            .data()
            .chunks(feat)
            .map(|row| Tensor::from_vec(vec![feat], row.to_vec()))
            .collect();
        self.check_frame(model, &cell_inputs)
    }

    /// Grows every cell's zones to radius `gamma`.
    fn enlarge_to(&mut self, gamma: u32) {
        for m in &mut self.cells {
            m.enlarge_to(gamma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ExactZone;
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FEATURES: usize = 6;
    const CLASSES: usize = 3;

    fn features(class: usize, rng: &mut StdRng) -> Tensor {
        let data: Vec<f32> = (0..FEATURES)
            .map(|i| {
                let centre = match class {
                    0 => 0.0,
                    1 => (i as f32 * 0.9).sin() * 2.0,
                    _ => (i as f32 * 1.4).cos() * 2.0,
                };
                centre + 0.2 * (rng.gen::<f32>() - 0.5)
            })
            .collect();
        Tensor::from_vec(vec![FEATURES], data)
    }

    type CellTraffic = Vec<(Vec<Tensor>, Vec<usize>)>;

    /// A shared head plus per-cell traffic with different class mixes.
    fn fixture() -> (Sequential, CellTraffic) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut head = mlp(&[FEATURES, 12, CLASSES], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..150 {
            let c = rng.gen_range(0..CLASSES);
            xs.push(features(c, &mut rng));
            ys.push(c);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 16,
            verbose: false,
        });
        trainer.fit(&mut head, &xs, &ys, &mut Adam::new(0.02), &mut rng);

        // Four cells with different mixes: cell 0 only class 0, cell 3
        // only class 2, cells 1-2 mixed.
        let mixes: [&[usize]; 4] = [&[0], &[0, 1], &[1, 2], &[2]];
        let per_cell = mixes
            .iter()
            .map(|mix| {
                let mut cx = Vec::new();
                let mut cy = Vec::new();
                for _ in 0..40 {
                    let c = mix[rng.gen_range(0..mix.len())];
                    cx.push(features(c, &mut rng));
                    cy.push(c);
                }
                (cx, cy)
            })
            .collect();
        (head, per_cell)
    }

    #[test]
    fn per_cell_training_traffic_is_in_pattern() {
        let (mut head, per_cell) = fixture();
        let grid = GridMonitor::<ExactZone>::build(
            2,
            2,
            &MonitorBuilder::new(1, 0),
            &mut head,
            &per_cell,
            CLASSES,
        );
        assert_eq!(grid.rows(), 2);
        assert_eq!(grid.cols(), 2);
        // Frame made of each cell's own training inputs: no warnings for
        // correctly predicted cells.
        let frame: Vec<Tensor> = per_cell.iter().map(|(xs, _)| xs[0].clone()).collect();
        let report = grid.check_frame(&mut head, &frame);
        for (i, cell) in report.cells.iter().enumerate() {
            let (_, ys) = &per_cell[i];
            if cell.predicted == ys[0] {
                assert_eq!(cell.verdict, Verdict::InPattern, "cell {i}");
            }
        }
    }

    #[test]
    fn foreign_traffic_trips_a_specialised_cell() {
        let (mut head, per_cell) = fixture();
        let grid = GridMonitor::<ExactZone>::build(
            2,
            2,
            &MonitorBuilder::new(1, 0),
            &mut head,
            &per_cell,
            CLASSES,
        );
        // Cell 0 has only ever seen class 0; feed it class-2 features.
        let mut rng = StdRng::seed_from_u64(99);
        let mut warned = 0;
        for _ in 0..20 {
            let alien = features(2, &mut rng);
            let frame = vec![
                alien,
                per_cell[1].0[0].clone(),
                per_cell[2].0[0].clone(),
                per_cell[3].0[0].clone(),
            ];
            let report = grid.check_frame(&mut head, &frame);
            // Either cell 0 warns (unseen pattern) or its class-2 zone is
            // unmonitored-empty; both are "not supported by training".
            if report.out_of_pattern_cells.contains(&0)
                || report.cells[0].verdict == Verdict::OutOfPattern
            {
                warned += 1;
            }
        }
        assert!(warned > 10, "specialised cell warned only {warned}/20");
    }

    #[test]
    fn warning_rate_counts_monitored_cells_only() {
        let report = GridReport {
            cells: vec![
                MonitorReport {
                    predicted: 0,
                    verdict: Verdict::OutOfPattern,
                    distance_to_seeds: Some(3),
                },
                MonitorReport {
                    predicted: 1,
                    verdict: Verdict::Unmonitored,
                    distance_to_seeds: None,
                },
                MonitorReport {
                    predicted: 0,
                    verdict: Verdict::InPattern,
                    distance_to_seeds: Some(0),
                },
            ],
            out_of_pattern_cells: vec![0],
        };
        assert!((report.warning_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn enlarge_propagates_to_every_cell() {
        let (mut head, per_cell) = fixture();
        let mut grid = GridMonitor::<ExactZone>::build(
            2,
            2,
            &MonitorBuilder::new(1, 0),
            &mut head,
            &per_cell,
            CLASSES,
        );
        grid.enlarge_to(2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(grid.cell(r, c).gamma(), 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one monitor per grid cell")]
    fn wrong_cell_count_is_rejected() {
        let cells: Vec<Monitor<ExactZone>> = Vec::new();
        let _ = GridMonitor::from_cells(1, 2, cells);
    }

    #[test]
    #[should_panic(expected = "one input per grid cell")]
    fn wrong_frame_size_is_rejected() {
        let (mut head, per_cell) = fixture();
        let grid = GridMonitor::<ExactZone>::build(
            2,
            2,
            &MonitorBuilder::new(1, 0),
            &mut head,
            &per_cell,
            CLASSES,
        );
        let _ = grid.check_frame(&mut head, &[]);
    }
}
