//! The reusable, allocation-free front half of layered batch checking.
//!
//! [`observe_layered_batch`](crate::batch::observe_layered_batch)
//! prepares the model, a batch tensor, the observed tensors and one
//! [`Pattern`] per row per tap on every call.  A [`PreparedObserver`]
//! owns all of that storage and refills it in place against a model
//! prepared once: after warm-up to the high-water batch size, a
//! steady-state micro-batch performs zero heap allocations between
//! request intake and judging.  Results are bit-identical to the
//! allocating oracle, [`forward_observe_plan`](crate::batch::forward_observe_plan)
//! (pinned by the equivalence tests and the `forward` eval gate); this
//! file is deny-listed under the analyzer's `hot_path_alloc` rule so
//! allocating calls cannot creep back in unwaived.

use crate::batch::{pack_batch_into, ForwardScratch, ObservedBatch, PreparedModel};
use crate::pattern::Pattern;
use crate::selection::NeuronSelection;
use naps_tensor::Tensor;

/// Reusable storage for the layered observation front half: one packed
/// batch tensor, one forward scratch, one [`ObservedBatch`], and the
/// per-row `(predicted, patterns)` rows — all refilled in place.  Engine
/// workers own one `PreparedObserver` across micro-batches.
#[derive(Debug, Default)]
pub struct PreparedObserver {
    batch: Tensor,
    forward: ForwardScratch,
    out: ObservedBatch,
    /// Row storage, high-water sized; each call returns a prefix of it.
    rows: Vec<(usize, Vec<Pattern>)>,
}

impl PreparedObserver {
    /// An empty observer; storage grows to its high-water shape on first
    /// use and is then reused allocation-free.
    pub fn new() -> Self {
        Self::default()
    }

    /// The allocation-free counterpart of
    /// [`observe_layered_batch`](crate::batch::observe_layered_batch):
    /// packs `inputs`, runs the prepared forward pass, refills per-row
    /// patterns in place, and returns the live rows as
    /// `(predicted, one pattern per tap)`.
    ///
    /// # Panics
    ///
    /// Panics if a tap's layer is not in the prepared model's plan.
    pub fn observe<'a>(
        &mut self,
        model: &PreparedModel,
        inputs: &[Tensor],
        taps: impl Iterator<Item = (usize, &'a NeuronSelection)> + Clone,
    ) -> &[(usize, Vec<Pattern>)] {
        if inputs.is_empty() {
            return &[];
        }
        pack_batch_into(inputs, &mut self.batch);
        self.out.refill(model, &self.batch, &mut self.forward);
        let n = inputs.len();
        while self.rows.len() < n {
            // naps-lint: allow(hot_path_alloc, "warm-up only: row storage grows until the high-water batch size, never in steady state")
            self.rows.push((0, Vec::new()));
        }
        let plan = model.plan();
        for (r, row) in self.rows[..n].iter_mut().enumerate() {
            row.0 = self.out.predicted[r];
            let mut taps_seen = 0;
            // naps-lint: allow(hot_path_alloc, "clones the cheap taps iterator handle to re-walk it per row, not activation data")
            for (t, (layer, selection)) in taps.clone().enumerate() {
                // naps-lint: allow(typed_errors, "taps was derived from this same plan, so every tapped layer has a position in it")
                let slot = plan.position(layer).expect("planned layer");
                if row.1.len() <= t {
                    // Warm-up (or a tap-count change at publish): size
                    // this row's pattern storage once.
                    row.1.push(Pattern::zeros(selection.len()));
                }
                selection.pattern_into(self.out.observed[slot].row(r), &mut row.1[t]);
                taps_seen = t + 1;
            }
            row.1.truncate(taps_seen);
        }
        &self.rows[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{forward_observe_plan, pack_batch, ObservationPlan};
    use naps_nn::Layer;
    use naps_nn::{Dense, ModelSnapshot, Relu, Sequential};

    fn model() -> Sequential {
        let dense = |inw: usize, outw: usize, seed: f32| {
            Dense::from_parts(
                Tensor::from_vec(
                    vec![inw, outw],
                    (0..inw * outw)
                        .map(|i| ((i as f32 + seed) * 0.43).sin())
                        .collect(),
                ),
                Tensor::from_vec(
                    vec![outw],
                    (0..outw)
                        .map(|i| ((i as f32 + seed) * 0.17).cos())
                        .collect(),
                ),
            )
        };
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(dense(3, 5, 0.0)),
            Box::new(Relu::new()),
            Box::new(dense(5, 4, 9.0)),
            Box::new(Relu::new()),
            Box::new(dense(4, 2, 4.0)),
        ];
        Sequential::new(layers)
    }

    fn probes(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|p| {
                Tensor::from_vec(
                    vec![3],
                    (0..3).map(|i| ((p * 3 + i) as f32 * 0.29).sin()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn observer_matches_allocating_path() {
        let mut live = model();
        let snap = ModelSnapshot::capture(&live).expect("MLP captures");
        let plan = ObservationPlan::new(vec![1, 3]);
        let prepared = snap.prepare(&plan);
        let sel1 = NeuronSelection::all(5);
        let sel3 = NeuronSelection::from_indices(vec![0, 2], 4);
        let taps = [(1usize, &sel1), (3usize, &sel3)];
        let mut obs = PreparedObserver::new();
        // Varying batch sizes exercise warm-up, reuse, and shrinking.
        for n in [4usize, 1, 3] {
            let inputs = probes(n);
            // The allocating oracle: one forward over the packed batch,
            // then each tap's pattern read off its planned layer.
            let oracle = forward_observe_plan(&mut live, &pack_batch(&inputs), &plan);
            let want: Vec<(usize, Vec<Pattern>)> = (0..n)
                .map(|r| {
                    let patterns = taps
                        .iter()
                        .map(|&(layer, sel)| {
                            let slot = plan.position(layer).expect("planned");
                            sel.pattern_from(oracle.observed[slot].row(r))
                        })
                        .collect();
                    (oracle.predicted[r], patterns)
                })
                .collect();
            let got = obs.observe(&prepared, &inputs, taps.iter().copied());
            assert_eq!(got, &want[..], "batch size {n}");
        }
    }

    #[test]
    fn empty_inputs_yield_no_rows() {
        let snap = ModelSnapshot::capture(&model()).expect("captures");
        let plan = ObservationPlan::new(vec![1]);
        let prepared = snap.prepare(&plan);
        let sel = NeuronSelection::all(5);
        let mut obs = PreparedObserver::new();
        assert!(obs
            .observe(&prepared, &[], [(1usize, &sel)].iter().copied())
            .is_empty());
    }
}
