//! Observation plans: which layers' activations a forward pass must keep.
//!
//! The monitor family reads the output of one or more ReLU layers per
//! query.  The original tap,
//! [`forward_all`](crate::Sequential::forward_all), materialises **every**
//! intermediate activation of the batch — fine for diagnostics, wasteful
//! on a serving hot path where only the monitored layers matter.  An
//! [`ObservationPlan`] names the layers to keep, and a planned forward
//! pass retains **only** those layers' outputs (plus the logits).
//!
//! Every in-process observer — a monitor's build replay, its live and
//! frozen checks, [`crate::activation_moments`] — runs one pass,
//! [`Sequential::observe_rows`]: the model is captured and prepared
//! once per call, and at most 64 rows at a time go through the
//! allocation-free [`crate::PreparedModel`], the same forward the
//! serving engine runs.
//! [`Sequential::forward_observe_plan`] is the allocating oracle the
//! prepared forward is pinned bit-identical to; nothing observes through
//! it in production.

use crate::prepared::ForwardScratch;
use crate::sequential::Sequential;
use crate::serialize::ModelSnapshot;
use naps_tensor::{argmax, Tensor};

/// Inputs per forward pass of [`Sequential::observe_rows`].
const OBSERVE_BATCH: usize = 64;

/// Packs per-input rows into one `[n, feat]` batch tensor.
///
/// # Panics
///
/// Panics if `inputs` is empty or the inputs have inconsistent widths.
pub fn pack_batch(inputs: &[Tensor]) -> Tensor {
    let mut out = Tensor::default();
    pack_batch_into(inputs, &mut out);
    out
}

/// Like [`pack_batch`], but writes into the caller-provided `out` tensor
/// (resized in place; allocation-free once its capacity has reached the
/// high-water batch size).
///
/// # Panics
///
/// Panics if `inputs` is empty or the inputs have inconsistent widths.
pub fn pack_batch_into(inputs: &[Tensor], out: &mut Tensor) {
    let feat = inputs[0].len();
    out.resize_in_place(&[inputs.len(), feat]);
    let data = out.data_mut();
    for (i, t) in inputs.iter().enumerate() {
        assert_eq!(t.len(), feat, "inconsistent input widths");
        data[i * feat..(i + 1) * feat].copy_from_slice(t.data());
    }
}

/// One input's planned activations, as [`Sequential::observe_rows`]
/// hands them out.
#[derive(Debug, Clone, Copy)]
pub struct ObservedRow<'a> {
    observed: &'a [Tensor],
    row: usize,
}

impl<'a> ObservedRow<'a> {
    /// The input's output of `plan.layers()[slot]` — index monitored
    /// layers via [`ObservationPlan::position`].
    pub fn layer(&self, slot: usize) -> &'a [f32] {
        self.observed[slot].row(self.row)
    }
}

/// A sorted, deduplicated set of layer indices whose activations a
/// forward pass must retain.
///
/// Layer indices follow the [`Sequential`] convention: the plan entry `l`
/// keeps the **output** of layer `l` (what `forward_all(..)[l + 1]`
/// returns), which is the tensor a monitor built for layer `l` observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservationPlan {
    layers: Vec<usize>,
}

impl ObservationPlan {
    /// A plan observing `layers` (in any order, duplicates allowed —
    /// stored sorted and deduplicated).
    pub fn new(mut layers: Vec<usize>) -> Self {
        layers.sort_unstable();
        layers.dedup();
        ObservationPlan { layers }
    }

    /// The single-layer plan — the paper's default of one
    /// close-to-output layer.
    pub fn single(layer: usize) -> Self {
        ObservationPlan {
            layers: vec![layer],
        }
    }

    /// The observed layer indices, ascending.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Number of observed layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when nothing is observed (the forward pass then keeps only
    /// the logits).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Position of `layer` in the observed-output list of a planned
    /// forward pass, `None` when the layer is not in
    /// the plan.
    pub fn position(&self, layer: usize) -> Option<usize> {
        self.layers.binary_search(&layer).ok()
    }

    /// `true` when `layer`'s output is retained by this plan.
    pub fn observes(&self, layer: usize) -> bool {
        self.position(layer).is_some()
    }

    /// The deepest observed layer, `None` for an empty plan.
    pub fn max_layer(&self) -> Option<usize> {
        self.layers.last().copied()
    }
}

impl Sequential {
    /// The one in-process observation pass: observes `inputs` through
    /// the model, keeping only the `plan`ned layers, and calls
    /// `each(index, predicted, activations)` once per input, in input
    /// order.
    ///
    /// The model is captured and prepared once per call
    /// ([`ModelSnapshot::prepare`]); then at most 64 inputs at a time are
    /// packed into one reused batch tensor and run through
    /// [`PreparedModel::forward_observe_into`](crate::PreparedModel::forward_observe_into)
    /// with one [`ForwardScratch`].  So `n` inputs take ⌈n/64⌉ forward
    /// passes, each counted by [`Sequential::forward_passes`], and no pass
    /// holds more than 64 rows of any layer.  Every activation and
    /// prediction is bit-identical to
    /// [`forward_observe_plan`](Sequential::forward_observe_plan) with
    /// `train = false`, and a row's result does not depend on the rows
    /// packed beside it.
    ///
    /// # Panics
    ///
    /// Panics if the model holds a layer from outside this crate (a
    /// custom [`Layer`](crate::Layer) cannot be captured, so the message
    /// says "in-process observation needs a model of naps-nn's built-in
    /// layers"), if the plan names a layer `>= self.len()`, or if the
    /// inputs do not all have the model's input width.
    pub fn observe_rows(
        &mut self,
        inputs: &[Tensor],
        plan: &ObservationPlan,
        mut each: impl FnMut(usize, usize, ObservedRow<'_>),
    ) {
        if inputs.is_empty() {
            return;
        }
        let model = ModelSnapshot::capture(self)
            // naps-lint: allow(typed_errors, "no model the workspace builds holds a custom layer; observing one is the documented panic")
            .expect("in-process observation needs a model of naps-nn's built-in layers")
            .prepare(plan);
        let (mut batch, mut scratch, mut observed) =
            (Tensor::default(), ForwardScratch::new(), Vec::new());
        for (c, chunk) in inputs.chunks(OBSERVE_BATCH).enumerate() {
            pack_batch_into(chunk, &mut batch);
            model.forward_observe_into(&batch, &mut scratch, &mut observed);
            self.count_pass();
            for r in 0..chunk.len() {
                let row = ObservedRow {
                    observed: &observed,
                    row: r,
                };
                each(c * OBSERVE_BATCH + r, argmax(scratch.logits().row(r)), row);
            }
        }
    }

    /// Runs the network on a batch and keeps only the activations the
    /// plan asks for: returns `(observed, logits)`, where `observed[i]`
    /// is the output of `plan.layers()[i]`.  The allocating oracle of
    /// [`observe_rows`](Sequential::observe_rows) and of the prepared
    /// serving forward: each layer's own `forward` writes a fresh tensor.
    ///
    /// Agrees with [`Sequential::forward_all`] entry-for-entry on the
    /// planned layers and the logits, while retaining no unobserved
    /// layer's activation: at any moment the live set is the planned
    /// outputs kept so far plus the one tensor currently flowing,
    /// instead of the network's whole depth.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a layer `>= self.len()`.
    pub fn forward_observe_plan(
        &mut self,
        x: &Tensor,
        plan: &ObservationPlan,
        train: bool,
    ) -> (Vec<Tensor>, Tensor) {
        if let Some(deepest) = plan.max_layer() {
            assert!(
                deepest < self.len(),
                "plan observes layer {deepest} of a {}-layer model",
                self.len()
            );
        }
        self.count_pass();
        if self.is_empty() {
            return (Vec::new(), x.clone());
        }
        let mut observed: Vec<Tensor> = Vec::with_capacity(plan.len());
        // The current activation lives either in `carry` (not observed:
        // dropped as soon as the next layer consumes it) or as the tail
        // of `observed` (kept for the caller).  Until the first layer has
        // produced an output, the input batch is only borrowed — no
        // upfront clone.
        let mut carry: Option<Tensor> = None;
        for i in 0..self.len() {
            let input = carry.as_ref().or_else(|| observed.last()).unwrap_or(x);
            let out = self.layer_mut(i).forward(input, train);
            if plan.observes(i) {
                carry = None;
                observed.push(out);
            } else {
                carry = Some(out);
            }
        }
        let logits = match carry {
            Some(t) => t,
            // The last layer itself is observed: the logits are the final
            // observed entry (one extra clone, only in that rare plan).
            // naps-lint: allow(typed_errors, "carry is None only when the final layer was observed, i.e. its output was pushed onto observed")
            None => observed.last().cloned().expect("observed last layer"),
        };
        (observed, logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(11);
        mlp(&[3, 7, 5, 2], &mut rng)
    }

    #[test]
    fn plan_sorts_and_dedups() {
        let plan = ObservationPlan::new(vec![3, 1, 3, 1]);
        assert_eq!(plan.layers(), &[1, 3]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.position(3), Some(1));
        assert_eq!(plan.position(2), None);
        assert!(plan.observes(1) && !plan.observes(0));
        assert_eq!(plan.max_layer(), Some(3));
        assert!(ObservationPlan::new(Vec::new()).is_empty());
    }

    #[test]
    fn plan_agrees_with_forward_all() {
        let mut net = net();
        let x = Tensor::from_vec(vec![2, 3], vec![0.3, -1.2, 0.5, 2.0, 0.1, -0.4]);
        let all = net.forward_all(&x, false);
        for layers in [vec![], vec![1], vec![3], vec![1, 3], vec![0, 2, 4]] {
            let plan = ObservationPlan::new(layers.clone());
            let (observed, logits) = net.forward_observe_plan(&x, &plan, false);
            assert_eq!(observed.len(), plan.len());
            for (got, &l) in observed.iter().zip(plan.layers()) {
                assert_eq!(got, &all[l + 1], "layer {l}");
            }
            assert_eq!(&logits, all.last().expect("nonempty"), "{layers:?}");
        }
    }

    /// `observe_rows` hands out the oracle's rows in input order, in
    /// ⌈n/64⌉ counted passes; no input, no pass.
    #[test]
    fn observe_rows_matches_the_oracle_in_64_row_passes() {
        let mut net = net();
        let inputs: Vec<Tensor> = (0..130)
            .map(|i| {
                let t = i as f32;
                Tensor::from_vec(vec![3], vec![(t * 0.37).sin(), (t * 0.11).cos(), t * 0.01])
            })
            .collect();
        let plan = ObservationPlan::new(vec![1, 3]);
        let (want, logits) = net.forward_observe_plan(&pack_batch(&inputs), &plan, false);
        net.reset_forward_passes();
        let mut seen = 0;
        net.observe_rows(&inputs, &plan, |i, predicted, row| {
            assert_eq!(i, seen);
            assert_eq!(predicted, argmax(logits.row(i)));
            for (slot, layer) in want.iter().enumerate() {
                assert_eq!(row.layer(slot), layer.row(i), "input {i}, slot {slot}");
            }
            seen += 1;
        });
        assert_eq!((seen, net.forward_passes()), (130, 3));
        net.observe_rows(&[], &plan, |_, _, _| unreachable!("no input"));
        assert_eq!(net.forward_passes(), 3);
    }

    #[test]
    fn observing_the_last_layer_yields_the_logits_twice() {
        let mut net = net();
        let last = net.len() - 1;
        let x = Tensor::ones(vec![1, 3]);
        let (observed, logits) =
            net.forward_observe_plan(&x, &ObservationPlan::single(last), false);
        assert_eq!(observed.len(), 1);
        assert_eq!(observed[0], logits);
    }

    #[test]
    #[should_panic(expected = "plan observes layer 9")]
    fn out_of_range_plan_panics() {
        let mut net = net();
        let x = Tensor::ones(vec![1, 3]);
        let _ = net.forward_observe_plan(&x, &ObservationPlan::single(9), false);
    }

    #[test]
    fn empty_model_returns_input_as_logits() {
        let mut net = Sequential::new(Vec::new());
        let x = Tensor::ones(vec![1, 3]);
        let (obs, logits) = net.forward_observe_plan(&x, &ObservationPlan::new(vec![]), false);
        assert!(obs.is_empty());
        assert_eq!(logits, x);
    }
}
