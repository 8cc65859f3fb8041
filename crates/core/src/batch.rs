//! Shared batched-forward scaffolding for the monitor family.
//!
//! Every batch check follows the same shape — pack the per-input rows
//! into one `[n, feat]` tensor, run a single forward pass, argmax the
//! logits per row, read the monitored layers' activations — and only the
//! final judgement differs.  Two drivers run that shape:
//!
//! - the **live and write side** observe here, through
//!   [`forward_observe_plan`]: the in-process monitors' checks (single
//!   layer via [`observe_single_layer_batch`], layered via
//!   [`observe_layered_batch`], refined and grid on the packed frame)
//!   and [`crate::MonitorBuilder`]'s training-set replay;
//! - **serving** (`naps-serve`'s engine workers) runs the prepared,
//!   allocation-free pass, [`ObservedBatch::refill`] on a
//!   [`PreparedModel`].
//!
//! [`naps_nn::Sequential::forward_observe_plan`] is the oracle for both:
//! the prepared forward is pinned bit-identical to it, so served
//! verdicts equal sequential ones.
//!
//! Observation goes through [`ObservationPlan`]s: the forward pass keeps
//! **only** the planned layers' activations (plus the logits), so a
//! monitor watching two of a ten-layer network's ReLUs allocates two
//! intermediate tensors per batch, not ten.

use crate::pattern::Pattern;
use crate::selection::NeuronSelection;
use naps_nn::Sequential;
use naps_tensor::Tensor;

pub use naps_nn::{ForwardScratch, ObservationPlan, PreparedModel};

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

/// Index of the largest logit (first wins on ties), i.e. `dec(in)`.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// One observed batch: per-row predicted classes plus the retained
/// activations of every planned layer.
///
/// The struct is reusable storage: the prepared serving path refills one
/// `ObservedBatch` per worker in place via [`ObservedBatch::refill`], so
/// steady-state micro-batches allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct ObservedBatch {
    /// Per-row `dec(in)` (argmax of the logits).
    pub predicted: Vec<usize>,
    /// `observed[i]` is the `[n, width_i]` output of
    /// `plan.layers()[i]` — index monitored layers via
    /// [`ObservationPlan::position`].
    pub observed: Vec<Tensor>,
}

impl ObservedBatch {
    /// The allocation-free counterpart of [`forward_observe_plan`]: runs
    /// the prepared model on a packed `[n, feat]` batch, writing the
    /// planned activations and per-row predictions into this struct's
    /// reused storage.  Bit-identical to the allocating path (the
    /// prepared forward pins this; `argmax` is shared verbatim).
    pub fn refill(&mut self, model: &PreparedModel, batch: &Tensor, scratch: &mut ForwardScratch) {
        model.forward_observe_into(batch, scratch, &mut self.observed);
        self.predicted.clear();
        let rows = batch.shape()[0];
        for r in 0..rows {
            self.predicted.push(argmax(scratch.logits().row(r)));
        }
    }
}

/// Runs one forward pass over a packed `[n, feat]` batch, keeping only
/// the planned layers' activations, and returns them with the per-row
/// predicted classes.
///
/// The live and write side's one observation path: every in-process
/// check and every monitor build observes through it, on
/// [`Sequential::forward_observe_plan`] — the oracle the prepared
/// serving pass ([`ObservedBatch::refill`]) is pinned bit-identical to.
pub fn forward_observe_plan(
    model: &mut Sequential,
    batch: &Tensor,
    plan: &ObservationPlan,
) -> ObservedBatch {
    let rows = batch.shape()[0];
    let (observed, logits) = model.forward_observe_plan(batch, plan, false);
    let predicted = (0..rows).map(|r| argmax(logits.row(r))).collect();
    ObservedBatch {
        predicted,
        observed,
    }
}

/// Extracts, for each input, the predicted class plus one pattern per
/// `(layer, selection)` tap — the shared front half of every
/// **layered** check, live ([`crate::LayeredMonitor`]) and frozen
/// (`naps-serve`'s layered family): one plan-observed forward pass,
/// then per-tap pattern extraction.  Keeping it here means the
/// engine-vs-sequential bit-identical guarantee rests on a single
/// extraction implementation.
///
/// `plan` must observe every tap's layer (the caller builds both from
/// the same monitor family).
///
/// # Panics
///
/// Panics if a tap's layer is not in the plan.
pub fn observe_layered_batch<'a>(
    model: &mut Sequential,
    inputs: &[Tensor],
    plan: &ObservationPlan,
    taps: impl Iterator<Item = (usize, &'a NeuronSelection)> + Clone,
) -> Vec<(usize, Vec<Pattern>)> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let batch = pack_batch(inputs);
    let ObservedBatch {
        predicted,
        observed,
    } = forward_observe_plan(model, &batch, plan);
    predicted
        .into_iter()
        .enumerate()
        .map(|(r, p)| {
            let patterns = taps
                .clone()
                .map(|(layer, selection)| {
                    // naps-lint: allow(typed_errors, "taps was derived from this same plan, so every tapped layer has a position in it")
                    let slot = plan.position(layer).expect("planned layer");
                    selection.pattern_from(observed[slot].row(r))
                })
                .collect();
            (p, patterns)
        })
        .collect()
}

/// The one-tap case of [`observe_layered_batch`]: per input, the
/// predicted class and the pattern `selection` reads off `layer` — the
/// front half of every single-layer check, live ([`crate::Monitor`]) and
/// frozen (`naps-serve`'s `FrozenMonitor`).  The same forward pass and
/// extraction, with one pattern per row instead of a one-element list.
pub fn observe_single_layer_batch(
    model: &mut Sequential,
    inputs: &[Tensor],
    layer: usize,
    selection: &NeuronSelection,
) -> Vec<(usize, Pattern)> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let batch = pack_batch(inputs);
    let ObservedBatch {
        predicted,
        observed,
    } = forward_observe_plan(model, &batch, &ObservationPlan::single(layer));
    predicted
        .into_iter()
        .enumerate()
        .map(|(r, p)| (p, selection.pattern_from(observed[0].row(r))))
        .collect()
}
