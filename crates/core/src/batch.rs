//! Shared batched-forward scaffolding for the monitor family.
//!
//! Every batch check follows the same shape — pack the per-input rows
//! into one `[n, feat]` tensor, run a single forward pass, argmax the
//! logits per row, read the monitored layers' activations — and only the
//! final judgement differs.  Two drivers run that shape:
//!
//! - the **live and write side** observes through one pass,
//!   [`observe_rows`]: it packs at most 64 inputs at a time into one
//!   reused tensor, runs [`forward_observe_plan`] once per chunk and
//!   hands each row's index, predicted class and planned activations to
//!   a callback, in input order.  Its callers are
//!   [`crate::MonitorBuilder`]'s training-set replay, the single-layer
//!   and layered checks ([`observe_single_layer_batch`],
//!   [`observe_layered_batch`], and through them
//!   [`crate::stats::evaluate_with_mode`]), [`crate::RefinedMonitor`]'s
//!   and [`crate::GridMonitor`]'s checks.  No in-process forward pass
//!   takes more than 64 rows;
//! - **serving** (`naps-serve`'s engine workers) runs the prepared,
//!   allocation-free pass, [`ObservedBatch::refill`] on a
//!   [`PreparedModel`].
//!
//! [`naps_nn::Sequential::forward_observe_plan`] is the oracle for both:
//! the prepared forward is pinned bit-identical to it, so served
//! verdicts equal sequential ones.  A row's forward result does not
//! depend on the rows packed beside it, so chunking moves no verdict.
//!
//! Observation goes through [`ObservationPlan`]s: the forward pass keeps
//! **only** the planned layers' activations (plus the logits), so a
//! monitor watching two of a ten-layer network's ReLUs allocates two
//! intermediate tensors per chunk, not ten.

use crate::pattern::Pattern;
use crate::selection::NeuronSelection;
use naps_nn::Sequential;
use naps_tensor::{argmax, Tensor};

pub use naps_nn::{ForwardScratch, ObservationPlan, PreparedModel};

/// Inputs per forward pass of [`observe_rows`].
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
/// The one forward of [`observe_rows`], the live and write side's
/// observation pass, on [`Sequential::forward_observe_plan`] — the
/// oracle the prepared serving pass ([`ObservedBatch::refill`]) is
/// pinned bit-identical to.
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

/// One input's planned activations, as [`observe_rows`] hands them out.
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

/// The live and write side's one observation pass: observes `inputs`
/// through `model`, keeping only the `plan`ned layers, and calls
/// `each(index, predicted, activations)` once per input, in input order.
///
/// At most 64 inputs are packed into one reused batch tensor per
/// [`forward_observe_plan`] call, so `n` inputs take ⌈n/64⌉ forward
/// passes and no pass holds more than 64 rows of any layer.
///
/// # Panics
///
/// Panics if the inputs have inconsistent widths.
pub fn observe_rows(
    model: &mut Sequential,
    inputs: &[Tensor],
    plan: &ObservationPlan,
    mut each: impl FnMut(usize, usize, ObservedRow<'_>),
) {
    let mut batch = Tensor::default();
    for (c, chunk) in inputs.chunks(OBSERVE_BATCH).enumerate() {
        pack_batch_into(chunk, &mut batch);
        let ObservedBatch {
            predicted,
            observed,
        } = forward_observe_plan(model, &batch, plan);
        for (r, p) in predicted.into_iter().enumerate() {
            let row = ObservedRow {
                observed: &observed,
                row: r,
            };
            each(c * OBSERVE_BATCH + r, p, row);
        }
    }
}

/// Extracts, for each input, the predicted class plus one pattern per
/// `(layer, selection)` tap — the shared front half of every
/// **layered** check, live ([`crate::LayeredMonitor`]) and frozen
/// (`naps-serve`'s layered family): [`observe_rows`], then per-tap
/// pattern extraction.  Keeping it here means the
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
    let mut out = Vec::with_capacity(inputs.len());
    observe_rows(model, inputs, plan, |_, p, row| {
        let patterns = taps
            .clone()
            .map(|(layer, selection)| {
                // naps-lint: allow(typed_errors, "taps was derived from this same plan, so every tapped layer has a position in it")
                let slot = plan.position(layer).expect("planned layer");
                selection.pattern_from(row.layer(slot))
            })
            .collect();
        out.push((p, patterns));
    });
    out
}

/// The one-tap case of [`observe_layered_batch`]: per input, the
/// predicted class and the pattern `selection` reads off `layer` — the
/// front half of every single-layer check, live ([`crate::Monitor`]) and
/// frozen (`naps-serve`'s `FrozenMonitor`).  The same pass and
/// extraction, with one pattern per row instead of a one-element list.
pub fn observe_single_layer_batch(
    model: &mut Sequential,
    inputs: &[Tensor],
    layer: usize,
    selection: &NeuronSelection,
) -> Vec<(usize, Pattern)> {
    let mut out = Vec::with_capacity(inputs.len());
    observe_rows(
        model,
        inputs,
        &ObservationPlan::single(layer),
        |_, p, row| {
            out.push((p, selection.pattern_from(row.layer(0))));
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::activation::ActivationMonitor;
    use crate::monitor::Verdict;
    use crate::multilayer::{CombinePolicy, LayeredMonitor};
    use crate::refined::NumericDomain;
    use crate::zone::ExactZone;
    use crate::MonitorBuilder;
    use naps_nn::{mlp, Sequential};
    use naps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn inputs(n: usize, rng: &mut StdRng) -> Vec<Tensor> {
        (0..n)
            .map(|_| Tensor::from_vec(vec![5], (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    /// `check_batch` over `probes` runs ⌈n/64⌉ forward passes and returns
    /// exactly the reports of per-input `check`.
    fn chunked_batch_equals_per_input_checks<M>(
        monitor: &M,
        net: &mut Sequential,
        probes: &[Tensor],
    ) -> Vec<M::Report>
    where
        M: ActivationMonitor,
        M::Report: PartialEq + std::fmt::Debug,
    {
        net.reset_forward_passes();
        let batch = monitor.check_batch(net, probes);
        assert_eq!(net.forward_passes(), 3, "130 inputs in 64-row chunks");
        let single: Vec<M::Report> = probes.iter().map(|x| monitor.check(net, x)).collect();
        assert_eq!(batch, single);
        batch
    }

    #[test]
    fn check_batch_observes_in_64_row_chunks_with_per_input_verdicts() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = mlp(&[5, 12, 8, 3], &mut rng);
        let train = inputs(100, &mut rng);
        let labels = net.predict(&super::pack_batch(&train));
        // Half the probes were replayed, half are fresh: both verdicts show.
        let mut probes = train[..65].to_vec();
        probes.extend(inputs(65, &mut rng));

        let builder = MonitorBuilder::new(1, 0);
        let single = builder.build::<ExactZone>(&mut net, &train, &labels, 3);
        let reports = chunked_batch_equals_per_input_checks(&single, &mut net, &probes);
        assert!(reports.iter().any(|r| r.verdict == Verdict::InPattern));
        assert!(reports.iter().any(|r| r.verdict == Verdict::OutOfPattern));

        let deep = MonitorBuilder::new(3, 0).build::<ExactZone>(&mut net, &train, &labels, 3);
        let layered = LayeredMonitor::new(vec![single, deep], CombinePolicy::Any);
        chunked_batch_equals_per_input_checks(&layered, &mut net, &probes);

        let refined =
            builder.build_refined::<ExactZone>(&mut net, &train, &labels, 3, NumericDomain::Box);
        chunked_batch_equals_per_input_checks(&refined, &mut net, &probes);
    }
}
