//! Shared batched-forward scaffolding for the monitor family.
//!
//! Every batch check follows the same shape — pack the per-input rows
//! into `[n, feat]` tensors, run the forward pass, argmax the logits per
//! row, read the monitored layers' activations — and only the final
//! judgement differs.  One forward driver runs that shape, the prepared,
//! allocation-free [`PreparedModel`]:
//!
//! - **in process**, every observer runs
//!   [`Sequential::observe_rows`]: it prepares the model once per call,
//!   packs at most 64 inputs at a time into one reused tensor and hands
//!   each row's index, predicted class and planned activations to a
//!   callback, in input order.  Its callers are
//!   [`crate::MonitorBuilder`]'s training-set replay, the single-layer
//!   and layered checks ([`observe_single_layer_batch`],
//!   [`observe_layered_batch`], and through them
//!   [`crate::stats::evaluate_with_mode`]), [`crate::RefinedMonitor`]'s
//!   and [`crate::GridMonitor`]'s checks.  No in-process forward pass
//!   takes more than 64 rows; a large call may split each pass across
//!   the host's cores, and the callback still sees the rows in input
//!   order on the calling thread;
//! - **serving** (`naps-serve`'s engine workers) keeps one prepared model
//!   per replica and refills one [`ObservedBatch`] in place per
//!   micro-batch ([`ObservedBatch::refill`]).
//!
//! [`forward_observe_plan`] (on [`Sequential::forward_observe_plan`]) is
//! the allocating oracle both are pinned bit-identical to; nothing in
//! production observes through it.  A row's forward result does not
//! depend on the rows packed beside it, so chunking moves no verdict.
//!
//! Observation goes through [`ObservationPlan`]s: the forward pass keeps
//! **only** the planned layers' activations (plus the logits), so a
//! monitor watching two of a ten-layer network's ReLUs writes two
//! observed tensors per chunk, not ten.

use crate::pattern::Pattern;
use crate::selection::NeuronSelection;
use naps_nn::Sequential;
use naps_tensor::{argmax, Tensor};

pub use naps_nn::{pack_batch, pack_batch_into, ForwardScratch, ObservationPlan, PreparedModel};

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
/// The allocating oracle, on [`Sequential::forward_observe_plan`]: the
/// prepared forward ([`ObservedBatch::refill`],
/// [`Sequential::observe_rows`]) is pinned bit-identical to it.
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
/// (`naps-serve`'s layered family): [`Sequential::observe_rows`], then
/// per-tap pattern extraction.  Keeping it here means the
/// engine-vs-sequential bit-identical guarantee rests on a single
/// extraction implementation.
///
/// `plan` must observe every tap's layer (the caller builds both from
/// the same monitor family).
///
/// # Panics
///
/// Panics if a tap's layer is not in the plan, and as
/// [`Sequential::observe_rows`] does (a model with a layer from outside
/// `naps-nn` cannot be observed).
pub fn observe_layered_batch<'a>(
    model: &mut Sequential,
    inputs: &[Tensor],
    plan: &ObservationPlan,
    taps: impl Iterator<Item = (usize, &'a NeuronSelection)> + Clone,
) -> Vec<(usize, Vec<Pattern>)> {
    let mut out = Vec::with_capacity(inputs.len());
    model.observe_rows(inputs, plan, |_, p, row| {
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
///
/// # Panics
///
/// As [`Sequential::observe_rows`] does.
pub fn observe_single_layer_batch(
    model: &mut Sequential,
    inputs: &[Tensor],
    layer: usize,
    selection: &NeuronSelection,
) -> Vec<(usize, Pattern)> {
    let mut out = Vec::with_capacity(inputs.len());
    model.observe_rows(inputs, &ObservationPlan::single(layer), |_, p, row| {
        out.push((p, selection.pattern_from(row.layer(0))));
    });
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
