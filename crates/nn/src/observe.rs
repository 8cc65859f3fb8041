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
//! serving engine runs.  `n` inputs take ⌈n/64⌉ counted passes.  A call
//! of more than 64 rows whose forward work pays for a thread spawn
//! splits each pass across up to
//! [`available_parallelism`](std::thread::available_parallelism)
//! scoped threads, each with its own packed share and scratch; a
//! smaller call runs on the calling thread alone.  Either way no more
//! than 64 rows of any layer are live at once, rows are handed out on
//! the calling thread in input order, and every row is bit-identical
//! to the one-thread pass.
//! [`Sequential::forward_observe_plan`] is the allocating oracle the
//! prepared forward is pinned bit-identical to; nothing observes through
//! it in production.

use crate::prepared::{ForwardScratch, PreparedModel};
use crate::sequential::Sequential;
use crate::serialize::ModelSnapshot;
use naps_tensor::{argmax, Tensor};
use std::num::NonZeroUsize;
use std::sync::{mpsc, OnceLock};

/// Inputs per forward pass of [`Sequential::observe_rows`].
const OBSERVE_BATCH: usize = 64;

/// Multiply-accumulates per row that a fanned-out pass spends on handing
/// a share to a helper thread and back (≈ 17 µs per pass on a 2-vCPU
/// x86 host, where a MAC of the GEMM costs ≈ 0.05 ns, counted over the
/// 64 rows of a pass and doubled for the half of the work a second
/// thread takes over): a model of fewer MACs per row never gains from
/// fanning out.
const HANDOFF_MACS_PER_ROW: usize = 12_000;

/// Forward work beyond the hand-offs, in multiply-accumulates, that one
/// more thread of [`Sequential::observe_rows`] must take over to pay
/// for its spawn and join (≈ 26 µs on the same host).
const SPAWN_MACS: usize = 1_000_000;

/// The thread count [`Sequential::observe_rows`] observes `rows` inputs
/// on: one, plus one per [`SPAWN_MACS`] of forward work beyond the
/// hand-offs, at most the host's parallelism.  A call of at most 64
/// rows, or one too small to pay for a spawn, runs on the calling
/// thread and returns before asking the host (which reads cgroup files;
/// the answer is read once per process).
fn threads_for(rows: usize, macs_per_row: usize) -> usize {
    if rows <= OBSERVE_BATCH {
        return 1;
    }
    let work = rows.saturating_mul(macs_per_row.saturating_sub(HANDOFF_MACS_PER_ROW));
    let extra = work / SPAWN_MACS;
    if extra == 0 {
        return 1;
    }
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    let host = *HOST_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    host.min(extra.saturating_add(1))
}

/// One thread's share of a forward pass: its packed rows, its forward
/// scratch and the activations it observed.
#[derive(Debug, Default)]
struct Lane {
    batch: Tensor,
    scratch: ForwardScratch,
    observed: Vec<Tensor>,
}

impl Lane {
    /// Sizes every buffer for shares of up to `rows` inputs of `width`
    /// features.
    fn reserve(&mut self, model: &PreparedModel, rows: usize, width: usize) {
        self.batch.resize_in_place(&[rows * width]);
        model.reserve(rows, width, &mut self.scratch, &mut self.observed);
    }

    /// Packs `rows` and runs them through `model`.
    fn run(&mut self, model: &PreparedModel, rows: &[Tensor]) {
        pack_batch_into(rows, &mut self.batch);
        model.forward_observe_into(&self.batch, &mut self.scratch, &mut self.observed);
    }

    /// Calls `each` on the `rows` inputs of the last [`Lane::run`],
    /// numbering them from `first`.
    fn hand_out<F>(&self, first: usize, rows: usize, each: &mut F)
    where
        F: FnMut(usize, usize, ObservedRow<'_>) + ?Sized,
    {
        for r in 0..rows {
            let row = ObservedRow {
                observed: &self.observed,
                row: r,
            };
            each(first + r, argmax(self.scratch.logits().row(r)), row);
        }
    }
}

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
    pack_rows_into(inputs.iter(), out);
}

/// The one row packer of naps-nn: writes `rows` into `out` as one
/// `[n, feat]` batch, `feat` being the first row's width.  Observation
/// packs slices of inputs, training gathers its shuffled mini-batches.
///
/// # Panics
///
/// Panics if `rows` is empty or the rows have inconsistent widths.
pub(crate) fn pack_rows_into<'a>(
    rows: impl ExactSizeIterator<Item = &'a Tensor> + Clone,
    out: &mut Tensor,
) {
    assert!(rows.len() > 0, "empty batch");
    let feat = rows.clone().next().map_or(0, Tensor::len);
    out.resize_in_place(&[rows.len(), feat]);
    let data = out.data_mut();
    for (i, t) in rows.enumerate() {
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
    /// order, on the calling thread.
    ///
    /// The model is captured and prepared once per call
    /// ([`ModelSnapshot::prepare`]); then the inputs go through
    /// [`PreparedModel::forward_observe_into`] in passes of at most 64
    /// rows.  So `n` inputs take ⌈n/64⌉ forward passes, each counted by
    /// [`Sequential::forward_passes`], and no pass holds more than 64
    /// rows of any layer.
    ///
    /// A call of more than 64 inputs whose forward work (inputs × the
    /// model's [`macs_per_row`](PreparedModel::macs_per_row)) pays for
    /// a thread spawn splits each pass across up to
    /// [`std::thread::available_parallelism`] scoped threads: every
    /// thread packs and runs its own share of the pass's rows with its
    /// own scratch, sized on the calling thread, and the calling thread
    /// hands the rows out in input order once their share is done.  A
    /// call of at most 64 inputs, or of less work, runs on the calling
    /// thread alone.  Every activation and prediction is bit-identical
    /// to [`forward_observe_plan`](Sequential::forward_observe_plan)
    /// with `train = false` whatever the thread count, because a row's
    /// result does not depend on the rows packed beside it.
    ///
    /// # Panics
    ///
    /// Panics if the model holds a layer from outside this crate (a
    /// custom [`Layer`](crate::Layer) cannot be captured, so the message
    /// says "in-process observation needs a model of naps-nn's built-in
    /// layers"), if the plan names a layer `>= self.len()`, or if the
    /// inputs do not all have the model's input width.  A panic on a
    /// helper thread resumes on the calling thread with its own message.
    pub fn observe_rows(
        &mut self,
        inputs: &[Tensor],
        plan: &ObservationPlan,
        each: impl FnMut(usize, usize, ObservedRow<'_>),
    ) {
        self.observe_rows_on(threads_for, inputs, plan, each);
    }

    /// [`observe_rows`](Sequential::observe_rows) on
    /// `threads(inputs, macs_per_row)` threads, clamped to the rows of
    /// the first pass.
    fn observe_rows_on(
        &mut self,
        threads: fn(usize, usize) -> usize,
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
        let first_pass = inputs.len().min(OBSERVE_BATCH);
        let threads = threads(inputs.len(), model.macs_per_row()).clamp(1, first_pass);
        if threads == 1 {
            let mut lane = Lane::default();
            for (c, pass) in inputs.chunks(OBSERVE_BATCH).enumerate() {
                lane.run(&model, pass);
                self.count_pass();
                lane.hand_out(c * OBSERVE_BATCH, pass.len(), &mut each);
            }
            return;
        }
        self.observe_fanned_out(&model, threads, inputs, &mut each);
    }

    /// The fanned-out half of [`observe_rows_on`](Sequential::observe_rows_on):
    /// each pass split across `threads` threads.  It takes the callback
    /// as a trait object, so one copy of the threading code serves every
    /// caller.
    fn observe_fanned_out(
        &mut self,
        model: &PreparedModel,
        threads: usize,
        inputs: &[Tensor],
        each: &mut dyn FnMut(usize, usize, ObservedRow<'_>),
    ) {
        let first_pass = inputs.len().min(OBSERVE_BATCH);
        // Every helper's buffers are sized here, so they live in the
        // calling thread's allocator rather than in a fresh per-thread
        // arena of each helper.
        let mut lanes: Vec<Lane> = (0..threads).map(|_| Lane::default()).collect();
        for lane in &mut lanes[1..] {
            lane.reserve(model, first_pass.div_ceil(threads), inputs[0].len());
        }
        std::thread::scope(|s| {
            // Lane `t` travels to helper `t` with its share of a pass
            // and comes back with the share observed.
            let mut helpers: Vec<_> = (1..threads)
                .map(|_| {
                    let (work, work_rx) = mpsc::sync_channel::<(Lane, &[Tensor])>(1);
                    let (done_tx, done) = mpsc::sync_channel::<Lane>(1);
                    let handle = s.spawn(move || {
                        for (mut lane, rows) in work_rx {
                            lane.run(model, rows);
                            if done_tx.send(lane).is_err() {
                                break;
                            }
                        }
                    });
                    (work, done, Some(handle))
                })
                .collect();
            for (c, pass) in inputs.chunks(OBSERVE_BATCH).enumerate() {
                // Leading lanes take the odd rows, so the calling
                // thread's share is never empty.
                let start = |t: usize| (t * pass.len()).div_ceil(threads);
                let share = |t: usize| start(t)..start(t + 1);
                for (t, (work, _, _)) in helpers.iter().enumerate() {
                    let rows = &pass[share(t + 1)];
                    if !rows.is_empty() {
                        // A closed channel means the helper panicked;
                        // its panic resumes below, at its receive.
                        let _ = work.send((std::mem::take(&mut lanes[t + 1]), rows));
                    }
                }
                lanes[0].run(model, &pass[share(0)]);
                self.count_pass();
                let first = c * OBSERVE_BATCH;
                lanes[0].hand_out(first, share(0).len(), each);
                for (t, (_, done, handle)) in helpers.iter_mut().enumerate() {
                    let rows = share(t + 1);
                    if rows.is_empty() {
                        continue;
                    }
                    let Ok(lane) = done.recv() else {
                        if let Some(Err(panic)) = handle.take().map(|h| h.join()) {
                            std::panic::resume_unwind(panic);
                        }
                        unreachable!("an observation helper stopped without panicking");
                    };
                    lanes[t + 1] = lane;
                    lanes[t + 1].hand_out(first + rows.start, rows.len(), each);
                }
            }
        });
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
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::layer::Flatten;
    use crate::models::mlp;
    use crate::pool::MaxPool2d;
    use crate::relu::Relu;
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

    /// A small conv net: 1×6×6 → conv(2, k3) → ReLU → max pool 2 →
    /// flatten → fc(3) → ReLU → fc(2).  Observed at its fc(3) ReLU, the
    /// conv → ReLU → pool block runs fused, so every thread carries the
    /// fused block's scratch.
    fn conv_net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = naps_tensor::ConvDims {
            in_c: 1,
            in_h: 6,
            in_w: 6,
            k: 3,
            s: 1,
        };
        Sequential::new(vec![
            Box::new(Conv2d::new(dims, 2, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 4, 4, 2)),
            Box::new(Flatten::new(8)),
            Box::new(Dense::new(8, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(3, 2, &mut rng)),
        ])
    }

    fn inputs(n: usize, width: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let data = (0..width).map(|j| ((i * width + j) as f32 * 0.37).sin());
                Tensor::from_vec(vec![width], data.collect())
            })
            .collect()
    }

    /// `observe_rows` on 1 to 4 threads hands out the oracle's rows in
    /// input order, in ⌈n/64⌉ counted passes, on a dense and a conv net
    /// and on call sizes around the 64-row pass; no input, no pass.
    #[test]
    fn observe_rows_matches_the_oracle_in_64_row_passes() {
        for (mut net, width, plan) in [
            (net(), 3, ObservationPlan::new(vec![1, 3])),
            (conv_net(), 36, ObservationPlan::single(5)),
        ] {
            for n in [1, 63, 64, 65, 130, 257] {
                let inputs = inputs(n, width);
                let (want, logits) = net.forward_observe_plan(&pack_batch(&inputs), &plan, false);
                let threads: [fn(usize, usize) -> usize; 4] =
                    [|_, _| 1, |_, _| 2, |_, _| 3, |_, _| 4];
                for (t, threads) in threads.into_iter().enumerate() {
                    net.reset_forward_passes();
                    let mut seen = 0;
                    net.observe_rows_on(threads, &inputs, &plan, |i, predicted, row| {
                        assert_eq!(i, seen, "{} threads, n = {n}", t + 1);
                        assert_eq!(predicted, argmax(logits.row(i)));
                        for (slot, layer) in want.iter().enumerate() {
                            let same = row.layer(slot).iter().zip(layer.row(i));
                            assert!(
                                same.clone().count() == layer.row(i).len()
                                    && same.into_iter().all(|(a, b)| a.to_bits() == b.to_bits()),
                                "input {i}, slot {slot}, {} threads",
                                t + 1
                            );
                        }
                        seen += 1;
                    });
                    assert_eq!((seen, net.forward_passes()), (n, n.div_ceil(64) as u64));
                }
            }
            net.observe_rows(&[], &plan, |_, _, _| unreachable!("no input"));
            assert_eq!(net.forward_passes(), 5);
        }
    }

    /// A call of at most 64 rows, or of too little work, stays on the
    /// calling thread; a large one fans out no wider than the host.
    #[test]
    fn only_large_calls_fan_out() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_for(64, usize::MAX), 1);
        assert_eq!(threads_for(1_000_000, HANDOFF_MACS_PER_ROW), 1);
        let per_spawn = HANDOFF_MACS_PER_ROW + SPAWN_MACS / 100;
        assert_eq!(threads_for(99, per_spawn), 1);
        assert_eq!(threads_for(100, per_spawn), 2.min(host));
        assert_eq!(threads_for(1_000, usize::MAX), host);
    }

    /// An input of the wrong width in a helper's share surfaces the
    /// packer's message on the calling thread, not a channel error.
    #[test]
    #[should_panic(expected = "inconsistent input widths")]
    fn a_helper_panic_resumes_on_the_calling_thread() {
        let mut net = net();
        let mut inputs = inputs(130, 3);
        inputs[100] = Tensor::ones(vec![4]);
        net.observe_rows_on(|_, _| 2, &inputs, &ObservationPlan::single(1), |_, _, _| {});
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
