//! The prepared, allocation-free inference path: the one forward every
//! observation runs.  The serving engine prepares each replica once at
//! construction or publish; [`Sequential::observe_rows`](crate::Sequential::observe_rows),
//! the in-process observers' pass, prepares the model once per call.
//! [`Sequential::forward_observe_plan`](crate::Sequential::forward_observe_plan),
//! which allocates a fresh output tensor per layer per call, is left as
//! the oracle this path is pinned to.
//!
//! [`ModelSnapshot::prepare`] resolves everything that is frozen at
//! capture time exactly once — layer kinds, weights, batch-norm scales,
//! the observation plan, the input width, and which conv → ReLU →
//! max-pool runs can be fused — and
//! [`PreparedModel::forward_observe_into`] then runs the inference
//! arithmetic writing into a caller-owned [`ForwardScratch`] (ping-pong
//! carry buffers, the conv lowering, one sample's conv output, the
//! logits) and a caller-owned observed-activation vector.  After the
//! first call has sized those buffers to the batch shape, the pass
//! performs zero heap allocation, and every output is bit-identical to
//! the `Sequential` path with `train = false`: dense layers share the
//! one GEMM's accumulation order, the spatial and activation layers run
//! the very kernels the layers' own forward runs ([`crate::kernels`]),
//! and Flatten is an exact identity.
//!
//! A `Conv2d → Relu → MaxPool2d` run whose conv and ReLU outputs the
//! plan does not observe runs as one fused op, one sample at a time
//! (conv, bias, ReLU, pool), in the unfused order of arithmetic; so the
//! paper's Network 1, monitored at fc(40), never writes its
//! `[batch, 40·24·24]` conv and ReLU outputs.  Every other run keeps
//! the unfused ops, which stay the oracle.

use crate::kernels::{self, PoolDims};
use crate::observe::ObservationPlan;
use crate::serialize::{LayerSnapshot, ModelSnapshot};
use naps_tensor::{ConvDims, Tensor};

/// One layer of a [`PreparedModel`]: weight- and kind-dispatch resolved at
/// preparation time.
#[derive(Debug, Clone)]
enum PreparedOp {
    /// Fully-connected layer: weights `[in, out]` and bias `[out]`.
    Dense { w: Tensor, b: Tensor },
    /// Convolution: kernel `[out_c, in_c*k*k]` and bias `[out_c]`, run
    /// output-stationary.
    Conv {
        dims: ConvDims,
        w: Tensor,
        b: Tensor,
    },
    /// Max pooling.
    MaxPool(PoolDims),
    /// A `Conv2d → Relu → MaxPool2d` run whose conv and ReLU outputs the
    /// plan does not observe, lowered into one op at the pool's index.
    ConvReluMaxPool {
        dims: ConvDims,
        w: Tensor,
        b: Tensor,
        pool: PoolDims,
    },
    /// Inference batch norm with its per-channel scale resolved once.
    BatchNorm {
        hw: usize,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        gamma: Tensor,
        beta: Tensor,
    },
    /// ReLU activation.
    Relu,
    /// Flatten (data already flat): an exact identity, skipped entirely
    /// unless observed.
    Identity,
    /// The conv or ReLU of a [`PreparedOp::ConvReluMaxPool`] block,
    /// which runs at a later index: skipped (never observed).
    Folded,
}

/// Reusable per-worker workspace for [`PreparedModel::forward_observe_into`]:
/// two ping-pong activation buffers, the conv lowering, one sample's conv
/// output and the logits, all resized in place.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// The current unobserved activation.
    carry: Tensor,
    /// The buffer the next layer writes into before the ping-pong swap.
    spare: Tensor,
    /// One sample's `im2colᵀ` lowering, reused by every conv layer.
    lowered: Tensor,
    /// One sample's conv output inside a fused conv → ReLU → max-pool
    /// block, before it is pooled.
    conv_out: Tensor,
    /// The final layer's output.
    logits: Tensor,
}

impl ForwardScratch {
    /// An empty scratch; buffers grow to their high-water shapes on first
    /// use and are then reused allocation-free.
    pub fn new() -> Self {
        Self::default()
    }

    /// The logits written by the last
    /// [`PreparedModel::forward_observe_into`] call.
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }
}

/// A [`ModelSnapshot`] with its frozen parts resolved for serving: its
/// weights, a fixed observation plan and the input width.
#[derive(Debug, Clone)]
pub struct PreparedModel {
    ops: Vec<PreparedOp>,
    plan: ObservationPlan,
    input_len: Option<usize>,
}

impl ModelSnapshot {
    /// Resolves the frozen half of the forward pass once: takes over every
    /// layer's weights (the snapshot is consumed, so a capture followed
    /// by a prepare copies each weight once), turns batch-norm variances
    /// into scales and fixes the observation plan, so that
    /// [`PreparedModel::forward_observe_into`] never allocates after
    /// warm-up.  The serving publish/load path calls this exactly where it
    /// compiles frozen zones; a caller that keeps the snapshot prepares a
    /// clone of it.
    ///
    /// Each `Conv2d → Relu → MaxPool2d` run whose conv and ReLU outputs
    /// `plan` does not observe (the pool output may be observed) becomes
    /// one fused op: per sample, the conv goes into a one-sample scratch,
    /// gets its bias and ReLU, and is pooled straight into the output, so
    /// the batch-sized conv and ReLU outputs are never written.  The
    /// result is bit-identical to the unfused ops, which every other run
    /// (an observed intermediate, batch norm between conv and ReLU) keeps.
    /// Fusion is decided here, from the plan alone.
    ///
    /// Its input is a snapshot that [`ModelSnapshot::capture`] made, or
    /// one that [`ModelSnapshot::restore`] accepted: `restore` returns a
    /// snapshot's shape errors, `prepare` panics on them.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a layer `>= self.layers.len()`, or if a
    /// layer's parameters disagree with its shape (the
    /// [`SnapshotError::ShapeMismatch`](crate::SnapshotError::ShapeMismatch)
    /// that [`ModelSnapshot::restore`] returns).
    // naps-lint: allow-fn(hot_path_alloc, "preparation is the cold publish/load half: it allocates once so the per-request half never does")
    pub fn prepare(self, plan: &ObservationPlan) -> PreparedModel {
        if let Some(deepest) = plan.max_layer() {
            assert!(
                deepest < self.layers.len(),
                "plan observes layer {deepest} of a {}-layer snapshot",
                self.layers.len()
            );
        }
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let input_len = self.layers.iter().find_map(LayerSnapshot::input_len);
        let mut ops: Vec<PreparedOp> = self
            .layers
            .into_iter()
            .map(|l| match l {
                LayerSnapshot::Dense { w, b } => PreparedOp::Dense { w, b },
                LayerSnapshot::Conv2d { dims, w, b } => PreparedOp::Conv { dims, w, b },
                LayerSnapshot::MaxPool2d { c, h, w, k } => {
                    PreparedOp::MaxPool(PoolDims::new(c, h, w, k))
                }
                LayerSnapshot::BatchNorm2d {
                    hw,
                    eps,
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                } => PreparedOp::BatchNorm {
                    hw,
                    mean: running_mean,
                    inv_std: running_var
                        .iter()
                        .map(|&v| kernels::inv_std(v, eps))
                        .collect(),
                    gamma,
                    beta,
                },
                LayerSnapshot::Relu => PreparedOp::Relu,
                LayerSnapshot::Flatten { .. } => PreparedOp::Identity,
            })
            .collect();
        for i in 2..ops.len() {
            let pool = match &ops[i - 2..=i] {
                [PreparedOp::Conv { dims, b, .. }, PreparedOp::Relu, PreparedOp::MaxPool(pool)]
                    if b.len() * dims.rows() == pool.in_len()
                        && !plan.observes(i - 2)
                        && !plan.observes(i - 1) =>
                {
                    *pool
                }
                _ => continue,
            };
            if let PreparedOp::Conv { dims, w, b } =
                std::mem::replace(&mut ops[i - 2], PreparedOp::Folded)
            {
                ops[i - 1] = PreparedOp::Folded;
                ops[i] = PreparedOp::ConvReluMaxPool { dims, w, b, pool };
            }
        }
        PreparedModel {
            ops,
            plan: plan.clone(),
            input_len,
        }
    }
}

impl PreparedModel {
    /// The observation plan this model was prepared for.
    pub fn plan(&self) -> &ObservationPlan {
        &self.plan
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of `Conv2d → Relu → MaxPool2d` runs fused into one op (see
    /// [`ModelSnapshot::prepare`]).
    pub fn fused_blocks(&self) -> usize {
        let fused = |op: &&PreparedOp| matches!(op, PreparedOp::ConvReluMaxPool { .. });
        self.ops.iter().filter(fused).count()
    }

    /// `true` for the empty model (logits are then the input).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Multiply-accumulates one input row costs: the dense and conv
    /// products (a conv's per output position); the elementwise layers
    /// and pooling count nothing.
    pub fn macs_per_row(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                PreparedOp::Dense { w, .. } => w.len(),
                PreparedOp::Conv { dims, w, .. } | PreparedOp::ConvReluMaxPool { dims, w, .. } => {
                    w.len() * dims.rows()
                }
                _ => 0,
            })
            .sum()
    }

    /// Sizes `scratch` and `observed` for passes of up to `rows` inputs
    /// of `width` features, so that such a pass allocates nothing: each
    /// buffer gets the high-water shape
    /// [`forward_observe_into`](Self::forward_observe_into) would grow
    /// it to.  A buffer that is allocated here stays in the allocator of
    /// the calling thread, wherever the passes later run.
    pub(crate) fn reserve(
        &self,
        rows: usize,
        width: usize,
        scratch: &mut ForwardScratch,
        observed: &mut Vec<Tensor>,
    ) {
        if observed.len() != self.plan.len() {
            observed.resize(self.plan.len(), Tensor::default());
        }
        let (mut width, mut carry, mut lowered, mut conv_out) = (width, 0, 0, 0);
        for (i, op) in self.ops.iter().enumerate() {
            width = match op {
                PreparedOp::Dense { w, .. } => w.shape()[1],
                PreparedOp::Conv { dims, b, .. } => {
                    lowered = lowered.max(dims.rows() * dims.cols());
                    b.len() * dims.rows()
                }
                PreparedOp::ConvReluMaxPool { dims, pool, .. } => {
                    lowered = lowered.max(dims.rows() * dims.cols());
                    conv_out = conv_out.max(pool.in_len());
                    pool.out_len()
                }
                PreparedOp::MaxPool(pool) => pool.out_len(),
                PreparedOp::BatchNorm { .. }
                | PreparedOp::Relu
                | PreparedOp::Identity
                | PreparedOp::Folded => width,
            };
            match self.plan.position(i) {
                Some(slot) => observed[slot].resize_in_place(&[rows * width]),
                None if !matches!(op, PreparedOp::Identity | PreparedOp::Folded) => {
                    carry = carry.max(rows * width);
                }
                None => {}
            }
        }
        scratch.carry.resize_in_place(&[carry]);
        scratch.spare.resize_in_place(&[carry]);
        scratch.lowered.resize_in_place(&[lowered]);
        scratch.conv_out.resize_in_place(&[conv_out]);
        scratch.logits.resize_in_place(&[rows * width]);
    }

    /// The input width the model accepts: fixed by its first layer that
    /// is not width-preserving (dense, convolution, pooling, batch norm,
    /// flatten); `None` when every layer takes any width.
    pub fn input_len(&self) -> Option<usize> {
        self.input_len
    }

    /// The allocation-free planned forward pass: after the call,
    /// `observed[i]` is the output of plan layer `i` and
    /// [`ForwardScratch::logits`] holds the logits — all bit-identical to
    /// [`Sequential::forward_observe_plan`](crate::Sequential::forward_observe_plan)
    /// with `train = false` on the restored model, all written into
    /// reused storage.
    ///
    /// `observed` is caller-owned reusable storage (e.g. the `observed`
    /// field of a serving `ObservedBatch`); it is resized to the plan
    /// length on first use and reused in place afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch, input_len]` for a model with a fixed
    /// input width.
    pub fn forward_observe_into(
        &self,
        x: &Tensor,
        scratch: &mut ForwardScratch,
        observed: &mut Vec<Tensor>,
    ) {
        // Warm-up only: size the observed storage to the plan.
        if observed.len() != self.plan.len() {
            observed.resize(self.plan.len(), Tensor::default());
        }
        /// Where the current activation lives: borrowed input, the carry
        /// buffer, or an already-filled observed slot.
        enum Src {
            Input,
            Carry,
            Observed(usize),
        }
        let ForwardScratch {
            carry,
            spare,
            lowered,
            conv_out,
            logits,
        } = scratch;
        let mut run = |op: &PreparedOp, x: &Tensor, out: &mut Tensor| {
            apply(op, x, out, lowered, conv_out);
        };
        let mut src = Src::Input;
        for (i, op) in self.ops.iter().enumerate() {
            match self.plan.position(i) {
                Some(slot) => {
                    match src {
                        // Plan slots fill in ascending order, so a filled
                        // source slot sits strictly left of `slot` and the
                        // split borrows are disjoint.
                        Src::Observed(j) => {
                            let (done, rest) = observed.split_at_mut(slot);
                            run(op, &done[j], &mut rest[0]);
                        }
                        Src::Input => run(op, x, &mut observed[slot]),
                        Src::Carry => run(op, carry, &mut observed[slot]),
                    }
                    src = Src::Observed(slot);
                }
                None => {
                    // Unobserved identities are exact no-ops, and folded
                    // layers run inside their block's op: let the current
                    // activation keep flowing.
                    if matches!(op, PreparedOp::Identity | PreparedOp::Folded) {
                        continue;
                    }
                    match src {
                        Src::Input => run(op, x, spare),
                        Src::Carry => run(op, carry, spare),
                        Src::Observed(j) => run(op, &observed[j], spare),
                    }
                    std::mem::swap(carry, spare);
                    src = Src::Carry;
                }
            }
        }
        match src {
            Src::Input => logits.copy_from(x),
            Src::Carry => logits.copy_from(carry),
            Src::Observed(j) => logits.copy_from(&observed[j]),
        }
    }
}

/// Inference-mode forward of one prepared layer into `out`, matching the
/// layer's `forward(.., train = false)` arithmetic exactly (the same GEMM
/// kernel and bias pass for dense layers, the layers' own kernels for
/// the rest; a fused block runs exactly its three layers' arithmetic).
/// `lowered` is the conv lowering scratch and `conv_out` the fused
/// block's one-sample conv output.
fn apply(
    op: &PreparedOp,
    x: &Tensor,
    out: &mut Tensor,
    lowered: &mut Tensor,
    conv_out: &mut Tensor,
) {
    match op {
        PreparedOp::Dense { w, b } => {
            x.matmul_into(w, out);
            let width = w.shape()[1];
            let b = b.data();
            let rows = out.shape()[0];
            let data = out.data_mut();
            for r in 0..rows {
                let row = &mut data[r * width..(r + 1) * width];
                for (v, &bv) in row.iter_mut().zip(b) {
                    *v += bv;
                }
            }
        }
        PreparedOp::Conv { dims, w, b } => kernels::conv2d_into(x, *dims, w, b, lowered, out),
        PreparedOp::ConvReluMaxPool { dims, w, b, pool } => {
            kernels::conv2d_relu_max_pool_into(x, *dims, w, b, *pool, lowered, conv_out, out)
        }
        PreparedOp::MaxPool(d) => kernels::max_pool_into(x, *d, out),
        PreparedOp::BatchNorm {
            hw,
            mean,
            inv_std,
            gamma,
            beta,
        } => kernels::batch_norm_into(x, *hw, mean, inv_std, gamma.data(), beta.data(), out),
        PreparedOp::Relu => kernels::relu_into(x, out),
        PreparedOp::Identity | PreparedOp::Folded => out.copy_from(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::layer::{Flatten, Layer};
    use crate::models::{gtsrb_net, mlp, mnist_net};
    use crate::norm::BatchNorm2d;
    use crate::pool::MaxPool2d;
    use crate::relu::Relu;
    use crate::sequential::Sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snap() -> ModelSnapshot {
        let mut rng = StdRng::seed_from_u64(11);
        ModelSnapshot::capture(&mlp(&[3, 7, 5, 2], &mut rng)).expect("MLP captures")
    }

    /// `[n, width]` inputs, about half of them exact zeros (the GEMM's
    /// zero-skip must not change a single bit).
    fn sparse_batch(n: usize, width: usize, rng: &mut StdRng) -> Tensor {
        let data = (0..n * width)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        Tensor::from_vec(vec![n, width], data)
    }

    #[track_caller]
    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let same = got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: diverged from the Sequential path");
    }

    /// Runs `batches` in turn through one prepared model and one reused
    /// scratch, and pins every observed tensor and the logits bit-for-bit
    /// to the restored `Sequential`'s inference pass.
    #[track_caller]
    fn assert_matches_sequential(snap: &ModelSnapshot, plan: &ObservationPlan, batches: &[Tensor]) {
        let mut oracle = snap.restore().expect("restores");
        let prepared = snap.clone().prepare(plan);
        let mut scratch = ForwardScratch::new();
        let mut observed = Vec::new();
        for x in batches {
            let (want_obs, want_logits) = oracle.forward_observe_plan(x, plan, false);
            prepared.forward_observe_into(x, &mut scratch, &mut observed);
            assert_eq!(observed.len(), want_obs.len(), "{plan:?}");
            for (got, want) in observed.iter().zip(&want_obs) {
                assert_bits_eq(got, want, "observed");
            }
            assert_bits_eq(scratch.logits(), &want_logits, "logits");
        }
    }

    #[test]
    fn prepared_matches_snapshot_bit_for_bit() {
        let snap = snap();
        let x = Tensor::from_vec(vec![2, 3], vec![0.3, -1.2, 0.5, 2.0, 0.1, -0.4]);
        for layers in [vec![], vec![1], vec![3], vec![1, 3], vec![0, 2, 4], vec![4]] {
            let plan = ObservationPlan::new(layers);
            assert_matches_sequential(&snap, &plan, std::slice::from_ref(&x));
        }
    }

    #[test]
    fn prepared_covers_every_layer_variant() {
        let mut rng = StdRng::seed_from_u64(5);
        let dense_head: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new(2)),
            Box::new(Dense::from_parts(
                Tensor::from_vec(vec![2, 3], vec![1., -1., 0.5, 0.25, 2., -0.75]),
                Tensor::from_vec(vec![3], vec![0.1, -0.2, 0.3]),
            )),
            Box::new(Relu::new()),
            Box::new(Dense::from_parts(
                Tensor::from_vec(vec![3, 2], vec![1., 0., -1., 2., 0.5, 0.5]),
                Tensor::zeros(vec![2]),
            )),
        ];
        let snap = ModelSnapshot::capture(&Sequential::new(dense_head)).expect("captures");
        let x = Tensor::from_vec(vec![2, 2], vec![0.6, -1.4, 2.2, 0.0]);
        assert_matches_sequential(&snap, &ObservationPlan::new(vec![0, 1, 2, 3]), &[x]);

        // 1×8×8 → conv(2, k3) → BN → ReLU → maxpool 2 → conv(3, k2) →
        // ReLU → maxpool 2 → flatten → fc(2), with BN running stats moved
        // off their defaults by a few training passes.  The second block
        // runs fused unless the plan observes its conv or ReLU.
        let dims = |in_c, side, k| naps_tensor::ConvDims {
            in_c,
            in_h: side,
            in_w: side,
            k,
            s: 1,
        };
        let spatial: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(dims(1, 8, 3), 2, &mut rng)),
            Box::new(BatchNorm2d::new(2, 6, 6)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 6, 6, 2)),
            Box::new(Conv2d::new(dims(2, 3, 2), 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(3, 2, 2, 2)),
            Box::new(Flatten::new(3)),
            Box::new(Dense::new(3, 2, &mut rng)),
        ];
        let mut net = Sequential::new(spatial);
        for _ in 0..3 {
            let _ = net.forward(&sparse_batch(4, 64, &mut rng), true);
        }
        let snap = ModelSnapshot::capture(&net).expect("captures");
        let batches = [1, 3, 2].map(|n| sparse_batch(n, 64, &mut rng));
        for (layers, fused) in [((0..9).collect(), 0), (vec![2, 6], 1), (vec![2, 5], 0)] {
            let plan = ObservationPlan::new(layers);
            assert_eq!(
                snap.clone().prepare(&plan).fused_blocks(),
                fused,
                "{plan:?}"
            );
            assert_matches_sequential(&snap, &plan, &batches);
        }
    }

    /// Both of the paper's networks, under plans that observe conv, BN,
    /// pooling and dense layers, with the batch size changing between
    /// calls on one scratch.  Network 1's two conv → ReLU → max-pool
    /// blocks run fused unless the plan observes the conv or the ReLU;
    /// Network 2's batch norm keeps its blocks unfused.
    #[test]
    fn paper_networks_match_sequential_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mnist = ModelSnapshot::capture(&mnist_net(&mut rng)).expect("Network 1 captures");
        let batches = [2, 1, 3].map(|n| sparse_batch(n, 28 * 28, &mut rng));
        for (layers, fused) in [
            (vec![0, 2, 3, 14], 0),
            (vec![5, 7, 15], 2),
            (vec![14], 2),
            (vec![1, 14], 1),
            (vec![2, 4], 1),
        ] {
            let plan = ObservationPlan::new(layers);
            assert_eq!(
                mnist.clone().prepare(&plan).fused_blocks(),
                fused,
                "{plan:?}"
            );
            assert_matches_sequential(&mnist, &plan, &batches);
        }

        let mut gtsrb = gtsrb_net(&mut rng);
        for _ in 0..2 {
            let _ = gtsrb.forward(&sparse_batch(3, 3 * 32 * 32, &mut rng), true);
        }
        let gtsrb = ModelSnapshot::capture(&gtsrb).expect("Network 2 captures");
        let batches = [1, 3, 2].map(|n| sparse_batch(n, 3 * 32 * 32, &mut rng));
        for layers in [vec![0, 1, 3, 5, 12], vec![7, 9]] {
            let plan = ObservationPlan::new(layers);
            assert_eq!(gtsrb.clone().prepare(&plan).fused_blocks(), 0);
            assert_matches_sequential(&gtsrb, &plan, &batches);
        }
    }

    #[test]
    fn prepared_model_knows_its_input_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let width = |net: &Sequential| {
            let snap = ModelSnapshot::capture(net).expect("captures");
            snap.prepare(&ObservationPlan::new(vec![])).input_len()
        };
        assert_eq!(width(&mnist_net(&mut rng)), Some(28 * 28));
        assert_eq!(width(&gtsrb_net(&mut rng)), Some(3 * 32 * 32));
        assert_eq!(width(&mlp(&[5, 4, 2], &mut rng)), Some(5));
        let flat = Sequential::new(vec![Box::new(Relu::new()), Box::new(Flatten::new(7))]);
        assert_eq!(width(&flat), Some(7));
        assert_eq!(width(&Sequential::new(vec![Box::new(Relu::new())])), None);
    }

    #[test]
    fn scratch_survives_changing_batch_sizes() {
        let snap = snap();
        let plan = ObservationPlan::new(vec![1, 3]);
        let batches: Vec<Tensor> = [4usize, 1, 3, 2]
            .iter()
            .map(|&batch| {
                Tensor::from_vec(
                    vec![batch, 3],
                    (0..batch * 3).map(|i| (i as f32 * 0.31).sin()).collect(),
                )
            })
            .collect();
        assert_matches_sequential(&snap, &plan, &batches);
    }

    /// After `reserve`, passes of up to the reserved rows never
    /// reallocate a buffer: the fused block's scratch, the ping-pong
    /// carries, every observed slot and the logits keep their storage.
    #[test]
    fn reserved_scratch_is_never_reallocated() {
        let mut rng = StdRng::seed_from_u64(9);
        let mnist = ModelSnapshot::capture(&mnist_net(&mut rng)).expect("Network 1 captures");
        let gtsrb = ModelSnapshot::capture(&gtsrb_net(&mut rng)).expect("Network 2 captures");
        for (snap, plan, width) in [
            (snap(), vec![1, 3], 3),
            (mnist.clone(), vec![14], 28 * 28),
            (mnist, vec![1, 14], 28 * 28),
            (gtsrb, vec![7, 9], 3 * 32 * 32),
        ] {
            let prepared = snap.prepare(&ObservationPlan::new(plan));
            let (mut scratch, mut observed) = (ForwardScratch::new(), Vec::new());
            prepared.reserve(3, width, &mut scratch, &mut observed);
            let storage = |scratch: &ForwardScratch, observed: &[Tensor]| {
                let ptr = |t: &Tensor| t.data().as_ptr() as usize;
                let mut carries = [ptr(&scratch.carry), ptr(&scratch.spare)];
                carries.sort_unstable();
                let fixed = [&scratch.lowered, &scratch.conv_out, &scratch.logits];
                let rest = fixed.into_iter().chain(observed).map(ptr);
                carries.into_iter().chain(rest).collect::<Vec<_>>()
            };
            let before = storage(&scratch, &observed);
            for n in [3, 1, 2] {
                let x = sparse_batch(n, width, &mut rng);
                prepared.forward_observe_into(&x, &mut scratch, &mut observed);
                assert_eq!(storage(&scratch, &observed), before, "{n} rows");
            }
        }
    }

    #[test]
    fn empty_model_returns_input_as_logits() {
        let snap = ModelSnapshot { layers: Vec::new() };
        let prepared = snap.prepare(&ObservationPlan::new(vec![]));
        assert!(prepared.is_empty());
        let x = Tensor::ones(vec![1, 3]);
        let mut scratch = ForwardScratch::new();
        let mut observed = Vec::new();
        prepared.forward_observe_into(&x, &mut scratch, &mut observed);
        assert!(observed.is_empty());
        assert_eq!(scratch.logits(), &x);
    }

    #[test]
    #[should_panic(expected = "plan observes layer 9")]
    fn out_of_range_plan_panics() {
        let _ = snap().prepare(&ObservationPlan::single(9));
    }
}
