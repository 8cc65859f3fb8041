//! The prepared, allocation-free inference path.
//!
//! [`Sequential::forward_observe_plan`](crate::Sequential::forward_observe_plan)
//! allocates a fresh output tensor per layer per call.
//! [`ModelSnapshot::prepare`] resolves everything that is frozen at
//! capture time exactly once — layer kinds, `Dense` weight panels packed
//! via [`PackedWeights`], batch-norm scales, the observation plan, the
//! input width — and [`PreparedModel::forward_observe_into`] then runs
//! the inference arithmetic writing into a caller-owned
//! [`ForwardScratch`] (ping-pong carry buffers, the conv lowering, the
//! logits) and a caller-owned observed-activation vector.  After the
//! first call has sized those buffers to the batch shape, the pass
//! performs zero heap allocation, and every output is bit-identical to
//! the `Sequential` path with `train = false`: dense layers share the
//! one GEMM's accumulation order, the spatial layers run the very
//! kernels the layers' own inference forward runs
//! ([`crate::kernels`]), and Dropout/Flatten are exact identities.

use crate::kernels::{self, PoolDims};
use crate::observe::ObservationPlan;
use crate::serialize::{LayerSnapshot, ModelSnapshot};
use crate::{conv, dense, norm};
use naps_tensor::{ConvDims, PackedWeights, Tensor};

/// One layer of a [`PreparedModel`]: weight- and kind-dispatch resolved at
/// preparation time.
#[derive(Debug, Clone)]
enum PreparedOp {
    /// Fully-connected layer with its weight panel packed once.
    Dense {
        /// The `[in, out]` panel, packed for `x @ w` products.
        packed: PackedWeights,
        /// Bias vector `[out]`.
        bias: Tensor,
    },
    /// Convolution: kernel `[out_c, in_c*k*k]` and bias `[out_c]`, run
    /// output-stationary.
    Conv {
        dims: ConvDims,
        w: Tensor,
        b: Tensor,
    },
    /// Max pooling.
    MaxPool(PoolDims),
    /// Average pooling.
    AvgPool(PoolDims),
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
    /// Leaky ReLU with its slope.
    LeakyRelu {
        /// Negative-side slope.
        slope: f32,
    },
    /// Dropout (inert at inference) and Flatten (data already flat):
    /// exact identities, skipped entirely unless observed.
    Identity,
}

/// Reusable per-worker workspace for [`PreparedModel::forward_observe_into`]:
/// two ping-pong activation buffers, the conv lowering and the logits, all
/// resized in place.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// The current unobserved activation.
    carry: Tensor,
    /// The buffer the next layer writes into before the ping-pong swap.
    spare: Tensor,
    /// One sample's `im2colᵀ` lowering, reused by every conv layer.
    lowered: Tensor,
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

/// A [`ModelSnapshot`] with its frozen parts resolved for serving: packed
/// weight panels, a fixed observation plan and the input width.
#[derive(Debug, Clone)]
pub struct PreparedModel {
    ops: Vec<PreparedOp>,
    plan: ObservationPlan,
    input_len: Option<usize>,
}

impl ModelSnapshot {
    /// Resolves the frozen half of the forward pass once: packs every
    /// `Dense` weight panel, turns batch-norm variances into scales and
    /// fixes the observation plan, so that
    /// [`PreparedModel::forward_observe_into`] never allocates after
    /// warm-up.  The serving publish/load path calls this exactly where it
    /// compiles frozen zones.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a layer `>= self.layers.len()`, or if a
    /// dense, convolution or batch-norm layer's parameters disagree with
    /// its shape (as [`ModelSnapshot::restore`] does).
    // naps-lint: allow-fn(hot_path_alloc, "preparation is the cold publish/load half: it allocates once so the per-request half never does")
    pub fn prepare(&self, plan: &ObservationPlan) -> PreparedModel {
        if let Some(deepest) = plan.max_layer() {
            assert!(
                deepest < self.layers.len(),
                "plan observes layer {deepest} of a {}-layer snapshot",
                self.layers.len()
            );
        }
        let ops = self
            .layers
            .iter()
            .map(|l| match l {
                LayerSnapshot::Dense { w, b } => {
                    dense::check_parts(w, b);
                    PreparedOp::Dense {
                        packed: PackedWeights::pack(w),
                        bias: b.clone(),
                    }
                }
                LayerSnapshot::Conv2d { dims, w, b } => {
                    conv::check_parts(*dims, w, b);
                    PreparedOp::Conv {
                        dims: *dims,
                        w: w.clone(),
                        b: b.clone(),
                    }
                }
                LayerSnapshot::MaxPool2d { c, h, w, k } => {
                    PreparedOp::MaxPool(PoolDims::new(*c, *h, *w, *k))
                }
                LayerSnapshot::AvgPool2d { c, h, w, k } => {
                    PreparedOp::AvgPool(PoolDims::new(*c, *h, *w, *k))
                }
                LayerSnapshot::BatchNorm2d {
                    hw,
                    eps,
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                } => {
                    norm::check_stats(gamma, beta, running_mean, running_var);
                    PreparedOp::BatchNorm {
                        hw: *hw,
                        mean: running_mean.clone(),
                        inv_std: running_var
                            .iter()
                            .map(|&v| kernels::inv_std(v, *eps))
                            .collect(),
                        gamma: gamma.clone(),
                        beta: beta.clone(),
                    }
                }
                LayerSnapshot::Relu => PreparedOp::Relu,
                LayerSnapshot::LeakyRelu { slope } => PreparedOp::LeakyRelu { slope: *slope },
                LayerSnapshot::Dropout { .. } | LayerSnapshot::Flatten { .. } => {
                    PreparedOp::Identity
                }
            })
            .collect();
        PreparedModel {
            ops,
            plan: plan.clone(),
            input_len: self.layers.iter().find_map(LayerSnapshot::input_len),
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

    /// `true` for the empty model (logits are then the input).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
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
            logits,
        } = scratch;
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
                            apply(op, &done[j], &mut rest[0], lowered);
                        }
                        Src::Input => apply(op, x, &mut observed[slot], lowered),
                        Src::Carry => apply(op, carry, &mut observed[slot], lowered),
                    }
                    src = Src::Observed(slot);
                }
                None => {
                    // Unobserved identities are exact no-ops: let the
                    // current activation keep flowing.
                    if matches!(op, PreparedOp::Identity) {
                        continue;
                    }
                    match src {
                        Src::Input => apply(op, x, spare, lowered),
                        Src::Carry => apply(op, carry, spare, lowered),
                        Src::Observed(j) => apply(op, &observed[j], spare, lowered),
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
/// layer's `forward(.., train = false)` arithmetic exactly (same GEMM
/// kernel and bias pass, the same shared spatial kernels, the same
/// activation closures).  `lowered` is the conv lowering scratch.
fn apply(op: &PreparedOp, x: &Tensor, out: &mut Tensor, lowered: &mut Tensor) {
    match op {
        PreparedOp::Dense { packed, bias } => {
            packed.matmul_into(x, out);
            let width = packed.out_features();
            let b = bias.data();
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
        PreparedOp::MaxPool(d) => kernels::max_pool_into(x, *d, out),
        PreparedOp::AvgPool(d) => kernels::avg_pool_into(x, *d, out),
        PreparedOp::BatchNorm {
            hw,
            mean,
            inv_std,
            gamma,
            beta,
        } => kernels::batch_norm_into(x, *hw, mean, inv_std, gamma.data(), beta.data(), out),
        PreparedOp::Relu => map_into(x, out, |v| v.max(0.0)),
        PreparedOp::LeakyRelu { slope } => {
            let s = *slope;
            map_into(x, out, move |v| if v > 0.0 { v } else { s * v });
        }
        PreparedOp::Identity => out.copy_from(x),
    }
}

/// Elementwise map written into `out` (resized in place).
fn map_into(x: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    out.resize_in_place(x.shape());
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avgpool::AvgPool2d;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::dropout::Dropout;
    use crate::layer::{Flatten, Layer};
    use crate::leaky::LeakyRelu;
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
        let mut oracle = snap.restore();
        let prepared = snap.prepare(plan);
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
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Dropout::new(0.4, 3)),
            Box::new(Dense::from_parts(
                Tensor::from_vec(vec![3, 2], vec![1., 0., -1., 2., 0.5, 0.5]),
                Tensor::zeros(vec![2]),
            )),
        ];
        let snap = ModelSnapshot::capture(&Sequential::new(dense_head)).expect("captures");
        let x = Tensor::from_vec(vec![2, 2], vec![0.6, -1.4, 2.2, 0.0]);
        assert_matches_sequential(&snap, &ObservationPlan::new(vec![0, 1, 2, 3, 4]), &[x]);

        // 1×8×8 → conv(2, k3) → BN → ReLU → maxpool 2 → conv(3, k2) →
        // avgpool 2 → flatten → fc(2), with BN running stats moved off
        // their defaults by a few training passes.
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
            Box::new(AvgPool2d::new(3, 2, 2, 2)),
            Box::new(Flatten::new(3)),
            Box::new(Dense::new(3, 2, &mut rng)),
        ];
        let mut net = Sequential::new(spatial);
        for _ in 0..3 {
            let _ = net.forward(&sparse_batch(4, 64, &mut rng), true);
        }
        let snap = ModelSnapshot::capture(&net).expect("captures");
        let batches = [1, 3, 2].map(|n| sparse_batch(n, 64, &mut rng));
        assert_matches_sequential(&snap, &ObservationPlan::new((0..8).collect()), &batches);
        assert_matches_sequential(&snap, &ObservationPlan::new(vec![2, 5]), &batches);
    }

    /// Both of the paper's networks, under plans that observe conv, BN,
    /// pooling and dense layers, with the batch size changing between
    /// calls on one scratch.
    #[test]
    fn paper_networks_match_sequential_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mnist = ModelSnapshot::capture(&mnist_net(&mut rng)).expect("Network 1 captures");
        let batches = [2, 1, 3].map(|n| sparse_batch(n, 28 * 28, &mut rng));
        for layers in [vec![0, 2, 3, 14], vec![5, 7, 15]] {
            assert_matches_sequential(&mnist, &ObservationPlan::new(layers), &batches);
        }

        let mut gtsrb = gtsrb_net(&mut rng);
        for _ in 0..2 {
            let _ = gtsrb.forward(&sparse_batch(3, 3 * 32 * 32, &mut rng), true);
        }
        let gtsrb = ModelSnapshot::capture(&gtsrb).expect("Network 2 captures");
        let batches = [1, 3, 2].map(|n| sparse_batch(n, 3 * 32 * 32, &mut rng));
        for layers in [vec![0, 1, 3, 5, 12], vec![7, 9]] {
            assert_matches_sequential(&gtsrb, &ObservationPlan::new(layers), &batches);
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
