//! Property-based tests for the neural-network substrate: gradient
//! correctness against finite differences on random layer configurations,
//! loss invariants, and training-loop sanity.

use naps_nn::{
    softmax, softmax_cross_entropy, Conv2d, Dense, ForwardScratch, Layer, MaxPool2d, ModelSnapshot,
    ObservationPlan, Relu, Sequential,
};
use naps_tensor::{col2im_into, im2col, max_pool2d, max_pool2d_backward, ConvDims, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense input gradients match central finite differences for random
    /// weights and inputs (objective: sum of outputs).
    #[test]
    fn dense_input_gradient_is_correct(
        w in finite_vec(6),
        bvec in finite_vec(2),
        x in finite_vec(3),
    ) {
        let weights = Tensor::from_vec(vec![3, 2], w);
        let bias = Tensor::from_vec(vec![2], bvec);
        let mut layer = Dense::from_parts(weights, bias);
        let input = Tensor::from_vec(vec![1, 3], x.clone());
        let _ = layer.forward(&input, true);
        let g = layer.backward(&Tensor::ones(vec![1, 2]));
        let eps = 1e-2f32;
        for i in 0..3 {
            let mut xp = input.clone();
            xp.data_mut()[i] += eps;
            let mut xm = input.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, true).sum();
            let fm = layer.forward(&xm, true).sum();
            let fd = (fp - fm) / (2.0 * eps);
            prop_assert!((g.data()[i] - fd).abs() < 0.05,
                "grad {} analytic {} fd {}", i, g.data()[i], fd);
        }
    }

    /// ReLU forward/backward satisfy the subgradient contract: outputs are
    /// max(0,x) and gradients vanish exactly where the output is zero.
    #[test]
    fn relu_forward_backward_contract(x in finite_vec(12)) {
        let mut relu = Relu::new();
        let input = Tensor::from_vec(vec![2, 6], x.clone());
        let y = relu.forward(&input, true);
        for (o, i) in y.data().iter().zip(&x) {
            prop_assert_eq!(*o, i.max(0.0));
        }
        let g = relu.backward(&Tensor::ones(vec![2, 6]));
        for (gi, i) in g.data().iter().zip(&x) {
            prop_assert_eq!(*gi, if *i > 0.0 { 1.0 } else { 0.0 });
        }
    }

    /// Softmax rows are probability distributions, invariant to shifts.
    #[test]
    fn softmax_is_a_distribution(x in finite_vec(8), shift in -5.0f32..5.0) {
        let logits = Tensor::from_vec(vec![2, 4], x.clone());
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let shifted = logits.map(|v| v + shift);
        let q = softmax(&shifted);
        for (a, b) in p.data().iter().zip(q.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Cross-entropy gradient rows sum to zero and the gradient matches
    /// finite differences at a random coordinate.
    #[test]
    fn cross_entropy_gradient_properties(
        x in finite_vec(6),
        label in 0usize..3,
        coord in 0usize..6,
    ) {
        let logits = Tensor::from_vec(vec![2, 3], x);
        let labels = [label, (label + 1) % 3];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {} sums to {}", r, s);
        }
        let eps = 1e-2f32;
        let mut lp = logits.clone();
        lp.data_mut()[coord] += eps;
        let mut lm = logits.clone();
        lm.data_mut()[coord] -= eps;
        let (fp, _) = softmax_cross_entropy(&lp, &labels);
        let (fm, _) = softmax_cross_entropy(&lm, &labels);
        let fd = (fp - fm) / (2.0 * eps);
        prop_assert!((grad.data()[coord] - fd).abs() < 5e-3,
            "coord {}: analytic {} fd {}", coord, grad.data()[coord], fd);
    }

    /// Matmul transposed variants agree with explicit transposition on
    /// random shapes.
    #[test]
    fn matmul_variants_agree(
        m in 1usize..4, k in 1usize..4, n in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let c = Tensor::randn(vec![n, k], 1.0, &mut rng);
        let at = a.transpose();
        prop_assert_eq!(at.matmul_at(&b), a.matmul(&b));
        let explicit = a.matmul(&c.transpose());
        let fused = a.matmul_bt(&c);
        for (x, y) in explicit.data().iter().zip(fused.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Activation moments: variance is non-negative and the mean of a
    /// constant batch is that constant with zero variance.
    #[test]
    fn activation_moments_basic_laws(vals in finite_vec(4), n in 1usize..6) {
        use naps_nn::{activation_moments, Sequential};
        // Identity dense layer, 4 -> 4.
        let mut w = vec![0.0f32; 16];
        for i in 0..4 {
            w[i * 4 + i] = 1.0;
        }
        let dense = Dense::from_parts(
            Tensor::from_vec(vec![4, 4], w),
            Tensor::zeros(vec![4]),
        );
        let mut net = Sequential::new(vec![Box::new(dense)]);
        let xs: Vec<Tensor> = (0..n)
            .map(|_| Tensor::from_vec(vec![4], vals.clone()))
            .collect();
        let (mean, var) = activation_moments(&mut net, 0, &xs);
        for (m, v) in mean.iter().zip(&vals) {
            prop_assert!((m - v).abs() < 1e-4);
        }
        for v in &var {
            prop_assert!(v.abs() < 1e-4, "constant batch must have zero variance");
        }
    }
}

/// `n` values from `rng`, each an exact zero with probability `zeros`
/// and uniform in `[-2, 2)` otherwise.
fn sparse(n: usize, zeros: f64, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(zeros) {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `n` values from `rng` with many exact zeros of both signs and many
/// repeats, so that pooling windows tie and gradients carry `-0.0`:
/// `+0.0` or `-0.0` a quarter of the time each, one of four fixed values
/// a quarter of the time, else uniform in `[-2, 2)`.
fn signed_sparse(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 | 5 => [-1.0, 0.5, 1.0, 2.0][rng.gen_range(0..4)],
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// The reference convolution of a batch: per sample, `im2col` patches
/// `@ Wᵀ` plus the bias, scattered channel-major.
fn conv_oracle(x: &Tensor, dims: ConvDims, w: &Tensor, b: &Tensor) -> Tensor {
    let (batch, out_c, rows) = (x.shape()[0], b.len(), dims.rows());
    let mut out = Tensor::zeros(vec![batch, out_c * rows]);
    for s in 0..batch {
        let sample = Tensor::from_vec(vec![x.shape()[1]], x.row(s).to_vec());
        let y = im2col(&sample, dims).matmul_bt(w);
        for c in 0..out_c {
            for r in 0..rows {
                out.data_mut()[(s * out_c + c) * rows + r] = y.at2(r, c) + b.data()[c];
            }
        }
    }
    out
}

/// The reference convolution backward: per sample, the position-major
/// gradient `gpos`, `dW += gposᵀ @ patches`, `db += column sums of gpos`
/// and `dX = col2im(gpos @ W)`.  Accumulates into `grad_w`/`grad_b` and
/// returns dX.
fn conv_backward_oracle(
    x: &Tensor,
    grad_out: &Tensor,
    dims: ConvDims,
    w: &Tensor,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
) -> Tensor {
    let (batch, in_len) = (x.shape()[0], x.shape()[1]);
    let (out_c, rows) = (w.shape()[0], dims.rows());
    let mut grad_in = Tensor::zeros(vec![batch, in_len]);
    for s in 0..batch {
        let sample = Tensor::from_vec(vec![in_len], x.row(s).to_vec());
        let patches = im2col(&sample, dims);
        let mut gpos = Tensor::zeros(vec![rows, out_c]);
        for c in 0..out_c {
            for r in 0..rows {
                gpos.set2(r, c, grad_out.row(s)[c * rows + r]);
            }
        }
        grad_w.add_assign(&gpos.matmul_at(&patches));
        grad_b.add_assign(&gpos.sum_rows());
        let gp = gpos.matmul(w);
        col2im_into(
            gp.data(),
            dims,
            &mut grad_in.data_mut()[s * in_len..(s + 1) * in_len],
        );
    }
    grad_in
}

/// The reference max pooling of a batch: per sample, the pooled maps and
/// the flat argmax of every window.
fn max_pool_oracle(
    x: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
) -> (Tensor, Vec<Vec<usize>>) {
    let batch = x.shape()[0];
    let mut pooled = Vec::new();
    let mut argmax = Vec::new();
    for s in 0..batch {
        let sample = Tensor::from_vec(vec![c, h, w], x.row(s).to_vec());
        let (p, arg) = max_pool2d(&sample, c, h, w, k);
        pooled.extend_from_slice(p.data());
        argmax.push(arg);
    }
    let out_len = pooled.len() / batch;
    (Tensor::from_vec(vec![batch, out_len], pooled), argmax)
}

/// The conv's `(dW, db)` as accumulated so far.
fn conv_grads(conv: &mut Conv2d) -> (Tensor, Tensor) {
    let params = conv.params_mut();
    (params[0].grad.clone(), params[1].grad.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The convolution layer's forward — training and inference alike,
    /// the output-stationary `W @ im2colᵀ` kernel — is bit-identical to
    /// the reference `im2col` patches `@ Wᵀ` plus bias: the same
    /// ascending-`p` sum of the same products per output element.  Over
    /// random geometry, strides, channel counts and batch sizes, with
    /// about half the inputs and a quarter of the weights exact zeros.
    #[test]
    fn output_stationary_conv_matches_training_forward(
        shape in (1usize..4, 1usize..5, 1usize..4, 1usize..5),
        margin in (0usize..6, 0usize..6, 1usize..4),
        seed in any::<u64>(),
    ) {
        let (in_c, k, s, out_c) = shape;
        let (extra_h, extra_w, batch) = margin;
        let dims = ConvDims { in_c, in_h: k + extra_h, in_w: k + extra_w, k, s };
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Tensor::from_vec(vec![out_c, dims.cols()], sparse(out_c * dims.cols(), 0.25, &mut rng));
        let b = Tensor::from_vec(vec![out_c], sparse(out_c, 0.25, &mut rng));
        let mut conv = Conv2d::from_parts(dims, w.clone(), b.clone());
        let in_len = in_c * dims.in_h * dims.in_w;
        let x = Tensor::from_vec(vec![batch, in_len], sparse(batch * in_len, 0.5, &mut rng));
        let want = conv_oracle(&x, dims, &w, &b);
        for train in [true, false] {
            let got = conv.forward(&x, train);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(bits(&got), bits(&want), "{:?} out_c {} batch {} train {}", dims, out_c, batch, train);
        }
    }

    /// The max-pooling layer's forward, training and inference alike,
    /// equals the argmax-recording reference pooling bit-for-bit (its
    /// strict `>` in row-major window order lets the first of tied `±0.0`
    /// win).  On data full of `±0.0` and repeated values, so windows tie.
    #[test]
    fn inference_max_pool_matches_training_forward(
        shape in (1usize..4, 1usize..4, 0usize..5, 0usize..5),
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (c, k, extra_h, extra_w) = shape;
        let (h, w) = (k + extra_h, k + extra_w);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = MaxPool2d::new(c, h, w, k);
        let x = Tensor::from_vec(vec![batch, c * h * w], signed_sparse(batch * c * h * w, &mut rng));
        let (want, _) = max_pool_oracle(&x, c, h, w, k);
        prop_assert_eq!(bits(&pool.forward(&x, true)), bits(&want));
        prop_assert_eq!(bits(&pool.forward(&x, false)), bits(&want));
    }

    /// The backward passes are bit-identical to the per-sample reference
    /// backward of each layer — dW, db and dX of the convolution over two
    /// accumulated batches, the max pool's routing to each window's first
    /// strict maximum, and the ReLU's gate — on data full of
    /// `±0.0`, repeated values (tied windows) and, for the activations,
    /// infinite gradients.
    #[test]
    fn backward_passes_match_the_per_sample_reference(
        shape in (1usize..4, 1usize..5, 1usize..3, 1usize..5),
        margin in (0usize..5, 0usize..5, 1usize..4),
        seed in any::<u64>(),
    ) {
        let (in_c, k, s, out_c) = shape;
        let (extra_h, extra_w, batch) = margin;
        let dims = ConvDims { in_c, in_h: k + extra_h, in_w: k + extra_w, k, s };
        let in_len = in_c * dims.in_h * dims.in_w;
        let out_len = out_c * dims.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Tensor::from_vec(vec![out_c, dims.cols()], signed_sparse(out_c * dims.cols(), &mut rng));
        let b = Tensor::from_vec(vec![out_c], signed_sparse(out_c, &mut rng));
        let mut conv = Conv2d::from_parts(dims, w.clone(), b.clone());
        let mut params_only = Conv2d::from_parts(dims, w.clone(), b);
        let mut want_w = Tensor::zeros(vec![out_c, dims.cols()]);
        let mut want_b = Tensor::zeros(vec![out_c]);
        for round in 0..2 {
            let x = Tensor::from_vec(vec![batch, in_len], signed_sparse(batch * in_len, &mut rng));
            let g = Tensor::from_vec(vec![batch, out_len], signed_sparse(batch * out_len, &mut rng));
            let _ = conv.forward(&x, true);
            let got = conv.backward(&g);
            let _ = params_only.forward(&x, true);
            params_only.backward_params(&g);
            let want = conv_backward_oracle(&x, &g, dims, &w, &mut want_w, &mut want_b);
            let (got_w, got_b) = conv_grads(&mut conv);
            prop_assert_eq!(bits(&got), bits(&want), "dX, round {}, {:?}", round, dims);
            prop_assert_eq!(bits(&got_w), bits(&want_w), "dW, round {}, {:?}", round, dims);
            prop_assert_eq!(bits(&got_b), bits(&want_b), "db, round {}, {:?}", round, dims);
            let (only_w, only_b) = conv_grads(&mut params_only);
            prop_assert_eq!(bits(&only_w), bits(&want_w), "params-only dW, round {}", round);
            prop_assert_eq!(bits(&only_b), bits(&want_b), "params-only db, round {}", round);
        }

        let (c, h, w) = (in_c, dims.in_h, dims.in_w);
        let mut pool = MaxPool2d::new(c, h, w, k);
        let x = Tensor::from_vec(vec![batch, c * h * w], signed_sparse(batch * c * h * w, &mut rng));
        let (_, argmax) = max_pool_oracle(&x, c, h, w, k);
        let pooled_len = pool.output_len();
        let g = Tensor::from_vec(vec![batch, pooled_len], signed_sparse(batch * pooled_len, &mut rng));
        let _ = pool.forward(&x, true);
        let got = pool.backward(&g);
        let mut want = Vec::new();
        for (s, arg) in argmax.iter().enumerate() {
            let gs = Tensor::from_vec(vec![pooled_len], g.row(s).to_vec());
            want.extend(max_pool2d_backward(&gs, arg, c * h * w).data().iter().map(|v| v.to_bits()));
        }
        prop_assert_eq!(bits(&got), want, "max pool dX");

        let n = batch * in_len;
        let x = Tensor::from_vec(vec![batch, in_len], signed_sparse(n, &mut rng));
        let mut gv = signed_sparse(n, &mut rng);
        for v in gv.iter_mut().step_by(7) {
            *v = if rng.gen_bool(0.5) { f32::INFINITY } else { f32::NEG_INFINITY };
        }
        let g = Tensor::from_vec(vec![batch, in_len], gv);
        let mut relu = Relu::new();
        let _ = relu.forward(&x, true);
        let mut want = g.clone();
        for (v, &xi) in want.data_mut().iter_mut().zip(x.data()) {
            if xi <= 0.0 {
                *v = 0.0;
            }
        }
        prop_assert_eq!(bits(&relu.backward(&g)), bits(&want), "relu dX");
    }
}

/// Runs `x` through `snap` prepared for `plan` and returns the observed
/// tensors followed by the logits.
fn prepared_outputs(snap: &ModelSnapshot, plan: &ObservationPlan, x: &Tensor) -> Vec<Tensor> {
    let prepared = snap.clone().prepare(plan);
    let mut scratch = ForwardScratch::new();
    let mut observed = Vec::new();
    prepared.forward_observe_into(x, &mut scratch, &mut observed);
    observed.push(scratch.logits().clone());
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A prepared `Conv2d → Relu → MaxPool2d` run whose conv and ReLU
    /// outputs are unobserved is one fused op, bit-identical to the
    /// unfused chain — the layers' own forward (`conv2d_into`, then
    /// `relu_into`, then `max_pool_into`) and the prepared unfused ops.
    /// Random geometry (maps whose side is not a multiple of the pool
    /// window included), strides 1 and 2, batches of 1 to 3, and data
    /// full of `±0.0` and repeated values; one channel may have all-zero
    /// weights and a `-0.0` bias, so its windows are all zeros and tie.
    #[test]
    fn fused_conv_block_matches_the_unfused_chain(
        shape in (1usize..4, 1usize..5, 1usize..3, 1usize..5),
        margin in (0usize..7, 0usize..7, 1usize..4),
        pool_k in 1usize..4,
        zero_channel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (in_c, k, s, out_c) = shape;
        let (extra_h, extra_w, batch) = margin;
        let dims = ConvDims { in_c, in_h: k + extra_h, in_w: k + extra_w, k, s };
        let (oh, ow) = (dims.out_h(), dims.out_w());
        let pool_k = pool_k.min(oh).min(ow);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = signed_sparse(out_c * dims.cols(), &mut rng);
        let mut b = signed_sparse(out_c, &mut rng);
        if zero_channel {
            for (i, v) in w[..dims.cols()].iter_mut().enumerate() {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            b[0] = -0.0;
        }
        let conv = Conv2d::from_parts(
            dims,
            Tensor::from_vec(vec![out_c, dims.cols()], w),
            Tensor::from_vec(vec![out_c], b),
        );
        let mut net = Sequential::new(vec![
            Box::new(conv),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(out_c, oh, ow, pool_k)),
        ]);
        let snap = ModelSnapshot::capture(&net).expect("captures");
        let in_len = in_c * dims.in_h * dims.in_w;
        let x = Tensor::from_vec(vec![batch, in_len], signed_sparse(batch * in_len, &mut rng));

        let (_, want) = net.forward_observe_plan(&x, &ObservationPlan::new(vec![]), false);
        let unfused = prepared_outputs(&snap, &ObservationPlan::new(vec![0, 1, 2]), &x);
        prop_assert_eq!(bits(&unfused[3]), bits(&want), "unfused prepared ops");
        for plan in [vec![], vec![2]] {
            let plan = ObservationPlan::new(plan);
            prop_assert_eq!(snap.clone().prepare(&plan).fused_blocks(), 1);
            let fused = prepared_outputs(&snap, &plan, &x);
            for got in &fused {
                prop_assert_eq!(bits(got), bits(&want), "{:?} {:?} pool {}", plan, dims, pool_k);
            }
        }
        for observed in [0, 1] {
            let plan = ObservationPlan::single(observed);
            prop_assert_eq!(snap.clone().prepare(&plan).fused_blocks(), 0);
            let got = prepared_outputs(&snap, &plan, &x);
            prop_assert_eq!(bits(&got[0]), bits(&unfused[observed]));
            prop_assert_eq!(bits(&got[1]), bits(&want));
        }
    }
}
