//! Property-based tests for the neural-network substrate: gradient
//! correctness against finite differences on random layer configurations,
//! loss invariants, and training-loop sanity.

use naps_nn::{softmax, softmax_cross_entropy, Conv2d, Dense, Layer, MaxPool2d, Relu};
use naps_tensor::{ConvDims, Tensor};
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

    /// Average pooling: the output mean equals the input mean (pooling is
    /// an exact partition of the input), and gradients match finite
    /// differences.
    #[test]
    fn avgpool_preserves_mean_and_gradients(x in finite_vec(16)) {
        use naps_nn::AvgPool2d;
        let mut pool = AvgPool2d::new(1, 4, 4, 2);
        let input = Tensor::from_vec(vec![1, 16], x.clone());
        let y = pool.forward(&input, false);
        let in_mean: f32 = x.iter().sum::<f32>() / 16.0;
        let out_mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        prop_assert!((in_mean - out_mean).abs() < 1e-4);

        let g = pool.backward(&Tensor::ones(vec![1, 4]));
        let eps = 1e-2f32;
        for i in 0..16 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let fp = pool.forward(&Tensor::from_vec(vec![1, 16], xp), false).sum();
            let fm = pool.forward(&Tensor::from_vec(vec![1, 16], xm), false).sum();
            let fd = (fp - fm) / (2.0 * eps);
            prop_assert!((g.data()[i] - fd).abs() < 0.05,
                "grad {} analytic {} fd {}", i, g.data()[i], fd);
        }
    }

    /// Learning-rate schedules stay within (0, base] and cosine decay is
    /// monotone non-increasing.
    #[test]
    fn schedules_stay_bounded(base in 1e-4f32..1.0, every in 1usize..10, total in 1usize..50) {
        use naps_nn::{CosineDecay, LrSchedule, StepDecay};
        let step = StepDecay::new(every, 0.5);
        let cosine = CosineDecay::new(total, base * 1e-3);
        let mut prev_cos = f32::INFINITY;
        for epoch in 0..60 {
            let s = step.lr_at(epoch, base);
            prop_assert!(s > 0.0 && s <= base);
            let c = cosine.lr_at(epoch, base);
            prop_assert!(c > 0.0 && c <= base + 1e-9);
            prop_assert!(c <= prev_cos + 1e-6, "cosine rose at epoch {}", epoch);
            prev_cos = c;
        }
    }

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
        let (mean, var) = activation_moments(&mut net, 0, &xs, 2);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inference convolution (output-stationary: `W @ im2colᵀ` straight
    /// into the channel-major output) is bit-identical to the training
    /// forward pass (`patches @ Wᵀ` plus a transposed scatter) — the same
    /// ascending-`p` sum of the same products per output element — over
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
        let mut conv = Conv2d::from_parts(dims, w, b);
        let in_len = in_c * dims.in_h * dims.in_w;
        let x = Tensor::from_vec(vec![batch, in_len], sparse(batch * in_len, 0.5, &mut rng));
        let trained = conv.forward(&x, true);
        let served = conv.forward(&x, false);
        prop_assert_eq!(served.shape(), trained.shape());
        prop_assert_eq!(bits(&served), bits(&trained), "{:?} out_c {} batch {}", dims, out_c, batch);
    }

    /// Allocation-free inference max pooling equals the argmax-recording
    /// training pass bit-for-bit.
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
        let x = Tensor::from_vec(vec![batch, c * h * w], sparse(batch * c * h * w, 0.5, &mut rng));
        let trained = pool.forward(&x, true);
        prop_assert_eq!(bits(&pool.forward(&x, false)), bits(&trained));
    }
}
