//! Property-based tests for the tensor substrate: linear-algebra laws and
//! the im2col/col2im adjoint relation on random geometries.

use naps_tensor::{
    col2im_into, im2col, im2col_into, max_pool2d, max_pool2d_backward, ConvDims, Tensor,
};
use proptest::prelude::*;

/// Exact bitwise equality on shape and every `f32` element — the
/// equivalence the serving gates demand (plain `==` would conflate
/// `0.0` and `-0.0`).
fn bits_eq(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn tensor(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, m * n)
        .prop_map(move |d| Tensor::from_vec(vec![m, n], d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) within f32 tolerance on small random matrices.
    #[test]
    fn matmul_is_associative(
        a in tensor(3, 2), b in tensor(2, 4), c in tensor(4, 2),
    ) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    /// Transpose is an involution and (AB)^T == B^T A^T.
    #[test]
    fn transpose_laws(a in tensor(3, 4), b in tensor(4, 2)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Elementwise ops are pointwise and shape-preserving.
    #[test]
    fn elementwise_laws(a in tensor(2, 5), b in tensor(2, 5)) {
        let sum = a.add(&b);
        let diff = sum.sub(&b);
        for (x, y) in diff.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// im2col/col2im satisfy the adjoint identity
    /// <im2col(x), g> == <x, col2im(g)> for random geometry and data.
    #[test]
    fn im2col_col2im_are_adjoint(
        c in 1usize..3,
        h in 3usize..6,
        k in 1usize..3,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let dims = ConvDims { in_c: c, in_h: h, in_w: h, k, s: 1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![c, h, h], 1.0, &mut rng);
        let g = Tensor::randn(vec![dims.rows(), dims.cols()], 1.0, &mut rng);
        let px = im2col(&x, dims);
        let lhs: f32 = px.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; x.len()];
        col2im_into(g.data(), dims, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    /// Max pooling returns genuine per-window maxima and its backward
    /// routes all gradient mass (conservation).
    #[test]
    fn pooling_laws(seed in 0u64..500) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![2, 4, 4], 1.0, &mut rng);
        let (pooled, arg) = max_pool2d(&x, 2, 4, 4, 2);
        // Every pooled value is attained at its argmax position.
        for (o, &idx) in pooled.data().iter().zip(&arg) {
            prop_assert_eq!(*o, x.data()[idx]);
        }
        // Gradient conservation.
        let g = Tensor::ones(vec![2, 2, 2]);
        let back = max_pool2d_backward(&g, &arg, x.len());
        prop_assert!((back.sum() - g.sum()).abs() < 1e-5);
    }

    /// `matmul_into`, `matmul_at` and `matmul_bt` must be bit-identical to
    /// `matmul` — and all of them to the naive ascending-`p`
    /// triple loop — across shapes straddling every tile edge of the
    /// kernel this host dispatches to (4-row blocks and their one-row
    /// tail; 64/32/16/8-wide column tiles and the narrow remainder), with
    /// exact zeros and `-0.0` in both operands and a whole zero 4-row
    /// block of `a` to exercise the sparsity skips.
    #[test]
    fn gemm_variants_are_bit_identical(
        m in 1usize..10, k in 1usize..41, n in 1usize..130, seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let mut b = Tensor::randn(vec![k, n], 1.0, &mut rng);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = 0.0;
            } else if i % 7 == 0 {
                *v = -0.0;
            } else if i / k < 4 && (i % k) % 3 == 1 {
                // Column p of the first 4-row block is all zeros.
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            if i % 6 == 0 {
                *v = -0.0;
            } else if i % 11 == 0 {
                *v = 0.0;
            }
        }
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    naive[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                }
            }
        }
        let want = Tensor::from_vec(vec![m, n], naive);
        prop_assert!(bits_eq(&a.matmul(&b), &want), "matmul vs naive");
        prop_assert!(bits_eq(&a.transpose().matmul_at(&b), &want), "matmul_at");
        prop_assert!(bits_eq(&a.matmul_bt(&b.transpose()), &want), "matmul_bt");
        // A reused dirty output must not taint the product.
        let mut out = Tensor::from_vec(vec![2], vec![5., 5.]);
        a.matmul_into(&b, &mut out);
        prop_assert!(bits_eq(&out, &want), "matmul_into");
    }

    /// `im2col_into` into a reused dirty scratch equals fresh `im2col`.
    #[test]
    fn im2col_into_matches_fresh(
        c in 1usize..3, h in 3usize..6, k in 1usize..3, seed in 0u64..200,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let dims = ConvDims { in_c: c, in_h: h, in_w: h, k, s: 1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![c, h, h], 1.0, &mut rng);
        let mut scratch = Tensor::full(vec![3], 9.0);
        im2col_into(x.data(), dims, &mut scratch);
        prop_assert!(bits_eq(&scratch, &im2col(&x, dims)));
    }

    /// sum_rows equals per-column summation.
    #[test]
    fn sum_rows_is_column_sum(a in tensor(4, 3)) {
        let s = a.sum_rows();
        for col in 0..3 {
            let manual: f32 = (0..4).map(|r| a.at2(r, col)).sum();
            prop_assert!((s.data()[col] - manual).abs() < 1e-4);
        }
    }
}
