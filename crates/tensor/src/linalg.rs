//! 2-D linear algebra: matrix products (plain and transposed variants) and
//! transpose.  The transposed variants avoid materialising intermediate
//! transposes inside backpropagation.
//!
//! All three products run through one blocked [`gemm`] microkernel
//! (4-row register tiling over an i-k-j sweep), so `matmul`, `matmul_at`
//! and `matmul_bt` — and with them the im2col-lowered convolutions of
//! `naps-nn`, whose forward/backward products are exactly these calls —
//! share a single inner loop.

use crate::tensor::Tensor;

/// How many output rows the microkernel accumulates per sweep of `b`.
/// Four `f32` accumulator rows fit comfortably in registers and give 4×
/// reuse of every streamed `b` row.
const GEMM_MR: usize = 4;

/// Blocked row-major product microkernel: `out += a @ b` for
/// `[m,k] @ [k,n]`, with `out` pre-zeroed by the callers.
///
/// i-k-j order, [`GEMM_MR`] rows at a time: the four `a` values of column
/// `p` are broadcast from registers while the `b` row `p` streams once
/// through all four accumulator rows — the cache-friendly shape for
/// row-major data, and a 4× cut in `b` traffic over the row-at-a-time
/// loop.  A column whose four `a` values are all zero is skipped (ReLU
/// outputs are often sparse).
///
/// Per output element the terms still accumulate in ascending-`p` order
/// and zero `a` values contribute exactly `±0.0`, so on finite data the
/// results are bit-identical to the straightforward loops this kernel
/// replaced — trained fixtures and CI gates depend on exact `f32`
/// training trajectories.
fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut rows = out.chunks_exact_mut(n);
    let blocks = m / GEMM_MR;
    for blk in 0..blocks {
        let i = blk * GEMM_MR;
        let (o0, o1, o2, o3) = match (rows.next(), rows.next(), rows.next(), rows.next()) {
            (Some(o0), Some(o1), Some(o2), Some(o3)) => (o0, o1, o2, o3),
            _ => unreachable!("block rows within m"),
        };
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        for p in 0..k {
            let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (j, &bv) in brow.iter().enumerate() {
                o0[j] += v0 * bv;
                o1[j] += v1 * bv;
                o2[j] += v2 * bv;
                o3[j] += v3 * bv;
            }
        }
    }
    // Tail rows (m % GEMM_MR): the single-row kernel.
    for i in blocks * GEMM_MR..m {
        // naps-lint: allow(typed_errors, "rows yields exactly m output rows (chunks_exact over an m*n buffer) and this loop visits at most m of them")
        let orow = rows.next().expect("one output row per a row");
        let arow = &a[i * k..(i + 1) * k];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a @ b` over raw row-major slices (`[m,k] @ [k,n] -> [m,n]`),
/// for callers that write a product straight into part of a larger
/// buffer — e.g. one sample's slice of a batched convolution output.
/// `out` is zero-filled first, then the blocked [`gemm`] accumulates into
/// it, so per output element the result is the same ascending-`p` sum as
/// every other product in this module.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k` and `n`.
pub fn matmul_slice_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_slice_into lhs is not [{m}, {k}]");
    assert_eq!(b.len(), k * n, "matmul_slice_into rhs is not [{k}, {n}]");
    assert_eq!(out.len(), m * n, "matmul_slice_into out is not [{m}, {n}]");
    out.fill(0.0);
    gemm(m, k, n, a, b, out);
}

impl Tensor {
    /// Matrix product `self @ other` for 2-D tensors `[m,k] @ [k,n] -> [m,n]`,
    /// via the blocked [`gemm`] microkernel.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Like [`Tensor::matmul`], but writes into the caller-provided `out`
    /// (resized in place; allocation-free once `out`'s capacity has
    /// reached its high-water mark).  Runs the same blocked [`gemm`]
    /// microkernel with the same per-element accumulation order, so the
    /// result is bit-identical to `matmul`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = dims2(self, "matmul lhs");
        let (k2, n) = dims2(other, "matmul rhs");
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        out.resize_zeroed(&[m, n]);
        gemm(m, k, n, self.data(), other.data(), out.data_mut());
    }

    /// Matrix product with a transposed left operand:
    /// `self^T @ other` for `[k,m]^T @ [k,n] -> [m,n]`.
    ///
    /// Packs `self^T` once (one transpose) and runs the same [`gemm`]
    /// microkernel; per output element the accumulation order is
    /// unchanged (ascending shared dimension), so results match the old
    /// dedicated loop bit-for-bit on finite data.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        let (mut pack, mut out) = (Tensor::default(), Tensor::default());
        self.matmul_at_into(other, &mut pack, &mut out);
        out
    }

    /// Like [`Tensor::matmul_at`], but packs `self^T` into the caller's
    /// `pack` scratch and writes the product into `out` — both resized in
    /// place, so repeated calls are allocation-free after warm-up.
    /// Bit-identical to `matmul_at`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_at_into(&self, other: &Tensor, pack: &mut Tensor, out: &mut Tensor) {
        let (k, m) = dims2(self, "matmul_at lhs");
        let (k2, n) = dims2(other, "matmul_at rhs");
        assert_eq!(k, k2, "matmul_at shared dimensions differ: {k} vs {k2}");
        self.transpose_into(pack);
        out.resize_zeroed(&[m, n]);
        gemm(m, k, n, pack.data(), other.data(), out.data_mut());
    }

    /// Matrix product with a transposed right operand:
    /// `self @ other^T` for `[m,k] @ [n,k]^T -> [m,n]`.
    ///
    /// Packs `other^T` once and runs the same [`gemm`] microkernel (the
    /// streamed `b` rows are then contiguous); per output element the
    /// accumulation order is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let (mut pack, mut out) = (Tensor::default(), Tensor::default());
        self.matmul_bt_into(other, &mut pack, &mut out);
        out
    }

    /// Like [`Tensor::matmul_bt`], but packs `other^T` into the caller's
    /// `pack` scratch and writes the product into `out` — both resized in
    /// place, so repeated calls are allocation-free after warm-up.  (For
    /// weights frozen across many calls, pack once with
    /// [`PackedWeights::pack_transposed`] instead.)  Bit-identical to
    /// `matmul_bt`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_bt_into(&self, other: &Tensor, pack: &mut Tensor, out: &mut Tensor) {
        let (m, k) = dims2(self, "matmul_bt lhs");
        let (n, k2) = dims2(other, "matmul_bt rhs");
        assert_eq!(k, k2, "matmul_bt shared dimensions differ: {k} vs {k2}");
        other.transpose_into(pack);
        out.resize_zeroed(&[m, n]);
        gemm(m, k, n, self.data(), pack.data(), out.data_mut());
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose of a 2-D tensor, written into the caller-provided `out`
    /// (resized in place; allocation-free after warm-up).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose_into(&self, out: &mut Tensor) {
        let (m, n) = dims2(self, "transpose");
        out.resize_in_place(&[n, m]);
        let a = self.data();
        let o = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                o[j * m + i] = a[i * n + j];
            }
        }
    }

    /// Sums a 2-D tensor over its rows, returning a `[cols]` tensor.
    ///
    /// Used to reduce per-sample bias gradients over a batch.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        let (m, n) = dims2(self, "sum_rows");
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        Tensor::from_vec(vec![n], out)
    }
}

/// A weight matrix packed once into the panel layout [`gemm`] streams,
/// for repeated products against frozen weights.
///
/// Serving weights are frozen at publish/load time, yet `matmul_bt`
/// re-packs `other^T` on every call.  `PackedWeights` moves that work to
/// construction: [`PackedWeights::pack`] stores the `[k,n]` panel verbatim
/// for `x @ w` products, [`PackedWeights::pack_transposed`] stores `w^T`
/// once for `x @ w^T` products.  Both then run the same [`gemm`]
/// microkernel with the same per-element accumulation order as the
/// per-call paths, so results are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    /// The `[k, n]` right-hand panel exactly as `gemm` streams it.
    panel: Tensor,
}

impl PackedWeights {
    /// Packs `w` (`[k, n]`) for `x @ w` products.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D.
    pub fn pack(w: &Tensor) -> Self {
        dims2(w, "pack");
        PackedWeights { panel: w.clone() }
    }

    /// Packs `w` (`[n, k]`) for `x @ w^T` products; the transpose happens
    /// exactly once, here.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D.
    pub fn pack_transposed(w: &Tensor) -> Self {
        dims2(w, "pack_transposed");
        PackedWeights {
            panel: w.transpose(),
        }
    }

    /// The shared (input) dimension `k` of the packed product.
    #[inline]
    pub fn in_features(&self) -> usize {
        self.panel.shape()[0]
    }

    /// The output dimension `n` of the packed product.
    #[inline]
    pub fn out_features(&self) -> usize {
        self.panel.shape()[1]
    }

    /// The packed `[k, n]` panel.
    #[inline]
    pub fn panel(&self) -> &Tensor {
        &self.panel
    }

    /// `x @ panel` written into `out` (resized in place; allocation-free
    /// after warm-up).  Bit-identical to `x.matmul(&w)` for a
    /// [`PackedWeights::pack`]-ed `w`, and to `x.matmul_bt(&w)` for a
    /// [`PackedWeights::pack_transposed`]-ed `w`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D or its width differs from `in_features`.
    pub fn matmul_into(&self, x: &Tensor, out: &mut Tensor) {
        let (m, k) = dims2(x, "packed matmul lhs");
        assert_eq!(
            k,
            self.in_features(),
            "packed matmul inner dimensions differ: {k} vs {}",
            self.in_features()
        );
        let n = self.out_features();
        out.resize_zeroed(&[m, n]);
        gemm(m, k, n, x.data(), self.panel.data(), out.data_mut());
    }

    /// Allocating convenience form of [`PackedWeights::matmul_into`].
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(x, &mut out);
        out
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "{what} requires a 2-D tensor, got shape {s:?}");
    (s[0], s[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a23() -> Tensor {
        Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])
    }
    fn b32() -> Tensor {
        Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.])
    }

    #[test]
    fn matmul_known_product() {
        let c = a23().matmul(&b32());
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = a23(); // [2,3]
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32).collect());
        let viat = a.matmul_at(&x); // a^T [3,2] @ [2,4]
        let explicit = a.transpose().matmul(&x);
        assert_eq!(viat, explicit);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = a23(); // [2,3]
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32).collect());
        let viat = a.matmul_bt(&b); // [2,3] @ [4,3]^T
        let explicit = a.matmul(&b.transpose());
        assert_eq!(viat, explicit);
    }

    #[test]
    fn transpose_involution() {
        let a = a23();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_neutral() {
        let a = a23();
        let eye = Tensor::from_vec(vec![3, 3], vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn sum_rows_reduces_batch() {
        let a = a23();
        let s = a.sum_rows();
        assert_eq!(s.shape(), &[3]);
        assert_eq!(s.data(), &[5., 7., 9.]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch_panics() {
        let a = a23();
        let b = Tensor::zeros(vec![2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // Sparsity fast-path must not change results.
        let a = Tensor::from_vec(vec![2, 3], vec![0., 2., 0., 4., 0., 6.]);
        let b = b32();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[18., 20., 94., 104.]);
    }

    /// The blocked microkernel must agree bit-for-bit with a naive
    /// ascending-`p` triple loop — same accumulation order per output
    /// element — across row counts straddling the 4-row block boundary
    /// and with embedded zeros exercising the all-rows-zero skip.
    #[test]
    fn blocked_kernel_is_bit_identical_to_naive_loop() {
        for m in 1..=9usize {
            let (k, n) = (7usize, 5usize);
            let a = Tensor::from_vec(
                vec![m, k],
                (0..m * k)
                    .map(|i| {
                        if i % 5 == 0 {
                            0.0
                        } else {
                            ((i as f32) * 0.37).sin()
                        }
                    })
                    .collect(),
            );
            let b = Tensor::from_vec(
                vec![k, n],
                (0..k * n).map(|i| ((i as f32) * 0.61).cos()).collect(),
            );
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        naive[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                    }
                }
            }
            let c = a.matmul(&b);
            let bits_equal = c
                .data()
                .iter()
                .zip(&naive)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "m={m}: blocked kernel diverged from naive loop");
            // The transposed variants reduce to the same kernel.
            assert_eq!(a.transpose().matmul_at(&b), c, "m={m} matmul_at");
            assert_eq!(a.matmul_bt(&b.transpose()), c, "m={m} matmul_bt");
            // The into/packed variants share the kernel and must match
            // bit-for-bit too, including when the scratch is reused dirty.
            let mut pack = Tensor::from_vec(vec![3], vec![9., 9., 9.]);
            let mut out = Tensor::from_vec(vec![3], vec![9., 9., 9.]);
            a.matmul_into(&b, &mut out);
            assert_bits_eq(&out, &c, "matmul_into");
            a.transpose().matmul_at_into(&b, &mut pack, &mut out);
            assert_bits_eq(&out, &c, "matmul_at_into");
            a.matmul_bt_into(&b.transpose(), &mut pack, &mut out);
            assert_bits_eq(&out, &c, "matmul_bt_into");
            PackedWeights::pack(&b).matmul_into(&a, &mut out);
            assert_bits_eq(&out, &c, "PackedWeights::pack");
            PackedWeights::pack_transposed(&b.transpose()).matmul_into(&a, &mut out);
            assert_bits_eq(&out, &c, "PackedWeights::pack_transposed");
        }
    }

    #[track_caller]
    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let same = got
            .data()
            .iter()
            .zip(want.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: diverged from the per-call kernel");
    }

    #[test]
    fn slice_product_matches_matmul_into_a_dirty_slice() {
        let (a, b) = (a23(), b32());
        let mut out = [9.0f32; 4];
        matmul_slice_into(2, 3, 2, a.data(), b.data(), &mut out);
        assert_eq!(&out, a.matmul(&b).data());
    }

    #[test]
    fn packed_weights_report_dimensions() {
        let w = b32(); // [3, 2]
        let p = PackedWeights::pack(&w);
        assert_eq!((p.in_features(), p.out_features()), (3, 2));
        assert_eq!(p.panel(), &w);
        let pt = PackedWeights::pack_transposed(&w); // packs [2, 3]
        assert_eq!((pt.in_features(), pt.out_features()), (2, 3));
        assert_eq!(
            pt.matmul(&Tensor::from_vec(vec![1, 2], vec![1., 0.]))
                .data(),
            &[7., 9., 11.]
        );
    }

    #[test]
    fn into_variants_resize_reused_scratch() {
        // A scratch that is too large must shrink, one that is too small
        // must grow — and the result must be untainted by old contents.
        let mut out = Tensor::zeros(vec![7, 7]);
        a23().matmul_into(&b32(), &mut out);
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
        let mut t = Tensor::default();
        a23().transpose_into(&mut t);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t, a23().transpose());
    }

    #[test]
    #[should_panic(expected = "packed matmul inner dimensions")]
    fn packed_matmul_rejects_width_mismatch() {
        let p = PackedWeights::pack(&b32());
        let _ = p.matmul(&Tensor::zeros(vec![1, 2]));
    }
}
