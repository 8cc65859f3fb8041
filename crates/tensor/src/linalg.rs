//! 2-D linear algebra: matrix products (plain and transposed variants) and
//! transpose.  The transposed variants avoid materialising intermediate
//! transposes inside backpropagation.
//!
//! All products run through one GEMM, `gemm`, so `matmul`, `matmul_at`,
//! `matmul_bt`, their `_into` forms, [`PackedWeights`] and
//! [`matmul_slice_into`] — and with them the convolutions and dense
//! layers of `naps-nn`, forward and backward — share a single kernel.
//!
//! # The kernel
//!
//! `gemm` is register-tiled: it holds an `MR × NR` tile of the output
//! (`MR = 4` rows) in a local `[[f32; NR]; MR]` for the whole sweep over
//! the shared dimension `p`, reading each `b[p*n + j ..][..NR]` straight
//! from the row-major `b` (no panel packing, so no extra memory), and
//! stores the tile once.  Row tails (`m % 4`) run one-row tiles; column
//! tails step down through 32-, 16- and 8-wide tiles before a narrow
//! loop over the last `< 8` columns.
//!
//! # Dispatch
//!
//! The tile body is written once, as safe generic code, and instantiated
//! per CPU feature level; `gemm` picks the widest one the host has, at
//! run time, with `is_x86_feature_detected!`:
//!
//! | arm       | tile   | where                                  |
//! |-----------|--------|----------------------------------------|
//! | `avx512f` | 4 × 64 | x86_64 with AVX-512F                   |
//! | `avx2`    | 4 × 24 | x86_64 with AVX2                       |
//! | scalar    | —      | every other host; also the test oracle |
//!
//! The scalar arm is a 4-row i-k-j kernel: the four `a` values of
//! column `p` are broadcast while `b` row `p` streams through four output
//! rows.  The tile shapes come from a microbenchmark on the conv
//! net's and the serving MLPs' product shapes; taller `avx512f` tiles
//! (6 × 32, 8 × 16) ran 3–8× slower than the scalar arm there, because
//! the compiler no longer keeps their accumulators in registers.
//!
//! # Bit-identity
//!
//! Every arm computes each output element as the same sum: the value
//! already in `out` (`+0.0`, since every caller zero-fills it), plus the
//! products `a[i,p] · b[p,j]` in ascending `p`.  Vectorising across `j`
//! reorders no sum, and Rust never contracts a multiply and an add into a
//! fused multiply-add.  So on finite data every arm is bit-identical to
//! the scalar arm — and to the plain triple loop — and a network trains
//! along the same `f32` trajectory whichever arm runs.
//!
//! Every arm skips a `p` whose `a` values in the block's rows (four, or
//! one in the row tail) are all zero, as ReLU outputs often are.  On finite data that is exact: the
//! skipped terms are `±0.0`, and a sum that starts at `+0.0` is never
//! `-0.0`.  A non-finite `b[p, j]` is where the skip shows: `0 · ∞` is
//! NaN in the plain loop but is never computed here.

use crate::tensor::Tensor;

/// Output rows per tile, in every arm.  Also the zero-skip granularity:
/// a `p` is skipped when all `MR` of the tile's `a` values are zero.
const MR: usize = 4;

/// `out += a @ b` for row-major `[m,k] @ [k,n]`, with `out` pre-zeroed by
/// the callers.  Runs the widest arm this CPU supports: 4 × 64 tiles with
/// AVX-512F, 4 × 24 with AVX2, else [`gemm_scalar`].  Every arm adds each
/// element's products in ascending `p`, so all are bit-identical on
/// finite data; the shared zero skip drops `0 · ∞` NaNs (module docs).
fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 || n == 0 {
        // An empty sum per element (or no elements): `out` stays as it is.
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512f` requires only the `avx512f` target
            // feature, which the check above found on this CPU.
            return unsafe { x86::gemm_avx512f(m, k, n, a, b, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `gemm_avx2` requires only the `avx2` target feature,
            // which the check above found on this CPU.
            return unsafe { x86::gemm_avx2(m, k, n, a, b, out) };
        }
    }
    gemm_scalar(m, k, n, a, b, out);
}

/// The feature-specific instantiations of [`gemm_tiled`].  Each is the
/// same safe code, compiled with one more target feature enabled.
///
/// # Safety
///
/// Calling either function outside a context with its target feature
/// is `unsafe`: the caller must first check, with
/// `is_x86_feature_detected!`, that this CPU supports the feature.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_avx512f(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        super::gemm_tiled::<64>(m, k, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        super::gemm_tiled::<24>(m, k, n, a, b, out);
    }
}

/// The register-tiled kernel with `NR`-wide tiles: [`MR`]-row blocks,
/// then one-row tiles for the `m % MR` tail rows.
#[inline(always)]
fn gemm_tiled<const NR: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let blocks = m / MR * MR;
    let (a_blocks, a_tail) = a.split_at(blocks * k);
    let (out_blocks, out_tail) = out.split_at_mut(blocks * n);
    for (a, out) in a_blocks
        .chunks_exact(MR * k)
        .zip(out_blocks.chunks_exact_mut(MR * n))
    {
        tile_rows::<MR, NR>(k, n, a, b, out);
    }
    for (a, out) in a_tail.chunks_exact(k).zip(out_tail.chunks_exact_mut(n)) {
        tile_rows::<1, NR>(k, n, a, b, out);
    }
}

/// One block of `R` output rows (`a` and `out` hold just those rows):
/// `NR`-wide tiles, then at most one 32-, 16- and 8-wide tile each for
/// the column tail, then the last `< 8` columns.
#[inline(always)]
fn tile_rows<const R: usize, const NR: usize>(
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR>(j, NR, k, n, a, b, out);
        j += NR;
    }
    if NR > 32 && j + 32 <= n {
        tile::<R, 32>(j, 32, k, n, a, b, out);
        j += 32;
    }
    if NR > 16 && j + 16 <= n {
        tile::<R, 16>(j, 16, k, n, a, b, out);
        j += 16;
    }
    if NR > 8 && j + 8 <= n {
        tile::<R, 8>(j, 8, k, n, a, b, out);
        j += 8;
    }
    if j < n {
        tile::<R, 8>(j, n - j, k, n, a, b, out);
    }
}

/// The `R × w` tile at column `j` of an `R`-row block (`w ≤ C`), kept
/// in registers across the whole `p` sweep: starts from `out`'s values
/// and adds `a[r, p] · b[p, j + c]` in ascending `p`.  Every call but the
/// narrow tail passes `w = C`, a constant once inlined, so those tiles
/// compile to fixed-width vector code.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    j: usize,
    w: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row[..w].copy_from_slice(&out[r * n + j..][..w]);
    }
    for p in 0..k {
        let Some(av) = tile_column::<R>(a, k, p) else {
            continue;
        };
        let bv = &b[p * n + j..][..w];
        for (row, &v) in acc.iter_mut().zip(&av) {
            for (o, &x) in row[..w].iter_mut().zip(bv) {
                *o += v * x;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * n + j..][..w].copy_from_slice(&row[..w]);
    }
}

/// Column `p` of the `R`-row block `a` (row stride `k`), or `None` when
/// all `R` values are zero and the whole `p` step can be skipped.
#[inline(always)]
fn tile_column<const R: usize>(a: &[f32], k: usize, p: usize) -> Option<[f32; R]> {
    let mut av = [0.0f32; R];
    let mut any = false;
    for (r, v) in av.iter_mut().enumerate() {
        *v = a[r * k + p];
        any |= *v != 0.0;
    }
    any.then_some(av)
}

/// The scalar arm and the oracle of the tiled ones: `out += a @ b` in
/// i-k-j order, [`MR`] rows at a time.  The four `a` values of column `p`
/// are broadcast while the `b` row `p` streams once through all four
/// output rows; a column whose four `a` values are all zero is skipped.
fn gemm_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut rows = out.chunks_exact_mut(n);
    let blocks = m / MR;
    for blk in 0..blocks {
        let i = blk * MR;
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
    // Tail rows (m % MR): the single-row kernel.
    for i in blocks * MR..m {
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
/// `out` is zero-filled first, then the crate's one GEMM kernel (see the
/// [crate docs](crate)) accumulates into it, so per output element the
/// result is the same ascending-`p` sum as every other product here.
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
    /// via the crate's one GEMM kernel (see the [crate docs](crate)).
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
    /// reached its high-water mark).  Runs the same GEMM kernel with the
    /// same per-element accumulation order, so the result is
    /// bit-identical to `matmul`.
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
    /// Packs `self^T` once (one transpose) and runs the same GEMM
    /// kernel; per output element the accumulation order is
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
    /// Packs `other^T` once and runs the same GEMM kernel (the streamed
    /// `b` rows are then contiguous); per output element the
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

/// A weight matrix packed once into the `[k, n]` layout the GEMM streams,
/// for repeated products against frozen weights.
///
/// Serving weights are frozen at publish/load time, yet `matmul_bt`
/// re-packs `other^T` on every call.  `PackedWeights` moves that work to
/// construction: [`PackedWeights::pack`] stores the `[k,n]` panel verbatim
/// for `x @ w` products, [`PackedWeights::pack_transposed`] stores `w^T`
/// once for `x @ w^T` products.  Both then run the same GEMM kernel
/// with the same per-element accumulation order as the per-call paths,
/// so results are bit-identical.
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
    fn empty_products_are_zeros() {
        let c = Tensor::zeros(vec![2, 0]).matmul(&Tensor::zeros(vec![0, 3]));
        assert_eq!(c, Tensor::zeros(vec![2, 3]));
        let c = Tensor::zeros(vec![2, 3]).matmul(&Tensor::zeros(vec![3, 0]));
        assert_eq!(c.shape(), &[2, 0]);
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

    /// The kernel this host dispatches to must agree bit-for-bit with a
    /// naive ascending-`p` triple loop — same accumulation order per output
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
            assert!(bits_equal, "m={m}: kernel diverged from naive loop");
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

    /// Operands for the arm tests: `sin`/`cos` values with exact zeros
    /// and `-0.0` in both, and column `p ≡ 1 (mod 3)` of `a`'s first
    /// 4-row block all zero, so every arm takes its zero skip.
    #[cfg(target_arch = "x86_64")]
    fn arm_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..m * k)
            .map(|i| match i {
                _ if i % 5 == 0 => 0.0,
                _ if i % 7 == 0 => -0.0,
                _ if i / k < MR && (i % k) % 3 == 1 => 0.0,
                _ => ((i as f32) * 0.37).sin(),
            })
            .collect();
        let b = (0..k * n)
            .map(|i| match i {
                _ if i % 6 == 0 => -0.0,
                _ if i % 11 == 0 => 0.0,
                _ => ((i as f32) * 0.61).cos(),
            })
            .collect();
        (a, b)
    }

    /// Every compiled arm, called directly rather than through the
    /// dispatch, is bit-identical to the scalar oracle: on the conv net's
    /// two products (conv40 and conv20, per sample), and on every shape
    /// with `m ≤ 2·MR + 1` and `n ≤ 2·64 + 1`, which straddles each row
    /// and column tile edge of both arms.  An arm this CPU lacks is
    /// skipped, with a note.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_arm_is_bit_identical_to_the_scalar_oracle() {
        // SAFETY: only a type; every call through it below is guarded by
        // the run-time check of the arm's target feature.
        type Arm = unsafe fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
        let arms: [(&str, bool, Arm); 2] = [
            (
                "avx512f",
                is_x86_feature_detected!("avx512f"),
                x86::gemm_avx512f,
            ),
            ("avx2", is_x86_feature_detected!("avx2"), x86::gemm_avx2),
        ];
        let mut shapes = vec![(40, 25, 576), (20, 1000, 64)];
        for m in 1..=2 * MR + 1 {
            for n in 1..=2 * 64 + 1 {
                shapes.extend([1, 5, 40].map(|k| (m, k, n)));
            }
        }
        for (name, present, arm) in arms {
            if !present {
                println!("skipping the {name} GEMM arm: this CPU lacks {name}");
                continue;
            }
            for &(m, k, n) in &shapes {
                let (a, b) = arm_operands(m, k, n);
                let mut want = vec![0.0f32; m * n];
                gemm_scalar(m, k, n, &a, &b, &mut want);
                let mut got = vec![0.0f32; m * n];
                // SAFETY: `present` is the run-time check of the one
                // target feature `arm` is compiled with.
                unsafe { arm(m, k, n, &a, &b, &mut got) };
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{name} arm diverged from the scalar oracle at {m}x{k}x{n}"
                );
            }
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
