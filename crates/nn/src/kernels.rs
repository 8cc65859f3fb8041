//! Inference kernels of the spatial layers, shared by the layers'
//! `forward(.., train = false)` and the prepared serving path
//! ([`crate::PreparedModel`]), so both run one implementation.
//!
//! Every kernel writes into a caller-owned output (resized in place) and
//! keeps no per-call state, so a warmed caller allocates nothing.  This
//! file is deny-listed under the analyzer's `hot_path_alloc` rule.
//!
//! Each kernel computes, per output element, exactly the expression of
//! the layer's training-mode forward pass, in the same order, so the
//! outputs are bit-identical on finite data:
//!
//! * convolution is lowered output-stationary: per sample,
//!   `W[out_c, in_c·k²] @ im2colᵀ[in_c·k², out_h·out_w]` goes straight
//!   into that sample's channel-major output slice, then the bias is
//!   added.  Each output element is the same ascending-`p` sum of the
//!   same products as the training path's `patches @ Wᵀ`; only the
//!   GEMM's streamed dimension changes, from the channels to the output
//!   positions.  That is the shape `naps-tensor`'s register-tiled GEMM
//!   wants: 4 output channels × up to 64 output positions (on AVX-512F)
//!   stay in registers for the whole `in_c·k²` sweep, and each row of
//!   `im2colᵀ` is read straight from the scratch, unpacked;
//! * max pooling keeps the running `>` comparison over the window, minus
//!   the argmax bookkeeping only backward needs;
//! * batch norm computes `(x − mean) · inv_std`, then `g · xh + b`.

use naps_tensor::{im2col_t_into, matmul_slice_into, ConvDims, Tensor};

/// Geometry of a non-overlapping pooling window: `[c, h, w]` maps pooled
/// with window = stride = `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolDims {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
}

impl PoolDims {
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the spatial extent.
    pub(crate) fn new(c: usize, h: usize, w: usize, k: usize) -> Self {
        assert!(k > 0 && k <= h && k <= w, "invalid pooling window {k}");
        PoolDims { c, h, w, k }
    }

    pub(crate) fn out_h(&self) -> usize {
        self.h / self.k
    }

    pub(crate) fn out_w(&self) -> usize {
        self.w / self.k
    }

    pub(crate) fn in_len(&self) -> usize {
        self.c * self.h * self.w
    }

    pub(crate) fn out_len(&self) -> usize {
        self.c * self.out_h() * self.out_w()
    }
}

/// The batch size of `x`, after checking it is `[batch, in_len]`.
///
/// # Panics
///
/// Panics with "`{what}` expected `{in_len}` input features" otherwise.
pub(crate) fn batch_of(x: &Tensor, in_len: usize, what: &str) -> usize {
    assert!(
        x.shape().len() == 2 && x.shape()[1] == in_len,
        "{what} expected {in_len} input features, got {:?}",
        x.shape()
    );
    x.shape()[0]
}

/// `1 / sqrt(var + eps)`: the one place batch norm turns a variance into
/// its scale, so the layer and the prepared path agree bit-for-bit.
pub(crate) fn inv_std(var: f32, eps: f32) -> f32 {
    1.0 / (var + eps).sqrt()
}

/// Convolution of a `[batch, in_c*in_h*in_w]` batch with kernel `w`
/// (`[out_c, in_c*k*k]`) and bias `b` (`[out_c]`), written into `out`
/// as `[batch, out_c*out_h*out_w]`.  `lowered` is the per-sample
/// `im2colᵀ` scratch.
pub(crate) fn conv2d_into(
    x: &Tensor,
    dims: ConvDims,
    w: &Tensor,
    b: &Tensor,
    lowered: &mut Tensor,
    out: &mut Tensor,
) {
    let batch = batch_of(x, dims.in_c * dims.in_h * dims.in_w, "conv");
    let (out_c, rows, cols) = (b.len(), dims.rows(), dims.cols());
    let out_len = out_c * rows;
    out.resize_in_place(&[batch, out_len]);
    for s in 0..batch {
        im2col_t_into(x.row(s), dims, lowered);
        let y = &mut out.data_mut()[s * out_len..(s + 1) * out_len];
        matmul_slice_into(out_c, cols, rows, w.data(), lowered.data(), y);
        for (plane, &bias) in y.chunks_exact_mut(rows).zip(b.data()) {
            for v in plane {
                *v += bias;
            }
        }
    }
}

/// Max pooling of a `[batch, c*h*w]` batch into `out`
/// (`[batch, c*out_h*out_w]`).
pub(crate) fn max_pool_into(x: &Tensor, d: PoolDims, out: &mut Tensor) {
    let step = |best: f32, v: f32| if v > best { v } else { best };
    pool_into(x, d, out, f32::NEG_INFINITY, step, |best| best);
}

/// Average pooling of a `[batch, c*h*w]` batch into `out`
/// (`[batch, c*out_h*out_w]`).
pub(crate) fn avg_pool_into(x: &Tensor, d: PoolDims, out: &mut Tensor) {
    let inv = 1.0 / (d.k * d.k) as f32;
    pool_into(x, d, out, 0.0, |sum, v| sum + v, |sum| sum * inv);
}

/// Shared pooling sweep: each window folds `step` over its values, row
/// by row from `init`, and `finish` maps the fold to the output.  One
/// output row at a time, so each window row is a contiguous slice.
fn pool_into(
    x: &Tensor,
    d: PoolDims,
    out: &mut Tensor,
    init: f32,
    step: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    let batch = batch_of(x, d.in_len(), "pool");
    let (oh, ow) = (d.out_h(), d.out_w());
    out.resize_in_place(&[batch, d.out_len()]);
    let planes = x.data().chunks_exact(d.h * d.w);
    for (plane, pooled) in planes.zip(out.data_mut().chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in pooled.chunks_exact_mut(ow).enumerate() {
            out_row.fill(init);
            for dy in 0..d.k {
                let start = (oy * d.k + dy) * d.w;
                let in_row = &plane[start..start + ow * d.k];
                for (o, window) in out_row.iter_mut().zip(in_row.chunks_exact(d.k)) {
                    for &v in window {
                        *o = step(*o, v);
                    }
                }
            }
            for o in out_row {
                *o = finish(*o);
            }
        }
    }
}

/// Inference batch norm of a `[batch, c*hw]` batch into `out`, with
/// per-channel `mean`, `inv_std`, `gamma` and `beta` (`c` = their
/// length).
pub(crate) fn batch_norm_into(
    x: &Tensor,
    hw: usize,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut Tensor,
) {
    let in_len = mean.len() * hw;
    let batch = batch_of(x, in_len, "batchnorm");
    out.resize_in_place(&[batch, in_len]);
    let o = out.data_mut();
    for s in 0..batch {
        let row = x.row(s);
        for ch in 0..mean.len() {
            let (m, is, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            let at = s * in_len + ch * hw;
            for (dst, &v) in o[at..at + hw].iter_mut().zip(&row[ch * hw..(ch + 1) * hw]) {
                let xh = (v - m) * is;
                *dst = g * xh + b;
            }
        }
    }
}
