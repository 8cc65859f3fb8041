//! The forward computation of the spatial and activation layers.
//! `Conv2d`, `MaxPool2d` and `Relu` run these kernels in their
//! `forward`, in training and inference alike (`train` only decides
//! what a layer keeps for backward), and the prepared
//! serving path ([`crate::PreparedModel`]) runs the same functions, as
//! it runs batch norm's inference kernel.  So each layer has one forward
//! implementation, and training, inference and serving agree bit for
//! bit.
//!
//! Every kernel writes into a caller-owned output (resized in place) and
//! keeps no per-call state, so a warmed caller allocates nothing.  This
//! file is deny-listed under the analyzer's `hot_path_alloc` rule.
//!
//! * convolution is lowered output-stationary: per sample,
//!   `W[out_c, in_c·k²] @ im2colᵀ[in_c·k², out_h·out_w]` goes straight
//!   into that sample's channel-major output slice, then the bias is
//!   added.  Each output element is the same ascending-`p` sum of the
//!   same products as the textbook `im2col(x) @ Wᵀ`; only the GEMM's
//!   streamed dimension changes, from the channels to the output
//!   positions.  That is the shape `naps-tensor`'s register-tiled GEMM
//!   wants: 4 output channels × up to 64 output positions (on AVX-512F)
//!   stay in registers for the whole `in_c·k²` sweep, and each row of
//!   `im2colᵀ` is read straight from the scratch, unpacked.  The
//!   lowering itself (`naps_tensor::im2col_t_into`) copies each output
//!   row of a stride-1 tap with a width fixed at compile time for
//!   Network 1's output widths (24 and 8), and with the general loop
//!   otherwise;
//! * the fused conv → ReLU → max-pool block, which the prepared path
//!   runs for a `Conv2d → Relu → MaxPool2d` run whose conv and ReLU
//!   outputs are not observed, is the same convolution per sample into
//!   a one-sample scratch with an epilogue: `v + b`, then `max(v, 0)`
//!   (the unfused order, so every bit, signed zeros included, is the
//!   unfused chain's), then the max-pool fold straight into the
//!   sample's output slice.  The batch-sized conv and ReLU outputs are
//!   never written;
//! * max pooling folds each window row by row with the running `>`
//!   comparison from `-∞`.  One fold serves the layer, the prepared op
//!   and the fused block; 2×2 windows take an arm with the window side
//!   fixed at compile time, folding in the same order.  Max-pool
//!   backward re-scans the window with the same rule for its winner;
//! * ReLU is `max(0, x)`;
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
    let out_len = b.len() * dims.rows();
    out.resize_in_place(&[batch, out_len]);
    for (s, y) in out.data_mut().chunks_exact_mut(out_len).enumerate() {
        conv_sample(x.row(s), dims, w, b, lowered, y, |v| v);
    }
}

/// The fused conv → ReLU → max-pool block: per sample, the convolution
/// goes into the one-sample scratch `conv_out`, then the bias and ReLU
/// are applied in the unfused order (`v + b`, then `max(v, 0)`), and the
/// sample is pooled by the fold [`max_pool_into`] runs straight into its
/// slice of `out` (`[batch, pool.out_len()]`).  Every output bit equals
/// [`conv2d_into`] → [`relu_into`] → [`max_pool_into`], without the
/// batch-sized conv and ReLU outputs.
///
/// # Panics
///
/// Panics if `x` does not match `dims`, or the conv output width
/// `out_c·out_h·out_w` is not `pool.in_len()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_relu_max_pool_into(
    x: &Tensor,
    dims: ConvDims,
    w: &Tensor,
    b: &Tensor,
    pool: PoolDims,
    lowered: &mut Tensor,
    conv_out: &mut Tensor,
    out: &mut Tensor,
) {
    let batch = batch_of(x, dims.in_c * dims.in_h * dims.in_w, "conv");
    assert_eq!(
        b.len() * dims.rows(),
        pool.in_len(),
        "fused pool does not match the conv output"
    );
    conv_out.resize_in_place(&[pool.in_len()]);
    out.resize_in_place(&[batch, pool.out_len()]);
    for (s, pooled) in out.data_mut().chunks_exact_mut(pool.out_len()).enumerate() {
        let y = conv_out.data_mut();
        conv_sample(x.row(s), dims, w, b, lowered, y, |v| v.max(0.0));
        max_pool_planes(y, pool, pooled);
    }
}

/// One sample's convolution into `y` (`[out_c, out_h·out_w]`): lower,
/// multiply, then `epilogue(v + bias)` per element.
fn conv_sample(
    x: &[f32],
    dims: ConvDims,
    w: &Tensor,
    b: &Tensor,
    lowered: &mut Tensor,
    y: &mut [f32],
    epilogue: impl Fn(f32) -> f32,
) {
    let (out_c, rows, cols) = (b.len(), dims.rows(), dims.cols());
    im2col_t_into(x, dims, lowered);
    matmul_slice_into(out_c, cols, rows, w.data(), lowered.data(), y);
    for (plane, &bias) in y.chunks_exact_mut(rows).zip(b.data()) {
        for v in plane {
            *v = epilogue(*v + bias);
        }
    }
}

/// Max pooling of a `[batch, c*h*w]` batch into `out`
/// (`[batch, c*out_h*out_w]`).
pub(crate) fn max_pool_into(x: &Tensor, d: PoolDims, out: &mut Tensor) {
    let batch = batch_of(x, d.in_len(), "pool");
    out.resize_in_place(&[batch, d.out_len()]);
    max_pool_planes(x.data(), d, out.data_mut());
}

/// The max-pooling fold over the `h·w` planes of `x`, each pooled into
/// its `out_h·out_w` plane of `out`: each window keeps the running `>`
/// comparison from `-∞`, row by row.  The paper's 2×2 windows take an
/// arm with the window side fixed at compile time; both arms fold every
/// window in the same order.
fn max_pool_planes(x: &[f32], d: PoolDims, out: &mut [f32]) {
    match d.k {
        2 => max_pool_planes_fixed::<2>(x, d, out),
        _ => max_pool_planes_any(x, d, out),
    }
}

/// The running-maximum step: `v` replaces `best` only if strictly
/// greater, so the first of tied values (and of `±0.0`) wins.
#[inline(always)]
fn max_step(best: f32, v: f32) -> f32 {
    if v > best {
        v
    } else {
        best
    }
}

/// [`max_pool_planes`] for window side `K`, one output at a time.
fn max_pool_planes_fixed<const K: usize>(x: &[f32], d: PoolDims, out: &mut [f32]) {
    let (oh, ow) = (d.out_h(), d.out_w());
    let planes = x.chunks_exact(d.h * d.w);
    for (plane, pooled) in planes.zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in pooled.chunks_exact_mut(ow).enumerate() {
            let rows = &plane[oy * K * d.w..];
            for (ox, o) in out_row.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..K {
                    let at = dy * d.w + ox * K;
                    for &v in &rows[at..at + K] {
                        best = max_step(best, v);
                    }
                }
                *o = best;
            }
        }
    }
}

/// [`max_pool_planes`] for any window side.  One output row at a time,
/// so each window row is a contiguous slice.
fn max_pool_planes_any(x: &[f32], d: PoolDims, out: &mut [f32]) {
    let (oh, ow) = (d.out_h(), d.out_w());
    let planes = x.chunks_exact(d.h * d.w);
    for (plane, pooled) in planes.zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in pooled.chunks_exact_mut(ow).enumerate() {
            out_row.fill(f32::NEG_INFINITY);
            for dy in 0..d.k {
                let start = (oy * d.k + dy) * d.w;
                let in_row = &plane[start..start + ow * d.k];
                for (o, window) in out_row.iter_mut().zip(in_row.chunks_exact(d.k)) {
                    for &v in window {
                        *o = max_step(*o, v);
                    }
                }
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

/// ReLU of a batch into `out`: `max(0, x)` per element.
pub(crate) fn relu_into(x: &Tensor, out: &mut Tensor) {
    x.map_into(out, |v| v.max(0.0));
}
