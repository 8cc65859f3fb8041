//! Convolution lowering (`im2col` / `col2im`) and max pooling.
//!
//! The paper's networks use 5×5 stride-1 convolutions and 2×2 max pooling
//! (Table I).  Convolution is lowered to a matrix product: each output
//! position becomes a row holding the flattened receptive field, so the
//! convolution is `patches @ kernel^T` — the standard im2col trick.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Geometry of one convolution: input `[in_c, in_h, in_w]`, square kernel
/// `k`, stride `s`, no padding (as in the paper's architectures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvDims {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel side length.
    pub k: usize,
    /// Stride.
    pub s: usize,
}

impl ConvDims {
    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h - self.k) / self.s + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w - self.k) / self.s + 1
    }

    /// Rows of the lowered patch matrix (= output positions).
    #[inline]
    pub fn rows(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the lowered patch matrix (= receptive-field size).
    #[inline]
    pub fn cols(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Validates that the kernel fits the input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the input or the stride is zero.
    pub fn validate(&self) {
        assert!(self.s > 0, "stride must be positive");
        assert!(
            self.k <= self.in_h && self.k <= self.in_w,
            "kernel {k} exceeds input {h}x{w}",
            k = self.k,
            h = self.in_h,
            w = self.in_w
        );
    }
}

/// Lowers an input image `[in_c, in_h, in_w]` into a patch matrix
/// `[out_h*out_w, in_c*k*k]`.
///
/// # Panics
///
/// Panics if `input` does not have `dims.in_c * in_h * in_w` elements.
pub fn im2col(input: &Tensor, dims: ConvDims) -> Tensor {
    let mut out = Tensor::default();
    im2col_into(input.data(), dims, &mut out);
    out
}

/// Like [`im2col`], but lowers one sample's `[in_c, in_h, in_w]` data
/// into the caller-provided `out` scratch (resized in place;
/// allocation-free after warm-up).
///
/// # Panics
///
/// Panics if `input` does not have `dims.in_c * in_h * in_w` elements.
pub fn im2col_into(input: &[f32], dims: ConvDims, out: &mut Tensor) {
    dims.validate();
    assert_eq!(
        input.len(),
        dims.in_c * dims.in_h * dims.in_w,
        "input size does not match conv dims"
    );
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let cols = dims.cols();
    // Every element below is overwritten, so the plain (retaining) resize
    // suffices.
    out.resize_in_place(&[dims.rows(), cols]);
    let o = out.data_mut();
    let hw = dims.in_h * dims.in_w;
    let mut row = 0;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * cols;
            let mut col = 0;
            for c in 0..dims.in_c {
                for ky in 0..dims.k {
                    let iy = oy * dims.s + ky;
                    let src = c * hw + iy * dims.in_w + ox * dims.s;
                    o[base + col..base + col + dims.k].copy_from_slice(&input[src..src + dims.k]);
                    col += dims.k;
                }
            }
            row += 1;
        }
    }
}

/// The transposed lowering: writes `im2col(input)ᵀ`, shape
/// `[in_c*k*k, out_h*out_w]`, into the caller-provided `out` (resized in
/// place; allocation-free after warm-up).  Row `(c, ky, kx)` holds that
/// kernel tap's input pixel at every output position, so the
/// convolution becomes `kernel @ out` — a product whose streamed
/// dimension is the output positions, written channel-major exactly as
/// the layer's `[c, h, w]` output is laid out.  `input` is one sample's
/// `[in_c, in_h, in_w]` data.
///
/// # Panics
///
/// Panics if `input` does not have `dims.in_c * in_h * in_w` elements.
pub fn im2col_t_into(input: &[f32], dims: ConvDims, out: &mut Tensor) {
    dims.validate();
    assert_eq!(
        input.len(),
        dims.in_c * dims.in_h * dims.in_w,
        "input size does not match conv dims"
    );
    let (ow, rows) = (dims.out_w(), dims.rows());
    // Every element below is overwritten.
    out.resize_in_place(&[dims.cols(), rows]);
    let (hw, kk) = (dims.in_h * dims.in_w, dims.k * dims.k);
    for (tap, row) in out.data_mut().chunks_exact_mut(rows).enumerate() {
        let (c, ky, kx) = (tap / kk, tap % kk / dims.k, tap % dims.k);
        for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
            let src = c * hw + (oy * dims.s + ky) * dims.in_w + kx;
            if dims.s == 1 {
                dst.copy_from_slice(&input[src..src + ow]);
            } else {
                for (ox, d) in dst.iter_mut().enumerate() {
                    *d = input[src + ox * dims.s];
                }
            }
        }
    }
}

/// Scatters a patch-matrix gradient `[out_h*out_w, in_c*k*k]` back onto
/// one input image `[in_c, in_h, in_w]` (the adjoint of [`im2col`]):
/// `out` is zero-filled, then every patch entry is added onto its pixel,
/// in patch-row order.
///
/// # Panics
///
/// Panics if `grad` does not have `dims.rows() * dims.cols()` elements or
/// `out` does not have `dims.in_c * in_h * in_w`.
pub fn col2im_into(grad: &[f32], dims: ConvDims, out: &mut [f32]) {
    dims.validate();
    assert_eq!(
        grad.len(),
        dims.rows() * dims.cols(),
        "gradient size does not match conv dims"
    );
    let hw = dims.in_h * dims.in_w;
    assert_eq!(
        out.len(),
        dims.in_c * hw,
        "output size does not match conv dims"
    );
    out.fill(0.0);
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let cols = dims.cols();
    let mut row = 0;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * cols;
            let mut col = 0;
            for c in 0..dims.in_c {
                for ky in 0..dims.k {
                    let iy = oy * dims.s + ky;
                    let dst = c * hw + iy * dims.in_w + ox * dims.s;
                    for kx in 0..dims.k {
                        out[dst + kx] += grad[base + col + kx];
                    }
                    col += dims.k;
                }
            }
            row += 1;
        }
    }
}

/// 2×2-style max pooling over `[c, h, w]` with window `k` and stride `k`
/// (non-overlapping, as in the paper).  Returns the pooled tensor
/// `[c, h/k, w/k]` and the flat argmax index of each window for the
/// backward pass.
///
/// # Panics
///
/// Panics if `input` is not `[c,h,w]`-sized for the given `c`, or if `k`
/// is zero or larger than the spatial extent.
pub fn max_pool2d(input: &Tensor, c: usize, h: usize, w: usize, k: usize) -> (Tensor, Vec<usize>) {
    assert!(k > 0 && k <= h && k <= w, "invalid pooling window {k}");
    assert_eq!(input.len(), c * h * w, "input size does not match c*h*w");
    let x = input.data();
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; c * oh * ow];
    let mut arg = vec![0usize; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = oy * k + ky;
                        let ix = ox * k + kx;
                        let idx = ch * h * w + iy * w + ix;
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = ch * oh * ow + oy * ow + ox;
                out[o] = best;
                arg[o] = best_idx;
            }
        }
    }
    (Tensor::from_vec(vec![c, oh, ow], out), arg)
}

/// Backward of [`max_pool2d`]: routes each output gradient to the input
/// position that won the max.
///
/// # Panics
///
/// Panics if `grad.len() != argmax.len()`.
pub fn max_pool2d_backward(grad: &Tensor, argmax: &[usize], input_len: usize) -> Tensor {
    assert_eq!(
        grad.len(),
        argmax.len(),
        "gradient and argmax lengths differ"
    );
    let mut out = vec![0.0f32; input_len];
    for (&g, &idx) in grad.data().iter().zip(argmax) {
        out[idx] += g;
    }
    Tensor::from_vec(vec![input_len], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_dims_geometry() {
        let d = ConvDims {
            in_c: 1,
            in_h: 28,
            in_w: 28,
            k: 5,
            s: 1,
        };
        assert_eq!(d.out_h(), 24);
        assert_eq!(d.out_w(), 24);
        assert_eq!(d.rows(), 576);
        assert_eq!(d.cols(), 25);
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1x1 kernel: patch matrix is just the flattened image per position.
        let d = ConvDims {
            in_c: 1,
            in_h: 2,
            in_w: 2,
            k: 1,
            s: 1,
        };
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1., 2., 3., 4.]);
        let p = im2col(&x, d);
        assert_eq!(p.shape(), &[4, 1]);
        assert_eq!(p.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        let d = ConvDims {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            k: 2,
            s: 1,
        };
        let x = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let p = im2col(&x, d);
        assert_eq!(p.shape(), &[4, 4]);
        // Top-left patch: rows (1,2),(4,5)
        assert_eq!(p.row(0), &[1., 2., 4., 5.]);
        // Bottom-right patch: rows (5,6),(8,9)
        assert_eq!(p.row(3), &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_multi_channel_concatenates_channels() {
        let d = ConvDims {
            in_c: 2,
            in_h: 2,
            in_w: 2,
            k: 2,
            s: 1,
        };
        let x = Tensor::from_vec(vec![2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let p = im2col(&x, d);
        assert_eq!(p.shape(), &[1, 8]);
        assert_eq!(p.row(0), &[1., 2., 3., 4., 10., 20., 30., 40.]);
    }

    #[test]
    fn im2col_into_reuses_dirty_scratch() {
        let d = ConvDims {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            k: 2,
            s: 1,
        };
        let x = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let mut scratch = Tensor::full(vec![9, 9], 7.0);
        im2col_into(x.data(), d, &mut scratch);
        assert_eq!(scratch, im2col(&x, d));
    }

    #[test]
    fn transposed_lowering_is_the_transpose_of_im2col() {
        for (k, s) in [(1, 1), (2, 1), (3, 2), (2, 3)] {
            let d = ConvDims {
                in_c: 2,
                in_h: 5,
                in_w: 6,
                k,
                s,
            };
            let x = Tensor::from_vec(
                vec![2, 5, 6],
                (0..60).map(|i| (i as f32 * 0.41).sin()).collect(),
            );
            let mut lowered = Tensor::full(vec![3, 3], 7.0);
            im2col_t_into(x.data(), d, &mut lowered);
            assert_eq!(lowered, im2col(&x, d).transpose(), "k={k} s={s}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), g> == <x, col2im(g)> for random-ish data.
        let d = ConvDims {
            in_c: 2,
            in_h: 4,
            in_w: 4,
            k: 3,
            s: 1,
        };
        let x = Tensor::from_vec(
            vec![2, 4, 4],
            (0..32).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let g = Tensor::from_vec(
            vec![d.rows(), d.cols()],
            (0..d.rows() * d.cols())
                .map(|i| (i as f32 * 0.13).cos())
                .collect(),
        );
        let px = im2col(&x, d);
        let lhs: f32 = px.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        // A dirty output buffer: col2im_into overwrites it.
        let mut back = vec![7.0; x.len()];
        col2im_into(g.data(), d, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn max_pool_takes_window_maxima() {
        let x = Tensor::from_vec(
            vec![1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (p, arg) = max_pool2d(&x, 1, 4, 4, 2);
        assert_eq!(p.shape(), &[1, 2, 2]);
        assert_eq!(p.data(), &[4., 8., 12., 16.]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1., 9., 3., 4.]);
        let (_, arg) = max_pool2d(&x, 1, 2, 2, 2);
        let g = Tensor::from_vec(vec![1, 1, 1], vec![2.5]);
        let back = max_pool2d_backward(&g, &arg, 4);
        assert_eq!(back.data(), &[0., 2.5, 0., 0.]);
    }

    #[test]
    fn pooling_multi_channel_is_per_channel() {
        let x = Tensor::from_vec(vec![2, 2, 2], vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let (p, _) = max_pool2d(&x, 2, 2, 2, 2);
        assert_eq!(p.data(), &[4., 8.]);
    }

    #[test]
    #[should_panic(expected = "invalid pooling window")]
    fn zero_window_panics() {
        let x = Tensor::zeros(vec![1, 2, 2]);
        let _ = max_pool2d(&x, 1, 2, 2, 0);
    }
}
