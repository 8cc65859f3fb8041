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
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }

    /// [`ConvDims::validate`] for geometry read from outside the program.
    ///
    /// # Errors
    ///
    /// Says why if the kernel is larger than the input or the stride is
    /// zero.
    pub fn check(&self) -> Result<(), String> {
        if self.s == 0 {
            return Err("stride must be positive".to_owned());
        }
        let ConvDims { in_h, in_w, k, .. } = *self;
        if k > in_h || k > in_w {
            return Err(format!("kernel {k} exceeds input {in_h}x{in_w}"));
        }
        Ok(())
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
/// At stride 1 each output row of a tap is one contiguous input run of
/// `out_w` floats.  For the output widths of the paper's Network 1 (24
/// after its first convolution, 8 after its second) that run is copied
/// with a width fixed at compile time, which the compiler turns into a
/// few vector moves instead of a `memcpy` call per run; every other
/// width and stride takes the general loop.  Both write the same bits.
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
    // Every element below is overwritten.
    out.resize_in_place(&[dims.cols(), dims.rows()]);
    let o = out.data_mut();
    match (dims.s, dims.out_w()) {
        (1, 8) => lower_t_fixed::<8>(input, dims, o),
        (1, 24) => lower_t_fixed::<24>(input, dims, o),
        _ => lower_t_general(input, dims, o),
    }
}

/// The input offset of tap `tap`'s first output row: channel `c`, kernel
/// row `ky`, kernel column `kx`.
fn tap_origin(dims: ConvDims, tap: usize) -> usize {
    let kk = dims.k * dims.k;
    let (c, ky, kx) = (tap / kk, tap % kk / dims.k, tap % dims.k);
    c * dims.in_h * dims.in_w + ky * dims.in_w + kx
}

/// The transposed lowering for any stride and width: one slice copy per
/// output row at stride 1, one strided gather otherwise.
fn lower_t_general(input: &[f32], dims: ConvDims, out: &mut [f32]) {
    let ow = dims.out_w();
    for (tap, row) in out.chunks_exact_mut(dims.rows()).enumerate() {
        let origin = tap_origin(dims, tap);
        for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
            let src = origin + oy * dims.s * dims.in_w;
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

/// The stride-1 transposed lowering for output width `W`, known at
/// compile time: each output row is a `[f32; W]` copy.
///
/// # Panics
///
/// Panics if `dims` is not stride 1 with `out_w() == W`.
fn lower_t_fixed<const W: usize>(input: &[f32], dims: ConvDims, out: &mut [f32]) {
    assert!(dims.s == 1 && dims.out_w() == W, "lowering width mismatch");
    for (tap, row) in out.chunks_exact_mut(dims.rows()).enumerate() {
        let origin = tap_origin(dims, tap);
        for (oy, dst) in row.chunks_exact_mut(W).enumerate() {
            let src = origin + oy * dims.in_w;
            dst.copy_from_slice(&input[src..src + W]);
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Lowers one input of `dims` through `im2col_t_into` (whichever arm
    /// it picks) and through the general loop, into dirty buffers, and
    /// returns both plus the input.
    fn both_lowerings(dims: ConvDims) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = dims.in_c * dims.in_h * dims.in_w;
        let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut dispatched = Tensor::full(vec![2, 3], 7.0);
        im2col_t_into(&input, dims, &mut dispatched);
        let mut general = vec![7.0; dims.cols() * dims.rows()];
        lower_t_general(&input, dims, &mut general);
        (input, dispatched.data().to_vec(), general)
    }

    /// Output width `W` through the fixed-width body (instantiated for
    /// `W` whether or not `im2col_t_into` dispatches to it) and through
    /// the dispatch, against the general loop, bit for bit: 1, 3 and 40
    /// input channels, several kernel sides, strides 1 and 2.
    fn check_width<const W: usize>() {
        for in_c in [1, 3, 40] {
            for (k, s) in [(1, 1), (3, 1), (5, 1), (2, 2), (3, 2)] {
                let dims = ConvDims {
                    in_c,
                    in_h: k + 2,
                    in_w: (W - 1) * s + k,
                    k,
                    s,
                };
                assert_eq!(dims.out_w(), W);
                let (input, dispatched, general) = both_lowerings(dims);
                assert_eq!(bits(&dispatched), bits(&general), "{dims:?}");
                if s == 1 {
                    let mut fixed = vec![7.0; general.len()];
                    lower_t_fixed::<W>(&input, dims, &mut fixed);
                    assert_eq!(bits(&fixed), bits(&general), "{dims:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_width_lowering_matches_the_general_loop() {
        macro_rules! widths {
            ($($w:literal)*) => { $(check_width::<$w>();)* };
        }
        widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30);
        // Network 1's geometries, which take the fixed arms.
        for (in_c, side) in [(1, 28), (40, 12)] {
            let dims = ConvDims {
                in_c,
                in_h: side,
                in_w: side,
                k: 5,
                s: 1,
            };
            let (_, dispatched, general) = both_lowerings(dims);
            assert_eq!(bits(&dispatched), bits(&general), "{dims:?}");
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
