//! 2-D convolution lowered to matrix products via `im2col`.

use crate::kernels;
use crate::layer::{Layer, ParamGrad};
use naps_tensor::{col2im_into, im2col_into, matmul_slice_into, xavier_uniform, ConvDims, Tensor};
use rand::Rng;

/// A 2-D convolution with square kernel, stride as configured, no padding —
/// the `Conv(·)` of the paper's Table I (kernel 5×5, stride 1 there).
///
/// Batches flow as flat `[batch, in_c*in_h*in_w]` tensors in channel-major
/// (CHW) order; the layer re-interprets rows using its [`ConvDims`].
#[derive(Debug, Clone)]
pub struct Conv2d {
    dims: ConvDims,
    out_c: usize,
    /// Kernel `[out_c, in_c*k*k]`.
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    /// The input of the last training forward pass, which backward
    /// re-lowers one sample at a time.  One buffer, reused across
    /// training calls and released by an inference pass.
    input: Tensor,
    /// Reused per-sample workspace (allocation-free after warm-up).
    scratch: ConvScratch,
}

/// Per-sample scratch.  Forward: the `im2colᵀ` lowering that
/// [`kernels::conv2d_into`] reads.  Backward: the `im2col` patch matrix,
/// the position-major output gradient and one product at a time.
#[derive(Debug, Clone, Default)]
struct ConvScratch {
    lowered: Tensor,
    patches: Tensor,
    gpos: Tensor,
    product: Tensor,
}

impl Conv2d {
    /// A convolution layer with Xavier-initialised kernels.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the configured input geometry.
    pub fn new(dims: ConvDims, out_c: usize, rng: &mut impl Rng) -> Self {
        dims.validate();
        let fan_in = dims.cols();
        let fan_out = out_c * dims.k * dims.k;
        Conv2d {
            dims,
            out_c,
            w: xavier_uniform(vec![out_c, dims.cols()], fan_in, fan_out, rng),
            b: Tensor::zeros(vec![out_c]),
            grad_w: Tensor::zeros(vec![out_c, dims.cols()]),
            grad_b: Tensor::zeros(vec![out_c]),
            input: Tensor::default(),
            scratch: ConvScratch::default(),
        }
    }

    /// The convolution geometry.
    pub fn dims(&self) -> ConvDims {
        self.dims
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Flat output length per sample: `out_c * out_h * out_w`.
    pub fn out_len(&self) -> usize {
        self.out_c * self.dims.rows()
    }

    /// A convolution with the given kernel `w` (`[out_c, in_c*k*k]`) and
    /// bias `b` (`[out_c]`) — e.g. restored from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the geometry or the parameter
    /// shapes disagree with it.
    pub fn from_parts(dims: ConvDims, w: Tensor, b: Tensor) -> Self {
        if let Err(reason) = check_parts(dims, &w, &b) {
            panic!("{reason}");
        }
        let out_c = b.len();
        Conv2d {
            dims,
            out_c,
            grad_w: Tensor::zeros(w.shape().to_vec()),
            grad_b: Tensor::zeros(vec![out_c]),
            w,
            b,
            input: Tensor::default(),
            scratch: ConvScratch::default(),
        }
    }

    /// Kernel weights `[out_c, in_c*k*k]`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Bias `[out_c]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    // Per sample, in sample order: dW and db are that sample's partial
    // sums, added into `grad_w`/`grad_b`; dX, when asked for, is
    // `gpos @ W` scattered by `col2im`.  These accumulation orders are
    // part of the trained weights' bits, which `tests/training_golden.rs`
    // pins.
    fn accumulate(&mut self, grad_out: &Tensor, mut grad_in: Option<&mut Tensor>) {
        assert!(!self.input.is_empty(), "backward called before forward");
        let (batch, in_len) = (self.input.shape()[0], self.input.shape()[1]);
        let (out_c, rows, cols) = (self.out_c, self.dims.rows(), self.dims.cols());
        assert_eq!(grad_out.shape()[0], batch, "batch size changed");
        assert_eq!(grad_out.shape()[1], out_c * rows, "gradient width mismatch");
        let ConvScratch {
            patches,
            gpos,
            product,
            ..
        } = &mut self.scratch;
        for s in 0..batch {
            // The sample's gradient, channel-major: the `[out_c, rows]`
            // left operand of dW as it stands.
            let g = grad_out.row(s);
            im2col_into(self.input.row(s), self.dims, patches);
            // dW += g @ patches -> [out_c, cols]
            product.resize_in_place(&[out_c, cols]);
            matmul_slice_into(out_c, rows, cols, g, patches.data(), product.data_mut());
            self.grad_w.add_assign(product);
            // db += per-channel sums of g, in ascending position order.
            for (gb, plane) in self.grad_b.data_mut().iter_mut().zip(g.chunks_exact(rows)) {
                *gb += plane.iter().fold(0.0, |sum, &v| sum + v);
            }
            let Some(grad_in) = grad_in.as_deref_mut() else {
                continue;
            };
            // dPatches = gpos @ W -> [rows, cols], with gpos the
            // position-major [rows, out_c] transpose of g; scatter back.
            gpos.resize_in_place(&[rows, out_c]);
            let gp = gpos.data_mut();
            for (c, plane) in g.chunks_exact(rows).enumerate() {
                for (r, &v) in plane.iter().enumerate() {
                    gp[r * out_c + c] = v;
                }
            }
            product.resize_in_place(&[rows, cols]);
            matmul_slice_into(rows, out_c, cols, gp, self.w.data(), product.data_mut());
            let gi = &mut grad_in.data_mut()[s * in_len..(s + 1) * in_len];
            col2im_into(product.data(), self.dims, gi);
        }
    }
}

/// Checks a convolution's parameters against its geometry — the
/// restore and prepare paths run it on snapshot input.
///
/// # Errors
///
/// Says what disagrees if the kernel does not fit the geometry, `b` is
/// not `[out_c]` or `w` is not `[out_c, in_c*k*k]`.
pub(crate) fn check_parts(dims: ConvDims, w: &Tensor, b: &Tensor) -> Result<(), String> {
    dims.check()?;
    let out_c = b.len();
    if b.shape() != [out_c] {
        return Err("conv bias must be [out_c]".to_owned());
    }
    if w.shape() != [out_c, dims.cols()] {
        return Err(format!(
            "conv kernel must be [out_c, in_c*k*k] = [{out_c}, {}]",
            dims.cols()
        ));
    }
    Ok(())
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        let lowered = &mut self.scratch.lowered;
        kernels::conv2d_into(x, self.dims, &self.w, &self.b, lowered, &mut out);
        if train {
            self.input.copy_from(x);
        } else {
            self.input = Tensor::default();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(self.input.shape().to_vec());
        self.accumulate(grad_out, Some(&mut grad_in));
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate(grad_out, None);
    }

    fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            ParamGrad {
                param: &mut self.w,
                grad: &mut self.grad_w,
            },
            ParamGrad {
                param: &mut self.b,
                grad: &mut self.grad_b,
            },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_w.scale(0.0);
        self.grad_b.scale(0.0);
    }

    fn output_len(&self) -> usize {
        self.out_len()
    }

    fn label(&self) -> String {
        format!("conv({})", self.out_c)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dims() -> ConvDims {
        ConvDims {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            k: 2,
            s: 1,
        }
    }

    #[test]
    fn forward_computes_cross_correlation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(tiny_dims(), 1, &mut rng);
        // Kernel that picks the top-left pixel of each patch.
        conv.w = Tensor::from_vec(vec![1, 4], vec![1., 0., 0., 0.]);
        conv.b = Tensor::from_vec(vec![1], vec![0.5]);
        let x = Tensor::from_vec(vec![1, 9], (1..=9).map(|i| i as f32).collect());
        let y = conv.forward(&x, true);
        // Patch top-left values: 1,2,4,5; plus bias.
        assert_eq!(y.data(), &[1.5, 2.5, 4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let dims = ConvDims {
            in_c: 2,
            in_h: 4,
            in_w: 4,
            k: 3,
            s: 1,
        };
        let mut conv = Conv2d::new(dims, 3, &mut rng);
        let x = Tensor::randn(vec![2, 32], 1.0, &mut rng);
        let _ = conv.forward(&x, true);
        let ones = Tensor::ones(vec![2, conv.out_len()]);
        let gx = conv.backward(&ones);

        let eps = 1e-2;
        // Spot-check a few input coordinates.
        for &i in &[0usize, 7, 31, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = conv.forward(&xp, true).sum();
            let ym = conv.forward(&xm, true).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (gx.data()[i] - fd).abs() < 1e-1,
                "input grad {i}: analytic {} vs fd {fd}",
                gx.data()[i]
            );
        }
        // And a few weight coordinates.
        let mut conv2 = Conv2d::new(dims, 3, &mut rng);
        let _ = conv2.forward(&x, true);
        let _ = conv2.backward(&ones);
        let analytic = conv2.grad_w.clone();
        for &i in &[0usize, 5, 17, 53] {
            let orig = conv2.w.data()[i];
            conv2.w.data_mut()[i] = orig + eps;
            let yp = conv2.forward(&x, true).sum();
            conv2.w.data_mut()[i] = orig - eps;
            let ym = conv2.forward(&x, true).sum();
            conv2.w.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - fd).abs() < 1e-1,
                "weight grad {i}: analytic {} vs fd {fd}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn paper_geometry_mnist_first_conv() {
        let mut rng = StdRng::seed_from_u64(0);
        let dims = ConvDims {
            in_c: 1,
            in_h: 28,
            in_w: 28,
            k: 5,
            s: 1,
        };
        let conv = Conv2d::new(dims, 40, &mut rng);
        assert_eq!(conv.out_len(), 40 * 24 * 24);
        assert_eq!(conv.label(), "conv(40)");
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_input_length_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(tiny_dims(), 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(vec![1, 8]), true);
    }
}
