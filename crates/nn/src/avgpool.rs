//! Non-overlapping average pooling.
//!
//! The paper's Table I networks use max pooling, but average pooling is
//! the other standard down-sampling choice in the network families the
//! monitor targets; having both lets the examples and ablations vary the
//! backbone without leaving the crate.

use crate::kernels::{self, PoolDims};
use crate::layer::Layer;
use naps_tensor::Tensor;

/// 2-D average pooling with window = stride = `k` over `[c, h, w]`
/// feature maps.
///
/// # Example
///
/// ```
/// use naps_nn::{AvgPool2d, Layer};
/// use naps_tensor::Tensor;
///
/// let mut pool = AvgPool2d::new(1, 2, 2, 2);
/// let x = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 6.0]);
/// let y = pool.forward(&x, false);
/// assert_eq!(y.data(), &[3.0]); // mean of the 2×2 window
/// ```
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    pub(crate) dims: PoolDims,
    last_batch: usize,
}

impl AvgPool2d {
    /// An average-pooling layer over `[c, h, w]` maps with window `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the spatial extent.
    pub fn new(c: usize, h: usize, w: usize, k: usize) -> Self {
        AvgPool2d {
            dims: PoolDims::new(c, h, w, k),
            last_batch: 0,
        }
    }

    /// Pooled output height.
    pub fn out_h(&self) -> usize {
        self.dims.out_h()
    }

    /// Pooled output width.
    pub fn out_w(&self) -> usize {
        self.dims.out_w()
    }
}

impl Layer for AvgPool2d {
    // Training and inference pool alike, through the shared kernel.
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut out = Tensor::default();
        kernels::avg_pool_into(x, self.dims, &mut out);
        self.last_batch = x.shape()[0];
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.last_batch > 0, "backward called before forward");
        let batch = grad_out.shape()[0];
        assert_eq!(batch, self.last_batch, "batch size changed");
        let PoolDims { c: chans, h, w, k } = self.dims;
        let in_len = self.dims.in_len();
        let (oh, ow) = (self.out_h(), self.out_w());
        let out_len = self.dims.out_len();
        assert_eq!(grad_out.shape()[1], out_len, "gradient width mismatch");
        let inv = 1.0 / (k * k) as f32;
        let mut grad_in = Tensor::zeros(vec![batch, in_len]);
        for s in 0..batch {
            let grow = grad_out.row(s);
            let irow = &mut grad_in.data_mut()[s * in_len..(s + 1) * in_len];
            for c in 0..chans {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grow[c * oh * ow + oy * ow + ox] * inv;
                        for dy in 0..k {
                            for dx in 0..k {
                                let y = oy * k + dy;
                                let xx = ox * k + dx;
                                irow[c * h * w + y * w + xx] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn output_len(&self) -> usize {
        self.dims.out_len()
    }

    fn label(&self) -> String {
        format!("AvgPool({}x{})", self.dims.k, self.dims.k)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_averages_windows() {
        // 1 channel, 4×4, window 2 -> four window means.
        let mut pool = AvgPool2d::new(1, 4, 4, 2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 16], vec![
            1.0, 2.0,   3.0, 4.0,
            5.0, 6.0,   7.0, 8.0,

            1.0, 1.0,   0.0, 0.0,
            1.0, 1.0,   0.0, 4.0,
        ]);
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.data(), &[3.5, 5.5, 1.0, 1.0]);
    }

    #[test]
    fn forward_handles_channels_and_batches() {
        let mut pool = AvgPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(
            vec![2, 8],
            vec![
                // sample 0: channel 0 all 1s, channel 1 all 3s
                1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, // sample 1: ramps
                0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
            ],
        );
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[1.0, 3.0, 1.5, 5.5]);
        assert_eq!(pool.output_len(), 2);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut pool = AvgPool2d::new(1, 4, 4, 2);
        let x0: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = Tensor::from_vec(vec![1, 16], x0.clone());
        // Scalar loss: weighted sum of the pooled outputs.
        let w = [0.7f32, -1.3, 0.2, 2.1];
        let loss = |pool: &mut AvgPool2d, data: &[f32]| -> f32 {
            let t = Tensor::from_vec(vec![1, 16], data.to_vec());
            let y = pool.forward(&t, false);
            y.data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let _ = pool.forward(&x, false);
        let grad_out = Tensor::from_vec(vec![1, 4], w.to_vec());
        let analytic = pool.backward(&grad_out);
        let eps = 1e-3f32;
        for i in 0..16 {
            let mut plus = x0.clone();
            plus[i] += eps;
            let mut minus = x0.clone();
            minus[i] -= eps;
            let numeric = (loss(&mut pool, &plus) - loss(&mut pool, &minus)) / (2.0 * eps);
            let got = analytic.data()[i];
            assert!(
                (numeric - got).abs() < 1e-3,
                "grad[{i}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn label_and_geometry() {
        let pool = AvgPool2d::new(3, 8, 8, 2);
        assert_eq!(pool.label(), "AvgPool(2x2)");
        assert_eq!(pool.out_h(), 4);
        assert_eq!(pool.out_w(), 4);
        assert_eq!(pool.output_len(), 3 * 16);
    }

    #[test]
    #[should_panic(expected = "invalid pooling window")]
    fn oversized_window_panics() {
        let _ = AvgPool2d::new(1, 2, 2, 3);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut pool = AvgPool2d::new(1, 2, 2, 2);
        let _ = pool.backward(&Tensor::zeros(vec![1, 1]));
    }
}
