//! Non-overlapping max pooling (`MaxPool` in the paper's Table I).

use crate::kernels::{self, PoolDims};
use crate::layer::Layer;
use naps_tensor::Tensor;

/// 2-D max pooling with window = stride = `k` over `[c, h, w]` feature maps.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    pub(crate) dims: PoolDims,
    /// The input of the last training forward pass, whose windows
    /// backward re-scans for their winners.  One buffer, reused across
    /// training calls and released by an inference pass.
    input: Tensor,
}

impl MaxPool2d {
    /// A pooling layer over `[c, h, w]` maps with window `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the spatial extent.
    pub fn new(c: usize, h: usize, w: usize, k: usize) -> Self {
        MaxPool2d {
            dims: PoolDims::new(c, h, w, k),
            input: Tensor::default(),
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

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        kernels::max_pool_into(x, self.dims, &mut out);
        if train {
            self.input.copy_from(x);
        } else {
            self.input = Tensor::default();
        }
        out
    }

    // Each output's gradient goes to its window's winner: the first value
    // in row-major window order strictly greater than all before it (the
    // forward kernel's `>` rule), or the window's first value if none
    // beats `-∞`.  Windows do not overlap, so each input gradient is
    // `+0.0` plus at most one output gradient.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.input.is_empty(), "backward called before forward");
        let PoolDims { h, w, k, .. } = self.dims;
        let (oh, ow) = (self.dims.out_h(), self.dims.out_w());
        let batch = self.input.shape()[0];
        assert_eq!(grad_out.shape()[0], batch, "batch size changed");
        assert_eq!(
            grad_out.shape()[1],
            self.dims.out_len(),
            "gradient width mismatch"
        );
        let mut grad_in = Tensor::zeros(vec![batch, self.dims.in_len()]);
        let planes = self.input.data().chunks_exact(h * w);
        let grad_planes = grad_in.data_mut().chunks_exact_mut(h * w);
        for ((plane, gi), g) in planes
            .zip(grad_planes)
            .zip(grad_out.data().chunks_exact(oh * ow))
        {
            for (oy, g_row) in g.chunks_exact(ow).enumerate() {
                for (ox, &g) in g_row.iter().enumerate() {
                    let corner = oy * k * w + ox * k;
                    let (mut best, mut winner) = (f32::NEG_INFINITY, corner);
                    for row in (0..k).map(|dy| corner + dy * w) {
                        for (at, &v) in (row..).zip(&plane[row..row + k]) {
                            let wins = v > best;
                            winner = if wins { at } else { winner };
                            best = if wins { v } else { best };
                        }
                    }
                    gi[winner] += g;
                }
            }
        }
        grad_in
    }

    fn output_len(&self) -> usize {
        self.dims.out_len()
    }

    fn label(&self) -> String {
        "maxpool".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_pools_per_sample() {
        let mut p = MaxPool2d::new(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![2, 4], vec![1., 2., 3., 4., 8., 6., 7., 5.]);
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.data(), &[4., 8.]);
    }

    #[test]
    fn backward_routes_gradients_to_maxima() {
        let mut p = MaxPool2d::new(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![1, 4], vec![1., 9., 3., 4.]);
        let _ = p.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 1], vec![5.0]);
        let gx = p.backward(&g);
        assert_eq!(gx.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn geometry_matches_paper() {
        // 24x24x40 pooled 2x2 -> 12x12x40.
        let p = MaxPool2d::new(40, 24, 24, 2);
        assert_eq!(p.output_len(), 40 * 12 * 12);
    }
}
