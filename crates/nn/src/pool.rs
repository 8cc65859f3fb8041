//! Non-overlapping max pooling (`MaxPool` in the paper's Table I).

use crate::kernels::{self, PoolDims};
use crate::layer::Layer;
use naps_tensor::{max_pool2d, max_pool2d_backward, Tensor};

/// 2-D max pooling with window = stride = `k` over `[c, h, w]` feature maps.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    pub(crate) dims: PoolDims,
    /// Per-sample argmax indices from the last training forward pass.
    cached_argmax: Vec<Vec<usize>>,
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
            cached_argmax: Vec::new(),
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
        self.cached_argmax.clear();
        if !train {
            let mut out = Tensor::default();
            kernels::max_pool_into(x, self.dims, &mut out);
            return out;
        }
        let PoolDims { c, h, w, k } = self.dims;
        let batch = kernels::batch_of(x, self.dims.in_len(), "pool");
        let out_len = self.dims.out_len();
        let mut out = Tensor::zeros(vec![batch, out_len]);
        for s in 0..batch {
            let sample = Tensor::from_vec(vec![c, h, w], x.row(s).to_vec());
            let (pooled, arg) = max_pool2d(&sample, c, h, w, k);
            out.data_mut()[s * out_len..(s + 1) * out_len].copy_from_slice(pooled.data());
            self.cached_argmax.push(arg);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_argmax.is_empty(),
            "backward called before forward"
        );
        let batch = grad_out.shape()[0];
        assert_eq!(batch, self.cached_argmax.len(), "batch size changed");
        let (in_len, out_len) = (self.dims.in_len(), self.dims.out_len());
        let mut grad_in = Tensor::zeros(vec![batch, in_len]);
        for s in 0..batch {
            let g = Tensor::from_vec(vec![out_len], grad_out.row(s).to_vec());
            let gi = max_pool2d_backward(&g, &self.cached_argmax[s], in_len);
            grad_in.data_mut()[s * in_len..(s + 1) * in_len].copy_from_slice(gi.data());
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
