//! Leaky ReLU — one of the "ReLU variations" the paper's introduction
//! mentions.  The monitor requires true ReLU semantics (`prelu(x) = 1 ⇔
//! x > 0`) **at the monitored layer**; other layers are free to use leaky
//! variants, which is exactly the scalability argument of Section IV:
//! "arbitrary large networks with other nonlinear activation functions,
//! so long as the neurons being monitored are ReLU".

use crate::kernels;
use crate::layer::Layer;
use crate::relu::{gate, record_mask};
use naps_tensor::Tensor;

/// Elementwise `x if x > 0 else slope * x`.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    slope: f32,
    /// `x > 0` per input of the last forward pass, in one buffer reused
    /// across calls; `None` before the first.
    mask: Option<Vec<bool>>,
    out_len: usize,
}

impl LeakyRelu {
    /// A leaky ReLU with the given negative-side slope.
    ///
    /// # Panics
    ///
    /// Panics if `slope` is not finite or not in `[0, 1)`.
    pub fn new(slope: f32) -> Self {
        assert!(
            slope.is_finite() && (0.0..1.0).contains(&slope),
            "slope must be in [0, 1), got {slope}"
        );
        LeakyRelu {
            slope,
            mask: None,
            out_len: 0,
        }
    }

    /// The negative-side slope.
    pub fn slope(&self) -> f32 {
        self.slope
    }
}

// The mask is kept in inference mode too, as `Relu` keeps its own.
impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut y = Tensor::default();
        kernels::leaky_relu_into(x, self.slope, &mut y);
        record_mask(&mut self.mask, x);
        self.out_len = x.shape().iter().skip(1).product();
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        gate(&self.mask, grad_out, |g| g * self.slope)
    }

    fn output_len(&self) -> usize {
        self.out_len
    }

    fn label(&self) -> String {
        format!("leaky_relu({})", self.slope)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_scales_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![1, 4], vec![-2.0, 0.0, 1.0, -0.5]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[-0.2, 0.0, 1.0, -0.05]);
    }

    #[test]
    fn backward_uses_slope_on_negative_side() {
        let mut l = LeakyRelu::new(0.2);
        let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 2.0, 0.0]);
        let _ = l.forward(&x, true);
        let g = l.backward(&Tensor::ones(vec![1, 3]));
        assert_eq!(g.data(), &[0.2, 1.0, 0.2]);
    }

    #[test]
    fn zero_slope_equals_relu() {
        let mut leaky = LeakyRelu::new(0.0);
        let mut relu = crate::relu::Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-3.0, -0.1, 0.4, 7.0]);
        assert_eq!(leaky.forward(&x, true), relu.forward(&x, true));
    }

    #[test]
    #[should_panic(expected = "slope must be")]
    fn invalid_slope_panics() {
        let _ = LeakyRelu::new(1.5);
    }
}
