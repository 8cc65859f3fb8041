//! Rectified linear unit.
//!
//! The on/off pattern of a ReLU layer's output is exactly the paper's
//! neuron activation pattern (Definition 1): `prelu(x) = 1` iff `x > 0`.

use crate::kernels;
use crate::layer::Layer;
use naps_tensor::Tensor;

/// Elementwise `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// `x > 0` per input of the last forward pass, in one buffer reused
    /// across calls; `None` before the first.
    mask: Option<Vec<bool>>,
    out_len: usize,
}

impl Relu {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        Relu {
            mask: None,
            out_len: 0,
        }
    }
}

// The mask is kept in inference mode too: gradient saliency
// backpropagates through an inference-mode forward pass.
impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut y = Tensor::default();
        kernels::relu_into(x, &mut y);
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(x.data().iter().map(|&v| v > 0.0));
        self.out_len = x.shape().iter().skip(1).product();
        y
    }

    // `grad_out` where the recorded input was positive, `+0.0` where it
    // was not.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // naps-lint: allow(typed_errors, "Layer::backward contract: forward caches first; misuse is a caller bug, not a runtime error path")
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "gradient shape changed between forward and backward"
        );
        let data = grad_out.data().iter().zip(mask);
        let data = data.map(|(&g, &on)| if on { g } else { 0.0 }).collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn output_len(&self) -> usize {
        self.out_len
    }

    fn label(&self) -> String {
        "relu".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 0., 0.5, 3.]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0., 0., 0.5, 3.]);
    }

    #[test]
    fn backward_masks_where_input_nonpositive() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 0., 0.5, 3.]);
        let _ = r.forward(&x, true);
        let g = Tensor::ones(vec![1, 4]);
        let gx = r.backward(&g);
        assert_eq!(gx.data(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn zero_input_is_off_matching_definition_1() {
        // prelu(0) = 0 in the paper; the gradient mask must agree.
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![1, 1], vec![0.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0]);
        let gx = r.backward(&Tensor::ones(vec![1, 1]));
        assert_eq!(gx.data(), &[0.0]);
    }
}
