//! The [`Layer`] trait and common helper types.

use naps_tensor::Tensor;

/// A mutable view of one parameter tensor together with its accumulated
/// gradient, handed to optimizers by [`Layer::params_mut`].
#[derive(Debug)]
pub struct ParamGrad<'a> {
    /// The trainable parameter.
    pub param: &'a mut Tensor,
    /// The gradient accumulated by the latest backward pass(es).
    pub grad: &'a mut Tensor,
}

/// A differentiable network layer operating on batches.
///
/// Batches are 2-D tensors `[batch, features]`; layers that are spatially
/// aware ([`crate::Conv2d`], [`crate::MaxPool2d`], [`crate::BatchNorm2d`])
/// know their own channel/height/width geometry and interpret the feature
/// axis accordingly.  `forward` caches whatever the matching `backward`
/// needs, so the call order must be forward-then-backward on the same batch.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Computes the layer output for a batch.
    ///
    /// `train` selects training-time behaviour (e.g. batch statistics in
    /// batch norm) versus inference behaviour (running statistics).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates the gradient `grad_out` (w.r.t. this layer's output) to a
    /// gradient w.r.t. this layer's input, accumulating parameter gradients
    /// along the way.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Accumulates the parameter gradients for `grad_out` exactly as
    /// [`Layer::backward`] does, without computing the gradient with
    /// respect to the input: what a network's first layer runs in
    /// training, where nothing reads that gradient.  The default runs
    /// `backward` and drops its result.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable access to all `(parameter, gradient)` pairs, in a stable
    /// order.  Parameter-free layers return an empty vector.
    fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        Vec::new()
    }

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {}

    /// Number of output features per sample.
    fn output_len(&self) -> usize;

    /// Short human-readable layer label (e.g. `"fc(40)"`), used by model
    /// summaries mirroring the paper's Table I notation.
    fn label(&self) -> String;

    /// Upcast for concrete-layer access (e.g. reading [`crate::Dense`]
    /// weights for the saliency special case of Section II).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A named no-op marking the transition from convolutional to
/// fully-connected processing.
///
/// Data already flows through the network as flat `[batch, features]`
/// tensors, so `Flatten` performs no work; it exists so model summaries
/// match the conventional architecture description.
#[derive(Debug, Clone)]
pub struct Flatten {
    features: usize,
}

impl Flatten {
    /// A flatten marker expecting `features` inputs per sample.
    pub fn new(features: usize) -> Self {
        Flatten { features }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn output_len(&self) -> usize {
        self.features
    }

    fn label(&self) -> String {
        "flatten".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_is_identity() {
        let mut f = Flatten::new(6);
        let x = Tensor::from_vec(vec![2, 6], (0..12).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y, x);
        let g = f.backward(&y);
        assert_eq!(g, x);
        assert_eq!(f.output_len(), 6);
        assert!(f.params_mut().is_empty());
    }
}
