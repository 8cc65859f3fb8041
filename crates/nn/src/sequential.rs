//! Sequential composition of layers, with activation taps and
//! boundary-gradient collection.

use crate::layer::{Layer, ParamGrad};
use naps_tensor::{argmax, Tensor};

/// A feed-forward stack of layers, applied in order.
///
/// Besides plain [`forward`](Sequential::forward), the container exposes
/// activation taps: [`observe_rows`](Sequential::observe_rows) retains
/// exactly the layers an [`crate::ObservationPlan`] names (the runtime
/// monitors' one observation pass — like a forward hook in the paper's
/// PyTorch implementation, without materialising unobserved layers),
/// [`forward_observe_plan`](Sequential::forward_observe_plan) is its
/// allocating oracle, and [`forward_all`](Sequential::forward_all)
/// returns **every** intermediate activation for diagnostics and
/// training-time tooling.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Whole-network forward passes executed (batched or not), see
    /// [`Sequential::forward_passes`].
    passes: u64,
}

impl Sequential {
    /// Composes `layers` front to back.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers, passes: 0 }
    }

    /// Number of whole-network forward passes this model has executed
    /// ([`forward`](Sequential::forward),
    /// [`forward_all`](Sequential::forward_all) and
    /// [`forward_observe_plan`](Sequential::forward_observe_plan) each
    /// count one per call, [`observe_rows`](Sequential::observe_rows) one
    /// per 64-row chunk, regardless of batch size or how many layers were
    /// observed).  Lets monitoring harnesses *measure* — not assume
    /// — that adding monitored layers adds no forward passes.
    pub fn forward_passes(&self) -> u64 {
        self.passes
    }

    /// Resets the [`Sequential::forward_passes`] counter.
    pub fn reset_forward_passes(&mut self) {
        self.passes = 0;
    }

    pub(crate) fn count_pass(&mut self) {
        self.passes += 1;
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer.
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.layers[idx].as_ref()
    }

    /// Mutable access to a layer (e.g. to read `Dense::weights` for the
    /// saliency special case).
    pub fn layer_mut(&mut self, idx: usize) -> &mut dyn Layer {
        self.layers[idx].as_mut()
    }

    /// Runs the network on a batch `[batch, features]`, returning logits.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.passes += 1;
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Runs the network and returns every activation: entry `0` is the
    /// input, entry `i + 1` is the output of layer `i` (so the last entry
    /// is the logits).
    pub fn forward_all(&mut self, x: &Tensor, train: bool) -> Vec<Tensor> {
        self.passes += 1;
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &mut self.layers {
            // naps-lint: allow(typed_errors, "acts starts with the input pushed two lines up and only grows; never empty")
            let next = layer.forward(acts.last().expect("nonempty"), train);
            acts.push(next);
        }
        acts
    }

    /// Backpropagates `grad_out` (w.r.t. the logits) through the stack,
    /// accumulating parameter gradients: the training step's backward.
    /// The first layer runs [`Layer::backward_params`], so the gradient
    /// w.r.t. the network input, which no training step reads, is never
    /// computed; [`backward_all`](Sequential::backward_all) returns it.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out));
    }

    /// Like [`backward`](Sequential::backward) but returns the gradient at
    /// **every** layer boundary: entry `i` is the gradient w.r.t. the input
    /// of layer `i` (equivalently the output of layer `i - 1`), and the
    /// final entry is `grad_out` itself.
    ///
    /// Gradient saliency for a monitored layer `l` reads entry `l + 1`.
    pub fn backward_all(&mut self, grad_out: &Tensor) -> Vec<Tensor> {
        let mut grads = vec![Tensor::default(); self.layers.len() + 1];
        grads[self.layers.len()] = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            grads[i] = layer.backward(&grads[i + 1]);
        }
        grads
    }

    /// All `(parameter, gradient)` pairs of the stack, in layer order.
    pub fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Architecture summary in the paper's Table I notation, e.g.
    /// `"conv(40), maxpool, fc(320), relu, fc(10)"`.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.label())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Predicted class per sample: argmax over logits.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x, false);
        (0..logits.shape()[0])
            .map(|r| argmax(logits.row(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::relu::Relu;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, &mut rng)),
        ])
    }

    #[test]
    fn forward_all_exposes_intermediates() {
        let mut net = tiny_net(0);
        let x = Tensor::ones(vec![2, 3]);
        let acts = net.forward_all(&x, false);
        assert_eq!(acts.len(), 4);
        assert_eq!(acts[0].shape(), &[2, 3]);
        assert_eq!(acts[2].shape(), &[2, 5]); // output of the ReLU tap
        assert_eq!(acts[3].shape(), &[2, 2]);
        // forward and forward_all agree on the logits.
        let direct = net.forward(&x, false);
        assert_eq!(acts[3], direct);
    }

    #[test]
    fn backward_all_boundary_shapes() {
        let mut net = tiny_net(1);
        let x = Tensor::ones(vec![1, 3]);
        let _ = net.forward(&x, true);
        let g = Tensor::ones(vec![1, 2]);
        let grads = net.backward_all(&g);
        assert_eq!(grads.len(), 4);
        assert_eq!(grads[0].shape(), &[1, 3]);
        assert_eq!(grads[2].shape(), &[1, 5]);
        assert_eq!(grads[3], g);
    }

    /// `backward` skips only the input gradient: it accumulates every
    /// parameter gradient bit for bit as `backward_all` does.
    #[test]
    fn backward_all_agrees_with_backward() {
        let mut a = tiny_net(2);
        let mut b = tiny_net(2);
        let x = Tensor::from_vec(vec![1, 3], vec![0.1, -0.4, 0.9]);
        let g = Tensor::from_vec(vec![1, 2], vec![1.0, -2.0]);
        let _ = a.forward(&x, true);
        a.backward(&g);
        let _ = b.forward(&x, true);
        let _ = b.backward_all(&g);
        let grads = |net: &mut Sequential| -> Vec<Tensor> {
            net.params_mut()
                .into_iter()
                .map(|p| p.grad.clone())
                .collect()
        };
        let (ga, gb) = (grads(&mut a), grads(&mut b));
        assert_eq!(ga.len(), 4);
        assert_eq!(ga, gb);
        assert!(ga.iter().all(|g| g.data().iter().any(|&v| v != 0.0)));
    }

    #[test]
    fn summary_lists_layers() {
        let net = tiny_net(4);
        assert_eq!(net.summary(), "fc(5), relu, fc(2)");
    }

    #[test]
    fn forward_pass_counter_counts_whole_passes() {
        let mut net = tiny_net(5);
        assert_eq!(net.forward_passes(), 0);
        let x = Tensor::ones(vec![2, 3]);
        let _ = net.forward(&x, false);
        let _ = net.forward_all(&x, false);
        let _ = net.forward_observe_plan(&x, &crate::observe::ObservationPlan::single(1), false);
        assert_eq!(net.forward_passes(), 3, "one count per whole pass");
        net.reset_forward_passes();
        assert_eq!(net.forward_passes(), 0);
    }

    #[test]
    fn predict_takes_argmax() {
        let w = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]);
        let b = Tensor::from_vec(vec![2], vec![0.0, 0.0]);
        let mut net = Sequential::new(vec![Box::new(Dense::from_parts(w, b))]);
        let preds = net.predict(&Tensor::from_vec(vec![2, 1], vec![2.0, -3.0]));
        assert_eq!(preds, vec![0, 1]);
    }
}
