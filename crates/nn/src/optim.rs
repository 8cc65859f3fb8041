//! Optimizers: SGD with momentum and Adam.

use crate::layer::ParamGrad;
use naps_tensor::Tensor;

/// An optimizer updates parameters in place from their accumulated
/// gradients.  The parameter list must be passed in a stable order across
/// steps (as produced by [`crate::Sequential::params_mut`]), because
/// stateful optimizers track one state slot per position.
pub trait Optimizer {
    /// Applies one update step and leaves gradients untouched (call
    /// [`crate::Sequential::zero_grad`] afterwards).
    fn step(&mut self, params: &mut [ParamGrad<'_>]);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// SGD with the given learning rate and momentum.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.param.shape().to_vec()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            let v = &mut self.velocity[i];
            for ((vv, &g), w) in v
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(p.param.data_mut().iter_mut())
            {
                *vv = self.momentum * *vv - self.lr * g;
                *w += *vv;
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the given learning rate and default moments
    /// `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.param.shape().to_vec()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (i, p) in params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for (((mm, vv), &g), w) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.grad.data())
                .zip(p.param.data_mut().iter_mut())
            {
                *mm = self.beta1 * *mm + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let mhat = *mm / bc1;
                let vhat = *vv / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Layer;
    use crate::loss::softmax_cross_entropy;
    use crate::sequential::Sequential;
    use naps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimise f(w) = (w - 3)^2 via a fake ParamGrad.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut w = Tensor::from_vec(vec![1], vec![0.0]);
        let mut g = Tensor::zeros(vec![1]);
        for _ in 0..steps {
            g.data_mut()[0] = 2.0 * (w.data()[0] - 3.0);
            let mut params = [ParamGrad {
                param: &mut w,
                grad: &mut g,
            }];
            opt.step(&mut params);
        }
        w.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let w = quadratic_descent(&mut opt, 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let w = quadratic_descent(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_fits_small_classification_problem() {
        // 2-class separable toy data; loss must drop substantially.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 8, &mut rng)),
            Box::new(crate::relu::Relu::new()),
            Box::new(Dense::new(8, 2, &mut rng)),
        ]);
        let x = Tensor::from_vec(vec![4, 2], vec![1.0, 1.0, 0.9, 1.1, -1.0, -1.0, -1.1, -0.9]);
        let labels = [0usize, 0, 1, 1];
        let mut opt = Adam::new(0.05);
        let (loss0, _) = softmax_cross_entropy(&net.forward(&x, true), &labels);
        for _ in 0..100 {
            let logits = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
        }
        let (loss1, _) = softmax_cross_entropy(&net.forward(&x, false), &labels);
        assert!(loss1 < loss0 * 0.1, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn optimizers_handle_param_free_layers() {
        let mut relu = crate::relu::Relu::new();
        let mut params = relu.params_mut();
        let mut opt = Adam::new(0.1);
        opt.step(&mut params); // must not panic on empty list
    }
}
