//! Per-channel batch normalisation (`BN(·)` in the paper's Table I).

use crate::kernels;
use crate::layer::{Layer, ParamGrad};
use naps_tensor::Tensor;

/// Batch normalisation over `[c, h, w]` feature maps: statistics are
/// computed per channel over the batch and spatial positions.
///
/// In training mode the layer normalises with batch statistics and updates
/// exponential running averages; in inference mode it uses the running
/// averages, so a single sample normalises deterministically.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    c: usize,
    pub(crate) hw: usize,
    pub(crate) eps: f32,
    momentum: f32,
    pub(crate) gamma: Tensor,
    pub(crate) beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    pub(crate) running_mean: Vec<f32>,
    pub(crate) running_var: Vec<f32>,
    // Forward cache for backward.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// A batch-norm layer over `c` channels of `h*w`-pixel maps.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self::from_stats(
            h * w,
            1e-5,
            Tensor::ones(vec![c]),
            Tensor::zeros(vec![c]),
            vec![0.0; c],
            vec![1.0; c],
        )
    }

    /// A layer in inference-ready state from its per-channel parameters
    /// and running statistics (the snapshot restore path, which has run
    /// [`check_stats`] on them).
    pub(crate) fn from_stats(
        hw: usize,
        eps: f32,
        gamma: Tensor,
        beta: Tensor,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
    ) -> Self {
        let c = running_mean.len();
        BatchNorm2d {
            c,
            hw,
            eps,
            momentum: 0.1,
            gamma,
            beta,
            grad_gamma: Tensor::zeros(vec![c]),
            grad_beta: Tensor::zeros(vec![c]),
            running_mean,
            running_var,
            cached_xhat: None,
            cached_inv_std: vec![0.0; c],
        }
    }
}

/// Checks that `gamma` and `beta` are `[c]` and `running_var` has `c`
/// entries, `c = running_mean.len()` — the restore and prepare paths run
/// it on snapshot input.
///
/// # Errors
///
/// Says which of them disagrees.
pub(crate) fn check_stats(
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
) -> Result<(), String> {
    let c = running_mean.len();
    if gamma.shape() != [c] {
        return Err(format!("batch-norm gamma must be [c] = [{c}]"));
    }
    if beta.shape() != [c] {
        return Err(format!("batch-norm beta must be [c] = [{c}]"));
    }
    if running_var.len() != c {
        return Err(format!(
            "batch-norm running variance must have c = {c} entries"
        ));
    }
    Ok(())
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            for (inv, &var) in self.cached_inv_std.iter_mut().zip(&self.running_var) {
                *inv = kernels::inv_std(var, self.eps);
            }
            // Backward needs a training pass's batch statistics.
            self.cached_xhat = None;
            let mut out = Tensor::default();
            kernels::batch_norm_into(
                x,
                self.hw,
                &self.running_mean,
                &self.cached_inv_std,
                self.gamma.data(),
                self.beta.data(),
                &mut out,
            );
            return out;
        }
        let in_len = self.c * self.hw;
        let batch = kernels::batch_of(x, in_len, "batchnorm");
        let m = (batch * self.hw) as f32;
        let mut out = x.clone();
        let mut xhat = Tensor::zeros(vec![batch, in_len]);
        for ch in 0..self.c {
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for s in 0..batch {
                for &v in &x.row(s)[ch * self.hw..(ch + 1) * self.hw] {
                    sum += v;
                    sq += v * v;
                }
            }
            let mean = sum / m;
            let var = (sq / m - mean * mean).max(0.0);
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
            let inv_std = kernels::inv_std(var, self.eps);
            self.cached_inv_std[ch] = inv_std;
            let g = self.gamma.data()[ch];
            let b = self.beta.data()[ch];
            for s in 0..batch {
                let base = s * in_len + ch * self.hw;
                for i in 0..self.hw {
                    let xh = (x.data()[base + i] - mean) * inv_std;
                    xhat.data_mut()[base + i] = xh;
                    out.data_mut()[base + i] = g * xh + b;
                }
            }
        }
        self.cached_xhat = Some(xhat);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .as_ref()
            // naps-lint: allow(typed_errors, "Layer::backward contract: forward caches first; misuse is a caller bug, not a runtime error path")
            .expect("backward called before forward");
        let batch = grad_out.shape()[0];
        let in_len = self.c * self.hw;
        assert_eq!(
            grad_out.shape(),
            &[batch, in_len],
            "gradient shape mismatch"
        );
        let m = (batch * self.hw) as f32;
        let mut grad_in = Tensor::zeros(vec![batch, in_len]);
        for ch in 0..self.c {
            let g = self.gamma.data()[ch];
            let inv_std = self.cached_inv_std[ch];
            // Channel reductions.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for s in 0..batch {
                let base = s * in_len + ch * self.hw;
                for i in 0..self.hw {
                    let dy = grad_out.data()[base + i];
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat.data()[base + i];
                }
            }
            self.grad_beta.data_mut()[ch] += sum_dy;
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat;
            // dx = gamma * inv_std / m * (m*dy - sum_dy - xhat * sum_dy_xhat)
            for s in 0..batch {
                let base = s * in_len + ch * self.hw;
                for i in 0..self.hw {
                    let dy = grad_out.data()[base + i];
                    let xh = xhat.data()[base + i];
                    grad_in.data_mut()[base + i] =
                        g * inv_std / m * (m * dy - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            ParamGrad {
                param: &mut self.gamma,
                grad: &mut self.grad_gamma,
            },
            ParamGrad {
                param: &mut self.beta,
                grad: &mut self.grad_beta,
            },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_gamma.scale(0.0);
        self.grad_beta.scale(0.0);
    }

    fn output_len(&self) -> usize {
        self.c * self.hw
    }

    fn label(&self) -> String {
        "bn".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(1, 1, 2);
        let x = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let y = bn.forward(&x, true);
        // Normalised values should have ~zero mean and ~unit variance.
        let mean = y.mean();
        assert!(mean.abs() < 1e-5, "mean {mean}");
        let var = y.data().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1, 1, 1);
        // Train a few batches so the running stats move toward mean 10.
        for _ in 0..200 {
            let x = Tensor::from_vec(vec![4, 1], vec![9., 10., 10., 11.]);
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&Tensor::from_vec(vec![1, 1], vec![10.0]), false);
        assert!(
            y.data()[0].abs() < 0.2,
            "normalised mean input ~ 0, got {}",
            y.data()[0]
        );
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(2, 1, 2);
        let x = Tensor::from_vec(vec![2, 4], vec![0.5, -1.0, 2.0, 0.3, 1.5, 0.2, -0.7, 0.9]);
        // Objective: weighted sum to make per-element gradients distinct.
        let w: Vec<f32> = (0..8).map(|i| 0.1 + 0.2 * i as f32).collect();
        let objective = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, true);
            y.data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let _ = objective(&mut bn, &x);
        let gout = Tensor::from_vec(vec![2, 4], w.clone());
        let gx = bn.backward(&gout);
        let eps = 1e-3;
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = objective(&mut bn, &xp);
            let fm = objective(&mut bn, &xm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (gx.data()[i] - fd).abs() < 2e-2,
                "grad {i}: analytic {} vs fd {fd}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm2d::new(1, 1, 2);
        let x = Tensor::from_vec(vec![1, 2], vec![1., -1.]);
        let g = Tensor::ones(vec![1, 2]);
        let _ = bn.forward(&x, true);
        let _ = bn.backward(&g);
        // d beta = sum(dy) = 2.
        assert!((bn.grad_beta.data()[0] - 2.0).abs() < 1e-6);
        bn.zero_grad();
        assert_eq!(bn.grad_beta.data()[0], 0.0);
    }
}
