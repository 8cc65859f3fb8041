//! Fully-connected (`fc`) layer.

use crate::layer::{Layer, ParamGrad};
use naps_tensor::{xavier_uniform, Tensor};
use rand::Rng;

/// A fully-connected layer `y = x @ W + b` with `W: [in, out]`.
///
/// This is the `fc(·)` of the paper's Table I; the layer whose ReLU output
/// the monitor watches is always a `Dense` followed by [`crate::Relu`].
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    /// The input of the last forward pass, which backward needs for
    /// `dW`.  Kept on inference passes too, because gradient saliency
    /// backpropagates through one.  One buffer, reused while the batch
    /// size repeats; a batch of another size replaces it, so one large
    /// batch (a whole test set) does not stay allocated afterwards.
    input: Tensor,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// A dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Dense {
            w: xavier_uniform(
                vec![in_features, out_features],
                in_features,
                out_features,
                rng,
            ),
            b: Tensor::zeros(vec![out_features]),
            grad_w: Tensor::zeros(vec![in_features, out_features]),
            grad_b: Tensor::zeros(vec![out_features]),
            input: Tensor::default(),
            in_features,
            out_features,
        }
    }

    /// A dense layer with explicitly provided weights and bias (tests,
    /// deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `[in, out]` or `b` is not `[out]`.
    pub fn from_parts(w: Tensor, b: Tensor) -> Self {
        if let Err(reason) = check_parts(&w, &b) {
            panic!("{reason}");
        }
        let (in_features, out_features) = (w.shape()[0], w.shape()[1]);
        Dense {
            grad_w: Tensor::zeros(vec![in_features, out_features]),
            grad_b: Tensor::zeros(vec![out_features]),
            input: Tensor::default(),
            in_features,
            out_features,
            w,
            b,
        }
    }

    /// The weight matrix `[in, out]`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

/// Checks that `w` is `[in, out]` and `b` is `[out]` — the restore and
/// prepare paths run it on snapshot input.
///
/// # Errors
///
/// Says which shape is wrong.
pub(crate) fn check_parts(w: &Tensor, b: &Tensor) -> Result<(), String> {
    match w.shape() {
        [_, out] if b.shape() == [*out] => Ok(()),
        [_, out] => Err(format!("bias must be [out] = [{out}]")),
        _ => Err("weights must be 2-D".to_owned()),
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "dense expected {} input features, got {:?}",
            self.in_features,
            x.shape()
        );
        if self.input.len() == x.len() {
            self.input.copy_from(x);
        } else {
            self.input = x.clone();
        }
        let mut y = x.matmul(&self.w);
        // Broadcast-add bias per row.
        let out = self.out_features;
        let b = self.b.data();
        for r in 0..y.shape()[0] {
            let row = &mut y.data_mut()[r * out..(r + 1) * out];
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dx = g @ W^T
        grad_out.matmul_bt(&self.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        assert!(!self.input.is_empty(), "backward called before forward");
        // dW += x^T @ g ; db += column sums of g.
        let gw = self.input.matmul_at(grad_out);
        self.grad_w.add_assign(&gw);
        let gb = grad_out.sum_rows();
        self.grad_b.add_assign(&gb);
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
        self.out_features
    }

    fn label(&self) -> String {
        format!("fc({})", self.out_features)
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

    #[test]
    fn forward_applies_affine_map() {
        let w = Tensor::from_vec(vec![2, 3], vec![1., 0., 2., 0., 1., 3.]);
        let b = Tensor::from_vec(vec![3], vec![0.5, -0.5, 0.0]);
        let mut d = Dense::from_parts(w, b);
        let x = Tensor::from_vec(vec![1, 2], vec![2., 3.]);
        let y = d.forward(&x, true);
        assert_eq!(y.data(), &[2.5, 2.5, 13.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![2, 3], vec![0.4, -0.2, 0.9, -0.6, 0.1, 0.3]);
        // Scalar objective: sum of outputs.
        let y = d.forward(&x, true);
        let ones = Tensor::ones(vec![2, 2]);
        let gx = d.backward(&ones);

        // Finite differences on inputs.
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = d.forward(&xp, true).sum();
            let ym = d.forward(&xm, true).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (gx.data()[i] - fd).abs() < 1e-2,
                "input grad {i}: analytic {} vs fd {fd}",
                gx.data()[i]
            );
        }
        let _ = y;
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1, 2], vec![0.7, -0.3]);
        let _ = d.forward(&x, true);
        let ones = Tensor::ones(vec![1, 2]);
        let _ = d.backward(&ones);
        let analytic = d.grad_w.clone();

        let eps = 1e-3;
        for i in 0..d.w.len() {
            let orig = d.w.data()[i];
            d.w.data_mut()[i] = orig + eps;
            let yp = d.forward(&x, true).sum();
            d.w.data_mut()[i] = orig - eps;
            let ym = d.forward(&x, true).sum();
            d.w.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - fd).abs() < 1e-2,
                "weight grad {i}: analytic {} vs fd {fd}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(vec![1, 2]);
        let g = Tensor::ones(vec![1, 2]);
        let _ = d.forward(&x, true);
        let _ = d.backward(&g);
        let once = d.grad_w.clone();
        let _ = d.forward(&x, true);
        let _ = d.backward(&g);
        for (a, b) in d.grad_w.data().iter().zip(once.data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        d.zero_grad();
        assert_eq!(d.grad_w.sum(), 0.0);
    }

    /// The kept input buffer holds only the last batch: after inference
    /// forwards at batch 5, then at batch 3 twice (the second reuses the
    /// buffer in place), backward computes exactly the gradients of a
    /// fresh layer that saw only the last batch-3 forward.
    #[test]
    fn reused_input_buffer_backpropagates_only_the_last_batch() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut fresh = Dense::new(4, 3, &mut rng);
        let mut reused = fresh.clone();
        let x5 = Tensor::from_vec(
            vec![5, 4],
            (0..20).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let x3 = Tensor::from_vec(
            vec![3, 4],
            (0..12).map(|i| (i as f32 * 0.61).cos()).collect(),
        );
        let g = Tensor::from_vec(vec![3, 3], (0..9).map(|i| i as f32 - 4.0).collect());
        let _ = reused.forward(&x5, false);
        let _ = reused.forward(&x3.map(|v| -2.0 * v), false);
        let _ = reused.forward(&x3, false);
        let _ = fresh.forward(&x3, false);
        let dx_reused = reused.backward(&g);
        let dx_fresh = fresh.backward(&g);
        let bits = |t: &Tensor| {
            (
                t.shape().to_vec(),
                t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(bits(&reused.grad_w), bits(&fresh.grad_w), "dW");
        assert_eq!(bits(&reused.grad_b), bits(&fresh.grad_b), "db");
        assert_eq!(bits(&dx_reused), bits(&dx_fresh), "dX");
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        let _ = d.backward(&Tensor::ones(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_width_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(vec![1, 4]), true);
    }

    #[test]
    fn label_matches_paper_notation() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dense::new(84, 43, &mut rng);
        assert_eq!(d.label(), "fc(43)");
    }
}
