//! Softmax, cross-entropy loss, and accuracy.

use naps_tensor::{argmax, Tensor};

/// Row-wise softmax of a `[batch, classes]` logits tensor.
///
/// Numerically stabilised by subtracting each row's maximum.
pub fn softmax(logits: &Tensor) -> Tensor {
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    let mut out = logits.clone();
    for r in 0..batch {
        let row = &mut out.data_mut()[r * classes..(r + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean softmax cross-entropy over a batch, plus the gradient w.r.t. the
/// logits (already divided by the batch size, ready for
/// [`crate::Sequential::backward`]).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), batch, "one label per batch row required");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        let p = probs.at2(r, label).max(1e-12);
        loss -= p.ln();
        let g = grad.at2(r, label);
        grad.set2(r, label, g - 1.0);
    }
    grad.scale(1.0 / batch as f32);
    (loss / batch as f32, grad)
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let batch = logits.shape()[0];
    assert_eq!(labels.len(), batch, "one label per batch row required");
    if batch == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &label)| argmax(logits.row(r)) == label)
        .count();
    correct as f64 / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Larger logit -> larger probability.
        assert!(p.at2(0, 2) > p.at2(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1, 3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(vec![1, 3], vec![101., 102., 103.]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        let logits = Tensor::from_vec(vec![1, 3], vec![10., 0., 0.]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 0.01, "loss {loss}");
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(bad_loss > 5.0, "loss {bad_loss}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.1, 0.2, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad.data()[i] - fd).abs() < 1e-3,
                "grad {i}: analytic {} vs fd {fd}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1, 4], vec![0.3, -0.2, 0.8, 0.1]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        let s: f32 = grad.data().iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![3, 2], vec![2., 1., 0., 5., 1., 1.]);
        // Row 2 ties -> argmax 0.
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(vec![1, 2]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
