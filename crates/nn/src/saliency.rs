//! Gradient-based neuron saliency for monitor neuron selection.
//!
//! Section II of the paper: for layers with many neurons, monitor only the
//! subset whose influence `|∂n_c/∂n_i|` on the decision output `n_c` is
//! large.  Two routes are provided:
//!
//! * [`saliency_from_output_weights`] — the paper's special case: when the
//!   monitored layer feeds the (linear) output layer directly, the
//!   derivative is simply the connecting weight.
//! * [`saliency_by_backward`] — the general case: backpropagate a one-hot
//!   output gradient through the network suffix and read the gradient at
//!   the monitored layer's output, averaged over a probe batch.

use crate::dense::Dense;
use crate::sequential::Sequential;
use naps_tensor::Tensor;

/// Saliency of each monitored-layer neuron for class `class`, using the
/// paper's special case: the monitored layer is immediately before a linear
/// output [`Dense`] layer, so `∂n_c/∂n_i` is the weight `W[i, c]`.
///
/// Returns `|W[i, class]|` for each input neuron `i` of `output_layer`.
///
/// # Panics
///
/// Panics if `class` is not an output of `output_layer`.
pub fn saliency_from_output_weights(output_layer: &Dense, class: usize) -> Vec<f32> {
    let w = output_layer.weights();
    let (in_f, out_f) = (w.shape()[0], w.shape()[1]);
    assert!(
        class < out_f,
        "class {class} out of range for {out_f} outputs"
    );
    (0..in_f).map(|i| w.at2(i, class).abs()).collect()
}

/// General gradient saliency: mean `|∂logit_class/∂a_i|` over `probes`,
/// where `a` is the output of layer `monitored_layer`.
///
/// Runs one forward and one backward pass per call; accumulated parameter
/// gradients are cleared before returning.
///
/// # Panics
///
/// Panics if `monitored_layer` is out of range or `class` exceeds the
/// output width.
pub fn saliency_by_backward(
    model: &mut Sequential,
    probes: &Tensor,
    monitored_layer: usize,
    class: usize,
) -> Vec<f32> {
    assert!(
        monitored_layer < model.len(),
        "monitored layer {monitored_layer} out of range"
    );
    let logits = model.forward(probes, false);
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert!(
        class < classes,
        "class {class} out of range for {classes} outputs"
    );
    // One-hot gradient at the chosen logit, per sample.
    let mut onehot = Tensor::zeros(vec![batch, classes]);
    for r in 0..batch {
        onehot.set2(r, class, 1.0);
    }
    let grads = model.backward_all(&onehot);
    model.zero_grad();
    // Gradient w.r.t. the monitored layer's *output* = input of next layer.
    let g = &grads[monitored_layer + 1];
    let width = g.shape()[1];
    let mut sal = vec![0.0f32; width];
    for r in 0..batch {
        for (s, &v) in sal.iter_mut().zip(g.row(r)) {
            *s += v.abs();
        }
    }
    for s in &mut sal {
        *s /= batch as f32;
    }
    sal
}

/// Indices of the top `fraction` (0, 1] of neurons by saliency, sorted
/// ascending.  This mirrors the paper's GTSRB setting of monitoring 25 % of
/// the 84-neuron layer.
///
/// At least one neuron is always selected.
///
/// # Panics
///
/// Panics if `fraction` is not within `(0, 1]` or `saliency` is empty.
pub fn top_k_fraction(saliency: &[f32], fraction: f64) -> Vec<usize> {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    assert!(!saliency.is_empty(), "empty saliency vector");
    let k = ((saliency.len() as f64 * fraction).round() as usize).clamp(1, saliency.len());
    let mut idx: Vec<usize> = (0..saliency.len()).collect();
    idx.sort_by(|&a, &b| {
        saliency[b]
            .partial_cmp(&saliency[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut top: Vec<usize> = idx.into_iter().take(k).collect();
    top.sort_unstable();
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relu::Relu;
    use naps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_weight_saliency_reads_column() {
        let w = Tensor::from_vec(vec![3, 2], vec![1., -4., 2., 5., -3., 0.5]);
        let b = Tensor::zeros(vec![2]);
        let d = Dense::from_parts(w, b);
        assert_eq!(saliency_from_output_weights(&d, 0), vec![1., 2., 3.]);
        assert_eq!(saliency_from_output_weights(&d, 1), vec![4., 5., 0.5]);
    }

    #[test]
    fn backward_saliency_matches_special_case_for_linear_suffix() {
        // Network: Dense(3->4), Relu, Dense(4->2). Monitor layer 1 (the
        // ReLU). With probes that keep every ReLU active, the gradient at
        // the ReLU output equals the output weight column.
        let mut rng = StdRng::seed_from_u64(0);
        let hidden = Dense::new(3, 4, &mut rng);
        let w_out = Tensor::from_vec(vec![4, 2], vec![0.5, -1.0, 2.0, 0.1, -0.7, 0.3, 1.5, -0.2]);
        let out = Dense::from_parts(w_out, Tensor::zeros(vec![2]));
        let expected = saliency_from_output_weights(&out, 1);
        let mut net = Sequential::new(vec![Box::new(hidden), Box::new(Relu::new()), Box::new(out)]);
        // Probe far into the positive orthant so ReLU mask is (likely) all
        // ones; use several probes to be safe.
        let probes = Tensor::from_vec(vec![2, 3], vec![5., 5., 5., 4., 6., 5.]);
        let acts = net.forward_all(&probes, false);
        let relu_out = &acts[2];
        if relu_out.data().iter().all(|&v| v > 0.0) {
            let sal = saliency_by_backward(&mut net, &probes, 1, 1);
            for (a, b) in sal.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-5, "saliency {a} vs weight {b}");
            }
        }
        // Regardless of masks, saliency is non-negative.
        let sal = saliency_by_backward(&mut net, &probes, 1, 0);
        assert!(sal.iter().all(|&s| s >= 0.0));
        assert_eq!(sal.len(), 4);
    }

    #[test]
    fn top_fraction_selects_strongest_quarter() {
        let sal = vec![0.1, 5.0, 0.2, 3.0, 0.05, 0.0, 1.0, 0.4];
        let top = top_k_fraction(&sal, 0.25);
        assert_eq!(top, vec![1, 3]); // 25% of 8 = 2 strongest, sorted
    }

    #[test]
    fn top_fraction_never_empty() {
        let sal = vec![0.3, 0.1];
        assert_eq!(top_k_fraction(&sal, 0.01), vec![0]);
    }

    #[test]
    fn full_fraction_selects_everything() {
        let sal = vec![1.0, 2.0, 3.0];
        assert_eq!(top_k_fraction(&sal, 1.0), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let _ = top_k_fraction(&[1.0], 0.0);
    }
}
