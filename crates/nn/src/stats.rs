//! Per-neuron activation statistics over a dataset.
//!
//! Gradient saliency (Section II of the paper) ranks neurons by their
//! influence on the decision output; an alternative, data-driven ranking
//! is how much a neuron actually *varies* over the training set — a
//! neuron that is always on (or always off) contributes no information
//! to an on/off pattern monitor.  [`activation_moments`] computes the
//! mean and variance each ranking needs.

use crate::observe::ObservationPlan;
use crate::sequential::Sequential;
use naps_tensor::Tensor;

/// Per-neuron mean and (population) variance of the output of `layer`
/// over `samples`, evaluated in inference mode.
///
/// The samples go through one [`Sequential::observe_rows`] pass with
/// [`ObservationPlan::single`], which keeps only the output of `layer`,
/// as `naps-core`'s monitor builder observes it.
///
/// # Panics
///
/// Panics if `samples` is empty or `layer` is out of range, and as
/// [`Sequential::observe_rows`] does.
///
/// # Example
///
/// ```
/// use naps_nn::{activation_moments, mlp};
/// use naps_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = mlp(&[2, 6, 2], &mut rng);
/// let xs = vec![
///     Tensor::from_vec(vec![2], vec![1.0, -1.0]),
///     Tensor::from_vec(vec![2], vec![-1.0, 1.0]),
/// ];
/// let (mean, var) = activation_moments(&mut net, 1, &xs);
/// assert_eq!(mean.len(), 6);
/// assert!(var.iter().all(|&v| v >= 0.0));
/// ```
pub fn activation_moments(
    model: &mut Sequential,
    layer: usize,
    samples: &[Tensor],
) -> (Vec<f32>, Vec<f32>) {
    assert!(!samples.is_empty(), "empty sample set");
    assert!(layer < model.len(), "layer out of range");

    let mut sum: Vec<f64> = Vec::new();
    let mut sum_sq: Vec<f64> = Vec::new();
    model.observe_rows(samples, &ObservationPlan::single(layer), |_, _, row| {
        let monitored = row.layer(0);
        sum.resize(monitored.len(), 0.0);
        sum_sq.resize(monitored.len(), 0.0);
        for (i, &v) in monitored.iter().enumerate() {
            let v = f64::from(v);
            sum[i] += v;
            sum_sq[i] += v * v;
        }
    });
    let n = samples.len() as f64;
    let mean: Vec<f32> = sum.iter().map(|&s| (s / n) as f32).collect();
    let var: Vec<f32> = sum
        .iter()
        .zip(&sum_sq)
        .map(|(&s, &ss)| ((ss / n - (s / n) * (s / n)).max(0.0)) as f32)
        .collect();
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::relu::Relu;

    /// A fixed 2->2 "network" (identity weights) so moments are exact.
    fn identity_net() -> Sequential {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let d = Dense::from_parts(w, Tensor::zeros(vec![2]));
        Sequential::new(vec![Box::new(d), Box::new(Relu::new())])
    }

    #[test]
    fn moments_match_hand_computation() {
        let mut net = identity_net();
        let xs = vec![
            Tensor::from_vec(vec![2], vec![1.0, 2.0]),
            Tensor::from_vec(vec![2], vec![3.0, 2.0]),
        ];
        // Layer 0 output (pre-ReLU) equals the inputs.
        let (mean, var) = activation_moments(&mut net, 0, &xs);
        assert_eq!(mean, vec![2.0, 2.0]);
        assert_eq!(var, vec![1.0, 0.0]);
    }

    /// 130 samples take three 64-row passes, and the moments are the
    /// exact ones: chunking moves nothing.
    #[test]
    fn batching_does_not_change_moments() {
        let mut net = identity_net();
        let xs: Vec<Tensor> = (0..130)
            .map(|i| Tensor::from_vec(vec![2], vec![i as f32, -(i as f32)]))
            .collect();
        net.reset_forward_passes();
        let (mean, var) = activation_moments(&mut net, 0, &xs);
        assert_eq!(net.forward_passes(), 3);
        // 0..130 has mean 64.5 and population variance (130² − 1) / 12.
        assert_eq!(mean, vec![64.5, -64.5]);
        assert_eq!(var, vec![1408.25, 1408.25]);
    }

    #[test]
    fn relu_layer_moments_are_nonnegative() {
        let mut net = identity_net();
        let xs = vec![
            Tensor::from_vec(vec![2], vec![-5.0, 1.0]),
            Tensor::from_vec(vec![2], vec![-3.0, 2.0]),
        ];
        let (mean, var) = activation_moments(&mut net, 1, &xs);
        assert_eq!(mean[0], 0.0, "ReLU clamps the negative neuron");
        assert_eq!(var[0], 0.0);
        assert!(mean[1] > 0.0 && var[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_samples_panic() {
        let mut net = identity_net();
        let _ = activation_moments(&mut net, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "layer out of range")]
    fn bad_layer_panics() {
        let mut net = identity_net();
        let xs = vec![Tensor::zeros(vec![2])];
        let _ = activation_moments(&mut net, 5, &xs);
    }
}
