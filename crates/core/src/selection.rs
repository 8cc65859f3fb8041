//! Monitored-neuron selection (Section II, "neuron selection via gradient
//! analysis").
//!
//! BDDs have a practical variable budget of a few hundred, so wide layers
//! are monitored only on the neurons whose gradient `|∂n_c/∂n_i|` toward
//! the decision output is large; unmonitored neurons may take arbitrary
//! values in the abstraction.

use crate::pattern::Pattern;
use serde::{Deserialize, Serialize};

/// The subset of a layer's neurons a monitor watches.
///
/// Indices are kept sorted and deduplicated; pattern bit `j` corresponds to
/// layer neuron `indices[j]`.
///
/// # Example
///
/// ```
/// use naps_core::NeuronSelection;
///
/// // Monitor the top 25% most salient of 8 neurons (paper: 25% of 84).
/// let saliency = [0.1, 5.0, 0.2, 3.0, 0.0, 0.0, 1.0, 0.4];
/// let sel = NeuronSelection::top_fraction_by_saliency(&saliency, 0.25);
/// assert_eq!(sel.indices(), &[1, 3]);
/// let p = sel.pattern_from(&[0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(p.to_string(), "10");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuronSelection {
    indices: Vec<usize>,
    layer_width: usize,
}

impl NeuronSelection {
    /// Monitors every neuron of a `width`-neuron layer.
    pub fn all(width: usize) -> Self {
        NeuronSelection {
            indices: (0..width).collect(),
            layer_width: width,
        }
    }

    /// Monitors an explicit neuron subset of a `layer_width`-neuron layer.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is `>= layer_width`.
    pub fn from_indices(mut indices: Vec<usize>, layer_width: usize) -> Self {
        assert!(
            !indices.is_empty(),
            "selection must monitor at least one neuron"
        );
        indices.sort_unstable();
        indices.dedup();
        assert!(
            indices.last().is_none_or(|&i| i < layer_width),
            "neuron index out of range for layer width {layer_width}"
        );
        NeuronSelection {
            indices,
            layer_width,
        }
    }

    /// Monitors the top `fraction` of neurons ranked by `saliency`
    /// (`|∂n_c/∂n_i|` from [`naps_nn::saliency_from_output_weights`] or
    /// [`naps_nn::saliency_by_backward`]).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `saliency` is empty.
    pub fn top_fraction_by_saliency(saliency: &[f32], fraction: f64) -> Self {
        let indices = naps_nn::top_k_fraction(saliency, fraction);
        NeuronSelection {
            indices,
            layer_width: saliency.len(),
        }
    }

    /// Monitors the top `fraction` of neurons ranked by an arbitrary
    /// per-neuron score — e.g. activation variance over the training set,
    /// the alternative selection rule the `selection` ablation
    /// compares against gradient saliency.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `scores` is empty.
    pub fn top_fraction_by_score(scores: &[f32], fraction: f64) -> Self {
        let indices = naps_nn::top_k_fraction(scores, fraction);
        NeuronSelection {
            indices,
            layer_width: scores.len(),
        }
    }

    /// Monitors a uniformly random `fraction` of a `width`-neuron layer —
    /// the no-information baseline for selection ablations.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `width` is zero.
    pub fn random_fraction(width: usize, fraction: f64, rng: &mut impl rand::Rng) -> Self {
        assert!(width > 0, "layer width must be positive");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        use rand::seq::SliceRandom;
        let k = ((width as f64 * fraction).round() as usize).clamp(1, width);
        let mut all: Vec<usize> = (0..width).collect();
        all.shuffle(rng);
        all.truncate(k);
        NeuronSelection::from_indices(all, width)
    }

    /// The monitored neuron indices, sorted ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of monitored neurons (= pattern width).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `false`: a selection always monitors at least one neuron.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Width of the underlying layer.
    pub fn layer_width(&self) -> usize {
        self.layer_width
    }

    /// Projects raw layer activations onto the monitored subset and
    /// binarises (Definition 1 restricted to the selection).
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != layer_width`.
    pub fn pattern_from(&self, activations: &[f32]) -> Pattern {
        assert_eq!(
            activations.len(),
            self.layer_width,
            "activation width does not match selection's layer width"
        );
        Pattern::from_selected_activations(activations, &self.indices)
    }

    /// Projects raw layer activations onto the monitored subset, keeping
    /// the real values: entry `j` is neuron `indices[j]`'s activation, the
    /// value [`NeuronSelection::pattern_from`] binarises into bit `j`.
    /// The numeric envelopes ([`crate::IntervalZone`], [`crate::DbmZone`])
    /// record and judge these.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != layer_width`.
    pub fn values_from(&self, activations: &[f32]) -> Vec<f32> {
        assert_eq!(
            activations.len(),
            self.layer_width,
            "activation width does not match selection's layer width"
        );
        self.indices.iter().map(|&i| activations[i]).collect()
    }

    /// In-place counterpart of [`NeuronSelection::pattern_from`]: refills
    /// `out` from `activations`, reusing its word buffer when the width
    /// already matches (allocation-free on the steady-state serving path).
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != layer_width`.
    pub fn pattern_into(&self, activations: &[f32], out: &mut Pattern) {
        assert_eq!(
            activations.len(),
            self.layer_width,
            "activation width does not match selection's layer width"
        );
        out.refill_from_selected_activations(activations, &self.indices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_monitors_everything() {
        let s = NeuronSelection::all(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.indices(), &[0, 1, 2, 3]);
        let p = s.pattern_from(&[1.0, -1.0, 0.0, 2.0]);
        assert_eq!(p.to_string(), "1001");
    }

    #[test]
    fn from_indices_sorts_and_dedups() {
        let s = NeuronSelection::from_indices(vec![3, 1, 3], 5);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.layer_width(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = NeuronSelection::from_indices(vec![5], 5);
    }

    #[test]
    #[should_panic(expected = "at least one neuron")]
    fn empty_selection_panics() {
        let _ = NeuronSelection::from_indices(vec![], 5);
    }

    #[test]
    fn quarter_of_84_is_21() {
        // The paper's GTSRB configuration: 25% of 84 neurons.
        let saliency: Vec<f32> = (0..84).map(|i| i as f32).collect();
        let s = NeuronSelection::top_fraction_by_saliency(&saliency, 0.25);
        assert_eq!(s.len(), 21);
        // The most salient are the last 21 indices.
        assert_eq!(s.indices()[0], 63);
    }

    #[test]
    fn score_selection_matches_saliency_ranking() {
        let scores: Vec<f32> = vec![0.1, 5.0, 0.2, 3.0];
        let by_score = NeuronSelection::top_fraction_by_score(&scores, 0.5);
        let by_saliency = NeuronSelection::top_fraction_by_saliency(&scores, 0.5);
        assert_eq!(by_score, by_saliency);
        assert_eq!(by_score.indices(), &[1, 3]);
    }

    #[test]
    fn random_selection_has_requested_size_and_valid_indices() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let s = NeuronSelection::random_fraction(84, 0.25, &mut rng);
        assert_eq!(s.len(), 21);
        assert!(s.indices().iter().all(|&i| i < 84));
        assert_eq!(s.layer_width(), 84);
        // Different draws differ (with overwhelming probability).
        let t = NeuronSelection::random_fraction(84, 0.25, &mut rng);
        assert_ne!(s, t);
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn random_selection_rejects_bad_fraction() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let _ = NeuronSelection::random_fraction(8, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "activation width")]
    fn pattern_from_checks_width() {
        let s = NeuronSelection::all(3);
        let _ = s.pattern_from(&[1.0]);
    }

    #[test]
    fn values_from_keeps_the_values_pattern_from_binarises() {
        let s = NeuronSelection::from_indices(vec![1, 3, 4], 6);
        let acts = [0.5f32, -2.0, 7.0, 3.0, 0.0, -1.0];
        let values = s.values_from(&acts);
        assert_eq!(values, vec![-2.0, 3.0, 0.0]);
        let bits: Vec<bool> = values.iter().map(|&v| v > 0.0).collect();
        assert_eq!(s.pattern_from(&acts), Pattern::from_bools(&bits));
    }

    #[test]
    #[should_panic(expected = "activation width")]
    fn values_from_checks_width() {
        let _ = NeuronSelection::from_indices(vec![0, 2], 4).values_from(&[1.0, 2.0]);
    }

    #[test]
    fn pattern_into_matches_pattern_from() {
        let s = NeuronSelection::from_indices(vec![0, 2, 3], 4);
        let acts = [[1.0f32, -1.0, 0.0, 2.0], [-1.0, 3.0, 1.0, 0.0]];
        // A reused (and initially wrong-width) pattern must converge to
        // the same bits as the allocating path on every refill.
        let mut out = Pattern::zeros(1);
        for a in &acts {
            s.pattern_into(a, &mut out);
            assert_eq!(out, s.pattern_from(a));
        }
    }
}
