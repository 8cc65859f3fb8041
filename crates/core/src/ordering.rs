//! A static variable-ordering heuristic for BDD-backed zones.
//!
//! The size of a comfort-zone BDD depends on the order in which the
//! monitored neurons are tested; the default — neuron index — is
//! arbitrary.  [`order_by_bias`] places the most *biased* neurons
//! (activation frequency far from ½ over the recorded patterns) first:
//! near-constant bits at the top of the diagram funnel most paths
//! through a few nodes.
//!
//! It returns `perm` with `perm[neuron] = position`, the convention of
//! [`naps_bdd::Bdd::permute`]; [`crate::BddZone::node_count_under`]
//! measures the effect without committing to it.

use crate::pattern::Pattern;

/// Permutation ordering neurons by activation bias, most biased first.
///
/// The bias of neuron `i` is `|freq_i − ½|` where `freq_i` is the
/// fraction of `patterns` with bit `i` set.  Ties break by neuron index,
/// so the result is deterministic.
///
/// # Panics
///
/// Panics if `patterns` is empty or widths are inconsistent.
///
/// # Example
///
/// ```
/// use naps_core::{order_by_bias, Pattern};
///
/// let pats = [
///     Pattern::from_bools(&[true, true, false]),
///     Pattern::from_bools(&[false, true, true]),
/// ];
/// // Neuron 1 is constant (bias ½) and is placed first; neurons 0 and 2
/// // are fifty-fifty (bias 0) and keep their relative order.
/// assert_eq!(order_by_bias(&pats), vec![1, 0, 2]);
/// ```
pub fn order_by_bias(patterns: &[Pattern]) -> Vec<u32> {
    assert!(!patterns.is_empty(), "need at least one pattern");
    let width = patterns[0].len();
    let mut ones = vec![0usize; width];
    for p in patterns {
        assert_eq!(p.len(), width, "pattern widths differ");
        for (i, count) in ones.iter_mut().enumerate() {
            if p.get(i) {
                *count += 1;
            }
        }
    }
    let n = patterns.len() as f64;
    let bias = |i: usize| (ones[i] as f64 / n - 0.5).abs();
    let mut idx: Vec<usize> = (0..width).collect();
    // Descending bias, ties by index; `total_cmp` is a total order.
    idx.sort_by(|&a, &b| bias(b).total_cmp(&bias(a)).then(a.cmp(&b)));
    let mut perm = vec![0u32; width];
    for (pos, &neuron) in idx.iter().enumerate() {
        perm[neuron] = pos as u32;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{BddZone, Zone};

    fn p(bits: &[u8]) -> Pattern {
        Pattern::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    #[test]
    fn bias_puts_constant_bits_first() {
        let pats = [
            p(&[1, 0, 1, 0]),
            p(&[1, 1, 0, 0]),
            p(&[1, 0, 1, 0]),
            p(&[1, 1, 0, 0]),
        ];
        let perm = order_by_bias(&pats);
        // Neurons 0 (always 1) and 3 (always 0) have maximal bias and
        // take the first two positions, in index order.
        assert_eq!(perm[0], 0);
        assert_eq!(perm[3], 1);
        assert_eq!(perm[1], 2);
        assert_eq!(perm[2], 3);
    }

    #[test]
    fn outputs_are_permutations() {
        let pats = [p(&[1, 0, 1]), p(&[0, 0, 1])];
        let perm = order_by_bias(&pats);
        let mut seen = vec![false; perm.len()];
        for &q in &perm {
            assert!(!seen[q as usize], "duplicate position {q}");
            seen[q as usize] = true;
        }
    }

    #[test]
    fn node_count_under_bias_order_never_wildly_worse() {
        // Patterns with two constant bits: the bias order groups them at
        // the top; the zone size under that order must not exceed the
        // identity-order size by more than the general reordering bound.
        let seeds: Vec<Pattern> = (0..8u32)
            .map(|i| {
                p(&[
                    1,
                    (i & 1) as u8,
                    ((i >> 1) & 1) as u8,
                    0,
                    ((i >> 2) & 1) as u8,
                ])
            })
            .collect();
        let mut zone = BddZone::empty(5);
        for s in &seeds {
            zone.insert(s);
        }
        let identity = zone.node_count();
        let biased = zone.node_count_under(&order_by_bias(&seeds));
        assert!(biased > 0);
        // Identity order already lists the constant bits early here, so
        // just sanity-check the measurement is in a plausible band.
        assert!(
            biased <= identity * 2 + 2,
            "biased {biased} vs identity {identity}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_pattern_set_is_rejected() {
        let _ = order_by_bias(&[]);
    }
}
