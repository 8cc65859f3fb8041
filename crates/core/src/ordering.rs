//! The static variable order of BDD-backed comfort zones.
//!
//! The size of a comfort-zone BDD depends on the order in which the
//! monitored neurons are tested; neuron index is an arbitrary one.
//! [`order_by_bias`] places the most *biased* neurons (activation
//! frequency far from ½ over the recorded patterns) first: near-constant
//! bits at the top of the diagram funnel most paths through a few nodes.
//!
//! [`crate::BddZone`] fixes each class's order this way, over the class's
//! distinct seed patterns, when it seals its insert buffer, and builds the
//! zone in it from the start.  On the digits MLP of the benchmark's
//! `build_digits` workload (fc(80), γ = 2) this cuts the ten zones from
//! 38,948 nodes in neuron order to 7,194; the pattern sets, and so
//! every verdict, are unchanged.

use crate::pattern::Pattern;
use std::borrow::Borrow;

/// The variable order by activation bias, most biased neuron first:
/// `order[level]` is the neuron a diagram tests at `level` (the
/// convention of [`naps_bdd::Bdd::with_order`]).
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
/// // Neuron 1 is constant (bias ½) and is tested first; neurons 0 and 2
/// // are fifty-fifty (bias 0) and keep their relative order.
/// assert_eq!(order_by_bias(&pats), vec![1, 0, 2]);
/// ```
pub fn order_by_bias<P: Borrow<Pattern>>(patterns: &[P]) -> Vec<u32> {
    assert!(!patterns.is_empty(), "need at least one pattern");
    let width = patterns[0].borrow().len();
    let mut ones = vec![0usize; width];
    for p in patterns {
        let p = p.borrow();
        assert_eq!(p.len(), width, "pattern widths differ");
        for (i, count) in ones.iter_mut().enumerate() {
            if p.get(i) {
                *count += 1;
            }
        }
    }
    let n = patterns.len() as f64;
    let bias = |i: u32| (ones[i as usize] as f64 / n - 0.5).abs();
    let mut order: Vec<u32> = (0..width as u32).collect();
    // Descending bias, ties by index; `total_cmp` is a total order.
    order.sort_by(|&a, &b| bias(b).total_cmp(&bias(a)).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Neurons 0 (always 1) and 3 (always 0) have maximal bias and
        // take the first two levels, in index order; 1 and 2 follow.
        assert_eq!(order_by_bias(&pats), vec![0, 3, 1, 2]);
    }

    #[test]
    fn outputs_are_permutations() {
        let pats = [p(&[1, 0, 1]), p(&[0, 0, 1])];
        let order = order_by_bias(&pats);
        let mut seen = vec![false; order.len()];
        for &q in &order {
            assert!(!seen[q as usize], "duplicate neuron {q}");
            seen[q as usize] = true;
        }
    }

    #[test]
    fn borrowed_patterns_give_the_same_order() {
        let pats = [p(&[1, 0, 1, 1]), p(&[0, 0, 1, 0]), p(&[1, 0, 0, 0])];
        let refs: Vec<&Pattern> = pats.iter().collect();
        assert_eq!(order_by_bias(&refs), order_by_bias(&pats));
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_pattern_set_is_rejected() {
        let _ = order_by_bias::<Pattern>(&[]);
    }
}
