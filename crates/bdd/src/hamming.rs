//! Hamming-ball dilation and minimum-distance queries.
//!
//! These are the operations that turn a set of visited activation patterns
//! into the paper's γ-comfort zone (Definition 2) and that let a monitor
//! report *how far* an unseen pattern is from the zone.

use crate::manager::{Bdd, NodeId};
use std::collections::HashMap;

impl Bdd {
    /// Enlarges a pattern set by all patterns at Hamming distance ≤ `gamma`:
    /// the construction of `Z^γ_c` from `Z^0_c` in Definition 2 of the
    /// paper.
    ///
    /// Algorithm 1 (lines 9–14) states this as `gamma` rounds of
    /// `∨_j ∃x_j . f`.  This computes the same set in one memoised pass
    /// over `(node, k)`, where `ball(f, k)` is the radius-`k` ball around
    /// `f`.  Terminals and `k = 0` are their own ball; at a node testing
    /// `v` with children `lo`/`hi`, an assignment is within `k` of the
    /// set either through the branch its `v` agrees with, at radius `k`,
    /// or through the other branch by spending one flip on `v`:
    ///
    /// ```text
    /// ball(f, k) = node(v, ball(lo, k) ∨ ball(hi, k−1),
    ///                      ball(hi, k) ∨ ball(lo, k−1))
    /// ```
    ///
    /// Variables the diagram skips need no case: neither `f` nor its ball
    /// depends on them.  Diagrams are canonical, so the result is the
    /// same node the quantify-and-union formulation produces.  `gamma` is
    /// clamped to the variable count, beyond which the ball cannot grow.
    pub fn dilate(&mut self, f: NodeId, gamma: u32) -> NodeId {
        let k = gamma.min(self.num_vars as u32);
        let mut memo = HashMap::new();
        self.ball_rec(f, k, &mut memo)
    }

    /// `ball(f, k)` of [`Bdd::dilate`], memoised per `(node, k)`.
    fn ball_rec(&mut self, f: NodeId, k: u32, memo: &mut HashMap<(NodeId, u32), NodeId>) -> NodeId {
        if k == 0 || f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&(f, k)) {
            return r;
        }
        let node = self.nodes[f.index()];
        let lo = self.ball_rec(node.low, k, memo);
        let hi = self.ball_rec(node.high, k, memo);
        let lo_flipped = self.ball_rec(node.high, k - 1, memo);
        let hi_flipped = self.ball_rec(node.low, k - 1, memo);
        let low = self.or(lo, lo_flipped);
        let high = self.or(hi, hi_flipped);
        let r = self.mk_node(node.var, low, high);
        memo.insert((f, k), r);
        r
    }

    /// Minimum Hamming distance from `pattern` to any satisfying assignment
    /// of `f`, or `None` if `f` is unsatisfiable.
    ///
    /// Runs in time linear in the number of nodes of `f` via memoised
    /// shortest-path recursion: at a node testing variable `v`, following the
    /// branch that agrees with `pattern[v]` costs 0 and the disagreeing
    /// branch costs 1; variables skipped by the diagram cost 0 because the
    /// function does not depend on them.
    ///
    /// The monitor uses this to report *how far outside* the comfort zone an
    /// input fell, a refinement of the binary verdict discussed around
    /// Figure 2 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != num_vars`.
    pub fn min_hamming_distance(&self, f: NodeId, pattern: &[bool]) -> Option<u32> {
        assert_eq!(
            pattern.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        let mut memo: HashMap<NodeId, Option<u32>> = HashMap::new();
        self.min_dist_rec(f, pattern, &mut memo)
    }

    fn min_dist_rec(
        &self,
        f: NodeId,
        pattern: &[bool],
        memo: &mut HashMap<NodeId, Option<u32>>,
    ) -> Option<u32> {
        if f == NodeId::ONE {
            return Some(0);
        }
        if f == NodeId::ZERO {
            return None;
        }
        if let Some(&d) = memo.get(&f) {
            return d;
        }
        let node = self.nodes[f.index()];
        let bit = pattern[node.var as usize];
        let agree = if bit { node.high } else { node.low };
        let disagree = if bit { node.low } else { node.high };
        let d_agree = self.min_dist_rec(agree, pattern, memo);
        let d_disagree = self
            .min_dist_rec(disagree, pattern, memo)
            .map(|d| d.saturating_add(1));
        let d = match (d_agree, d_disagree) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        memo.insert(f, d);
        d
    }

    /// Budget-bounded [`Bdd::min_hamming_distance`]: the minimum Hamming
    /// distance from `pattern` to any satisfying assignment of `f`, but
    /// only if that distance is at most `budget` — `None` otherwise
    /// (which conflates "unsatisfiable" with "further than the budget";
    /// callers that must distinguish ask the unbounded query).
    ///
    /// Two early exits keep the common cases cheap: a pattern **inside**
    /// the set is answered by a single root-to-terminal [`Bdd::eval`]
    /// walk (distance 0, no DP at all), and during the search any branch
    /// whose accumulated flips exceed `budget` is pruned rather than
    /// expanded — a pattern far from the whole set exhausts the budget
    /// near the root and returns `None` without sweeping the diagram.
    /// Memoisation is per `(node, remaining budget)`, so the worst case
    /// is `O(nodes × budget)`; for the small budgets the graded monitor
    /// uses (≤ γ + 2) the pruned frontier is typically a small fraction
    /// of the diagram.
    ///
    /// Agrees with [`Bdd::min_hamming_distance`] whenever the true
    /// distance is within `budget` (pinned by property tests).
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != num_vars`.
    pub fn min_hamming_distance_within(
        &self,
        f: NodeId,
        pattern: &[bool],
        budget: u32,
    ) -> Option<u32> {
        assert_eq!(
            pattern.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        if self.eval(f, pattern) {
            return Some(0);
        }
        if f == NodeId::ZERO {
            return None;
        }
        let mut memo: HashMap<(NodeId, u32), Option<u32>> = HashMap::new();
        self.bounded_dist_rec(f, pattern, budget, &mut memo)
    }

    /// Minimum flips to reach `ONE` from `f`, provided it is ≤ `slack`.
    fn bounded_dist_rec(
        &self,
        f: NodeId,
        pattern: &[bool],
        slack: u32,
        memo: &mut HashMap<(NodeId, u32), Option<u32>>,
    ) -> Option<u32> {
        if f == NodeId::ONE {
            return Some(0);
        }
        if f == NodeId::ZERO {
            return None;
        }
        if let Some(&d) = memo.get(&(f, slack)) {
            return d;
        }
        let node = self.nodes[f.index()];
        let bit = pattern[node.var as usize];
        let agree = if bit { node.high } else { node.low };
        let disagree = if bit { node.low } else { node.high };
        let d_agree = self.bounded_dist_rec(agree, pattern, slack, memo);
        // The disagreeing branch costs one flip; prune it outright when
        // the budget is spent instead of recursing.
        let d_disagree = if slack == 0 {
            None
        } else {
            self.bounded_dist_rec(disagree, pattern, slack - 1, memo)
                .map(|d| d + 1)
        };
        let d = match (d_agree, d_disagree) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        memo.insert((f, slack), d);
        d
    }
}

#[cfg(test)]
mod tests {
    use crate::Bdd;

    fn ball_brute_force(seed: &[bool], gamma: u32) -> Vec<Vec<bool>> {
        let n = seed.len();
        (0..(1usize << n))
            .map(|m| (0..n).map(|i| (m >> i) & 1 == 1).collect::<Vec<bool>>())
            .filter(|p| {
                let d: u32 = p.iter().zip(seed).map(|(a, b)| u32::from(a != b)).sum();
                d <= gamma
            })
            .collect()
    }

    #[test]
    fn dilate_once_is_radius_one_ball() {
        let mut bdd = Bdd::new(5);
        let seed = [true, false, true, true, false];
        let f = bdd.cube_from_bools(&seed);
        let z1 = bdd.dilate(f, 1);
        for m in 0..32usize {
            let p: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let dist: u32 = p.iter().zip(&seed).map(|(a, b)| u32::from(a != b)).sum();
            assert_eq!(bdd.eval(z1, &p), dist <= 1, "pattern {p:?}");
        }
    }

    #[test]
    fn dilate_gamma_matches_brute_force_ball() {
        let mut bdd = Bdd::new(6);
        let seed = [false, true, true, false, false, true];
        let f = bdd.cube_from_bools(&seed);
        for gamma in 0..4 {
            let z = bdd.dilate(f, gamma);
            let ball = ball_brute_force(&seed, gamma);
            let count = bdd.sat_count(z);
            assert_eq!(count, ball.len() as f64, "gamma={gamma}");
            for p in &ball {
                assert!(bdd.eval(z, p));
            }
        }
    }

    #[test]
    fn dilation_is_monotone() {
        let mut bdd = Bdd::new(6);
        let p = bdd.cube_from_bools(&[true, true, false, false, true, false]);
        let q = bdd.cube_from_bools(&[false, false, false, true, true, true]);
        let f = bdd.or(p, q);
        let mut prev = f;
        for _ in 0..4 {
            let next = bdd.dilate(prev, 1);
            assert!(bdd.implies(prev, next), "Z^g must be a subset of Z^g+1");
            prev = next;
        }
    }

    #[test]
    fn dilation_saturates_to_full_space() {
        let mut bdd = Bdd::new(4);
        let f = bdd.cube_from_bools(&[true, true, true, true]);
        let z = bdd.dilate(f, 4);
        assert_eq!(z, bdd.one());
        // Asking for more than num_vars steps hits the fixpoint early.
        let z2 = bdd.dilate(f, 100);
        assert_eq!(z2, bdd.one());
    }

    #[test]
    fn dilate_zero_steps_is_identity() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_bools(&[true, false, false]);
        assert_eq!(bdd.dilate(f, 0), f);
    }

    #[test]
    fn min_distance_zero_inside() {
        let mut bdd = Bdd::new(4);
        let f = bdd.cube_from_bools(&[true, false, true, false]);
        assert_eq!(
            bdd.min_hamming_distance(f, &[true, false, true, false]),
            Some(0)
        );
    }

    #[test]
    fn min_distance_counts_flips() {
        let mut bdd = Bdd::new(4);
        let f = bdd.cube_from_bools(&[true, false, true, false]);
        assert_eq!(
            bdd.min_hamming_distance(f, &[false, false, true, true]),
            Some(2)
        );
        assert_eq!(
            bdd.min_hamming_distance(f, &[false, true, false, true]),
            Some(4)
        );
    }

    #[test]
    fn min_distance_of_empty_set_is_none() {
        let bdd = Bdd::new(3);
        assert_eq!(bdd.min_hamming_distance(bdd.zero(), &[true; 3]), None);
    }

    #[test]
    fn min_distance_over_union_takes_minimum() {
        let mut bdd = Bdd::new(5);
        let p = bdd.cube_from_bools(&[true; 5]);
        let q = bdd.cube_from_bools(&[false; 5]);
        let f = bdd.or(p, q);
        // One bit away from all-false, four away from all-true.
        assert_eq!(
            bdd.min_hamming_distance(f, &[true, false, false, false, false]),
            Some(1)
        );
    }

    #[test]
    fn bounded_distance_matches_unbounded_within_budget() {
        let mut bdd = Bdd::new(5);
        let p = bdd.cube_from_bools(&[true; 5]);
        let q = bdd.cube_from_bools(&[false; 5]);
        let f = bdd.or(p, q);
        for m in 0..32usize {
            let probe: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let exact = bdd.min_hamming_distance(f, &probe);
            for budget in 0..=5u32 {
                let bounded = bdd.min_hamming_distance_within(f, &probe, budget);
                let expected = exact.filter(|&d| d <= budget);
                assert_eq!(bounded, expected, "probe {probe:?} budget {budget}");
            }
        }
    }

    #[test]
    fn bounded_distance_of_empty_set_is_none() {
        let bdd = Bdd::new(4);
        assert_eq!(
            bdd.min_hamming_distance_within(bdd.zero(), &[true; 4], 4),
            None
        );
        assert_eq!(
            bdd.min_hamming_distance_within(bdd.one(), &[true; 4], 0),
            Some(0)
        );
    }

    #[test]
    fn bounded_distance_zero_budget_is_membership() {
        let mut bdd = Bdd::new(4);
        let f = bdd.cube_from_bools(&[true, false, true, false]);
        assert_eq!(
            bdd.min_hamming_distance_within(f, &[true, false, true, false], 0),
            Some(0)
        );
        assert_eq!(
            bdd.min_hamming_distance_within(f, &[false, false, true, false], 0),
            None
        );
    }

    #[test]
    fn min_distance_agrees_with_dilation_membership() {
        let mut bdd = Bdd::new(6);
        let p = bdd.cube_from_bools(&[true, false, true, false, true, false]);
        let q = bdd.cube_from_bools(&[false, false, false, true, true, true]);
        let f = bdd.or(p, q);
        let probe = [true, true, true, true, true, true];
        let d = bdd.min_hamming_distance(f, &probe).unwrap();
        // probe is a member of the dilated set exactly from radius d onward.
        for gamma in 0..6 {
            let z = bdd.dilate(f, gamma);
            assert_eq!(bdd.eval(z, &probe), gamma >= d, "gamma={gamma} d={d}");
        }
    }
}
