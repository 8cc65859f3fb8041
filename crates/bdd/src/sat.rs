//! Satisfying-assignment counting and enumeration.

use crate::fxhash::HashMap;
use crate::manager::{Bdd, NodeId};

impl Bdd {
    /// Number of satisfying assignments (patterns in the stored set),
    /// computed exactly over the full variable set and returned as `f64`
    /// because counts reach `2^d` for monitored layers of width `d`.
    ///
    /// Overflows to `f64::INFINITY` beyond roughly 1023 variables; use
    /// [`Bdd::sat_fraction`] when a normalized measure is needed at any
    /// width.
    pub fn sat_count(&self, f: NodeId) -> f64 {
        // Fraction-of-space semantics keeps skipped levels trivial, then
        // scale by 2^num_vars at the end.
        self.sat_fraction(f) * (2f64).powi(self.num_vars as i32)
    }

    /// Fraction of the full assignment space `{0,1}^d` satisfying `f`,
    /// in `[0, 1]`.
    ///
    /// Unlike [`Bdd::sat_count`] this never overflows: each level halves
    /// the weight instead of doubling a count, so the result is finite
    /// (and exact up to `f64` rounding) for any variable count — including
    /// `d = 0`, where the constant `ONE` yields `1.0` (the empty pattern
    /// is the whole space) and `ZERO` yields `0.0`.
    pub fn sat_fraction(&self, f: NodeId) -> f64 {
        let mut memo: HashMap<NodeId, f64> = HashMap::default();
        self.sat_frac(f, &mut memo)
    }

    fn sat_frac(&self, f: NodeId, memo: &mut HashMap<NodeId, f64>) -> f64 {
        if f == NodeId::ZERO {
            return 0.0;
        }
        if f == NodeId::ONE {
            return 1.0;
        }
        if let Some(&v) = memo.get(&f) {
            return v;
        }
        let node = self.nodes[f.index()];
        let v = 0.5 * self.sat_frac(node.low, memo) + 0.5 * self.sat_frac(node.high, memo);
        memo.insert(f, v);
        v
    }

    /// One satisfying assignment, or `None` when `f` is the empty set.
    ///
    /// Unconstrained variables are reported as `false`.
    pub fn first_sat(&self, f: NodeId) -> Option<Vec<bool>> {
        if f == NodeId::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars];
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.nodes[cur.index()];
            if node.low != NodeId::ZERO {
                assignment[node.var as usize] = false;
                cur = node.low;
            } else {
                assignment[node.var as usize] = true;
                cur = node.high;
            }
        }
        debug_assert_eq!(cur, NodeId::ONE);
        Some(assignment)
    }

    /// Iterator over all satisfying assignments of `f`.
    ///
    /// Enumerates full assignments (free variables expanded both ways), so
    /// the iterator yields exactly [`Bdd::sat_count`] items; use it only on
    /// sets known to be small (tests, diagnostics, the exact-set ablation).
    pub fn sat_iter(&self, f: NodeId) -> SatIter<'_> {
        let mut it = SatIter {
            bdd: self,
            stack: Vec::new(),
        };
        if f != NodeId::ZERO {
            it.stack.push((f, 0, vec![false; self.num_vars]));
        }
        it
    }
}

/// Iterator over satisfying assignments produced by [`Bdd::sat_iter`].
#[derive(Debug)]
pub struct SatIter<'a> {
    bdd: &'a Bdd,
    /// (node, next level to decide, partial assignment).
    stack: Vec<(NodeId, u32, Vec<bool>)>,
}

impl Iterator for SatIter<'_> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, level, assignment)) = self.stack.pop() {
            if level as usize == self.bdd.num_vars {
                debug_assert_eq!(node, NodeId::ONE);
                return Some(assignment);
            }
            let node_level = self.bdd.level(node);
            if node_level > level {
                // Free variable at `level`: branch both ways.
                let mut with_true = assignment.clone();
                with_true[level as usize] = true;
                self.stack.push((node, level + 1, with_true));
                let mut with_false = assignment;
                with_false[level as usize] = false;
                self.stack.push((node, level + 1, with_false));
            } else {
                let n = self.bdd.nodes[node.index()];
                if n.high != NodeId::ZERO {
                    let mut with_true = assignment.clone();
                    with_true[level as usize] = true;
                    self.stack.push((n.high, level + 1, with_true));
                }
                if n.low != NodeId::ZERO {
                    let mut with_false = assignment;
                    with_false[level as usize] = false;
                    self.stack.push((n.low, level + 1, with_false));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::Bdd;
    use std::collections::BTreeSet;

    #[test]
    fn sat_count_terminals() {
        let bdd = Bdd::new(4);
        assert_eq!(bdd.sat_count(bdd.zero()), 0.0);
        assert_eq!(bdd.sat_count(bdd.one()), 16.0);
    }

    #[test]
    fn sat_fraction_is_finite_at_any_width() {
        // 1200 variables: sat_count overflows to infinity, the fraction
        // must not.
        let mut bdd = Bdd::new(1200);
        assert_eq!(bdd.sat_fraction(bdd.one()), 1.0);
        assert_eq!(bdd.sat_fraction(bdd.zero()), 0.0);
        let f = bdd.var(17);
        assert_eq!(bdd.sat_fraction(f), 0.5);
        assert!(bdd.sat_count(bdd.one()).is_infinite());
    }

    #[test]
    fn sat_fraction_of_zero_width_space() {
        let bdd = Bdd::new(0);
        assert_eq!(bdd.sat_fraction(bdd.one()), 1.0);
        assert_eq!(bdd.sat_fraction(bdd.zero()), 0.0);
    }

    #[test]
    fn sat_count_single_cube_is_one() {
        let mut bdd = Bdd::new(6);
        let f = bdd.cube_from_bools(&[true, false, true, false, false, true]);
        assert_eq!(bdd.sat_count(f), 1.0);
    }

    #[test]
    fn sat_count_var_is_half_space() {
        let mut bdd = Bdd::new(5);
        let f = bdd.var(2);
        assert_eq!(bdd.sat_count(f), 16.0);
    }

    #[test]
    fn sat_count_union_of_disjoint_cubes_adds() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, true, false, false]);
        let q = bdd.cube_from_bools(&[false, false, true, true]);
        let f = bdd.or(p, q);
        assert_eq!(bdd.sat_count(f), 2.0);
    }

    #[test]
    fn first_sat_is_satisfying() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[false, true, false, true]);
        let q = bdd.cube_from_bools(&[true, true, true, true]);
        let f = bdd.or(p, q);
        let a = bdd.first_sat(f).expect("nonempty");
        assert!(bdd.eval(f, &a));
        assert_eq!(bdd.first_sat(bdd.zero()), None);
    }

    #[test]
    fn sat_iter_enumerates_exactly_the_set() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, false, false, false]);
        let q = bdd.cube_from_bools(&[false, true, false, true]);
        let r = bdd.cube_from_bools(&[true, true, true, true]);
        let pq = bdd.or(p, q);
        let f = bdd.or(pq, r);
        let got: BTreeSet<Vec<bool>> = bdd.sat_iter(f).collect();
        let expect: BTreeSet<Vec<bool>> = [
            vec![true, false, false, false],
            vec![false, true, false, true],
            vec![true, true, true, true],
        ]
        .into_iter()
        .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sat_iter_expands_free_variables() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(1); // x1, free x0 and x2 -> 4 assignments
        let got: Vec<Vec<bool>> = bdd.sat_iter(f).collect();
        assert_eq!(got.len(), 4);
        for a in &got {
            assert!(a[1]);
        }
    }

    #[test]
    fn sat_iter_count_matches_sat_count_after_dilation() {
        let mut bdd = Bdd::new(6);
        let f = bdd.cube_from_bools(&[true, false, true, false, true, false]);
        let z = bdd.dilate(f, 2);
        let enumerated = bdd.sat_iter(z).count();
        assert_eq!(enumerated as f64, bdd.sat_count(z));
        // |ball(radius 2)| over 6 bits = 1 + 6 + 15 = 22
        assert_eq!(enumerated, 22);
    }

    #[test]
    fn sat_iter_of_empty_set_is_empty() {
        let bdd = Bdd::new(3);
        assert_eq!(bdd.sat_iter(bdd.zero()).count(), 0);
    }
}
