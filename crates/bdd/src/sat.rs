//! Satisfying-assignment counting.

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
}

#[cfg(test)]
mod tests {
    use crate::Bdd;

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
}
