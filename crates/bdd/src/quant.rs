//! Existential quantification and the support of a function.

use crate::manager::{Bdd, NodeId, VarId};

impl Bdd {
    /// Existential quantification `∃ var . f` — the `bdd.exists` primitive
    /// of Algorithm 1, line 12.
    ///
    /// The result contains every assignment that can be completed to a
    /// satisfying assignment of `f` by choosing either value for `var`;
    /// consequently `f ⇒ ∃var.f`, which is what makes the union of
    /// per-variable quantifications a Hamming-distance-1 enlargement.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn exists(&mut self, f: NodeId, var: VarId) -> NodeId {
        assert!(
            (var as usize) < self.num_vars,
            "variable {var} out of range"
        );
        let level = self.level_of[var as usize];
        self.exists_rec(f, level)
    }

    fn exists_rec(&mut self, f: NodeId, level: u32) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        let node = self.nodes[f.index()];
        if node.level > level {
            // The level does not occur below this node (ordering).
            return f;
        }
        if node.level == level {
            return self.or(node.low, node.high);
        }
        if let Some(&r) = self.quant_cache.get(&(f, level)) {
            return r;
        }
        let low = self.exists_rec(node.low, level);
        let high = self.exists_rec(node.high, level);
        let r = self.mk_node(node.level, low, high);
        self.quant_cache.insert((f, level), r);
        r
    }

    /// Support of `f`: the sorted list of variables the function depends on.
    pub fn support(&self, f: NodeId) -> Vec<VarId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut in_support = vec![false; self.num_vars];
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            let nd = &self.nodes[n.index()];
            in_support[self.order[nd.level as usize] as usize] = true;
            stack.push(nd.low);
            stack.push(nd.high);
        }
        in_support
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as VarId))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Bdd;

    #[test]
    fn exists_on_paper_example() {
        // Paper, Section II: Z0 = {001}; exists over variable j yields
        // {-01}, {0-1}, {00-} respectively.
        let mut bdd = Bdd::new(3);
        let z0 = bdd.cube_from_bools(&[false, false, true]);

        let e0 = bdd.exists(z0, 0);
        assert!(bdd.eval(e0, &[false, false, true]));
        assert!(bdd.eval(e0, &[true, false, true]));
        assert!(!bdd.eval(e0, &[false, true, true]));

        let e1 = bdd.exists(z0, 1);
        assert!(bdd.eval(e1, &[false, true, true]));
        assert!(!bdd.eval(e1, &[true, false, true]));

        let e2 = bdd.exists(z0, 2);
        assert!(bdd.eval(e2, &[false, false, false]));
        assert!(!bdd.eval(e2, &[false, true, false]));
    }

    #[test]
    fn exists_is_weakening() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, true, false, true]);
        let q = bdd.cube_from_bools(&[false, true, false, false]);
        let f = bdd.or(p, q);
        for v in 0..4 {
            let e = bdd.exists(f, v);
            assert!(bdd.implies(f, e), "f must imply exists(f, {v})");
        }
    }

    #[test]
    fn exists_is_idempotent_per_variable() {
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let f = bdd.and(x0, x1);
        let e = bdd.exists(f, 0);
        let ee = bdd.exists(e, 0);
        assert_eq!(e, ee);
    }

    #[test]
    fn exists_commutes() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, false, true, false]);
        let q = bdd.cube_from_bools(&[false, true, true, true]);
        let f = bdd.or(p, q);
        let a = bdd.exists(f, 1);
        let ab = bdd.exists(a, 3);
        let b = bdd.exists(f, 3);
        let ba = bdd.exists(b, 1);
        assert_eq!(ab, ba);
    }

    #[test]
    fn support_lists_dependent_vars() {
        let mut bdd = Bdd::new(5);
        let x1 = bdd.var(1);
        let x4 = bdd.var(4);
        let f = bdd.xor(x1, x4);
        assert_eq!(bdd.support(f), vec![1, 4]);
        assert!(bdd.support(bdd.one()).is_empty());
    }

    #[test]
    fn exists_removes_from_support() {
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let f = bdd.and(x0, x1);
        let e = bdd.exists(f, 1);
        assert_eq!(bdd.support(e), vec![0]);
    }
}
