//! Moving diagrams between variable orders.
//!
//! BDD size is notoriously sensitive to the variable order.  For
//! activation-pattern monitors the order is a property of each zone's
//! manager ([`Bdd::with_order`]): `naps-core` seals every comfort zone in
//! its own activation-bias order and builds it there from the start, so
//! the serving path never reorders.  [`Bdd::reorder`] re-expresses
//! finished diagrams under another order — the same functions, tested in
//! a different sequence — e.g. to compare a zone with one built in index
//! order, whose canonical form it then reproduces node for node.

use crate::fxhash::HashMap;
use crate::manager::{Bdd, NodeId, VarId};

impl Bdd {
    /// Rebuilds `roots` into a fresh manager whose variable order is
    /// `order` (see [`Bdd::with_order`]).  Every function keeps its
    /// meaning: `old.eval(root, a) == new.eval(root', a)` for every
    /// assignment `a`.
    ///
    /// Each node is rebuilt through `ite` on its variable, which restores
    /// the ordering invariant wherever the new order moves a variable
    /// below its children.  It is a construction-time tool, not a fast
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0 .. num_vars`.
    ///
    /// # Example
    ///
    /// ```
    /// use naps_bdd::{Bdd, BddSnapshot};
    ///
    /// let mut bdd = Bdd::with_order(vec![2, 0, 1]);
    /// let f = bdd.cube_from_bools(&[true, false, true]);
    /// let (fresh, roots) = bdd.reorder(&[f], &[0, 1, 2]);
    /// assert!(fresh.eval(roots[0], &[true, false, true]));
    /// // Canonical: the same set built in index order.
    /// let mut direct = Bdd::new(3);
    /// let g = direct.cube_from_bools(&[true, false, true]);
    /// assert_eq!(
    ///     BddSnapshot::capture(&fresh, roots[0]),
    ///     BddSnapshot::capture(&direct, g)
    /// );
    /// ```
    pub fn reorder(&self, roots: &[NodeId], order: &[VarId]) -> (Bdd, Vec<NodeId>) {
        assert_eq!(order.len(), self.num_vars, "order length mismatch");
        let mut fresh = Bdd::with_order(order.to_vec());
        let mut map: HashMap<NodeId, NodeId> = HashMap::default();
        let new_roots = roots
            .iter()
            .map(|&r| self.reorder_node(r, &mut fresh, &mut map))
            .collect();
        (fresh, new_roots)
    }

    fn reorder_node(
        &self,
        node: NodeId,
        fresh: &mut Bdd,
        map: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if node.is_terminal() {
            return node;
        }
        if let Some(&m) = map.get(&node) {
            return m;
        }
        let n = self.nodes[node.index()];
        let low = self.reorder_node(n.low, fresh, map);
        let high = self.reorder_node(n.high, fresh, map);
        let var = fresh.var(self.order[n.level as usize]);
        let created = fresh.ite(var, high, low);
        map.insert(node, created);
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1usize << n).map(move |m| (0..n).map(|b| (m >> b) & 1 == 1).collect())
    }

    #[test]
    fn reorder_preserves_semantics() {
        let mut bdd = Bdd::new(4);
        // f = (x0 & x1) | (!x2 & x3)
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let nx2 = bdd.nvar(2);
        let x3 = bdd.var(3);
        let l = bdd.and(x0, x1);
        let r = bdd.and(nx2, x3);
        let f = bdd.or(l, r);
        let (fresh, roots) = bdd.reorder(&[f], &[3, 1, 0, 2]);
        assert_eq!(fresh.order(), &[3, 1, 0, 2]);
        for a in assignments(4) {
            assert_eq!(
                bdd.eval(f, &a),
                fresh.eval(roots[0], &a),
                "assignment {a:?}"
            );
        }
    }

    #[test]
    fn identity_permutation_is_a_copy() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(3);
        let f = bdd.xor(a, b);
        let (fresh, roots) = bdd.reorder(&[f], &[0, 1, 2, 3]);
        assert_eq!(
            crate::BddSnapshot::capture(&fresh, roots[0]),
            crate::BddSnapshot::capture(&bdd, f)
        );
    }

    #[test]
    fn permute_reverse_order_of_a_cube_keeps_node_count() {
        let mut bdd = Bdd::new(6);
        let f = bdd.cube_from_bools(&[true, false, true, true, false, true]);
        let order: Vec<VarId> = (0..6).rev().collect();
        let (fresh, roots) = bdd.reorder(&[f], &order);
        // A minterm cube has one node per variable under any order.
        assert_eq!(fresh.node_count(roots[0]), 6);
    }

    #[test]
    fn permute_translates_multiple_roots_with_sharing() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_bools(&[true, true, false]);
        let g = bdd.dilate(f, 1);
        let (mut fresh, roots) = bdd.reorder(&[f, g], &[2, 0, 1]);
        assert!(
            fresh.implies(roots[0], roots[1]),
            "f ⊆ dilate(f) must survive"
        );
    }

    #[test]
    fn reorder_there_and_back_is_the_identity() {
        let mut bdd = Bdd::new(5);
        let p = bdd.cube_from_bools(&[true, false, true, false, true]);
        let q = bdd.cube_from_bools(&[false, false, true, true, true]);
        let u = bdd.or(p, q);
        let z = bdd.dilate(u, 1);
        let (there, r1) = bdd.reorder(&[z], &[4, 2, 0, 3, 1]);
        let (back, r2) = there.reorder(&r1, &[0, 1, 2, 3, 4]);
        assert_eq!(
            crate::BddSnapshot::capture(&back, r2[0]),
            crate::BddSnapshot::capture(&bdd, z)
        );
    }

    #[test]
    fn interleaved_vs_blocked_order_changes_size() {
        // The classic example: f = (x0 ↔ x3) & (x1 ↔ x4) & (x2 ↔ x5) is
        // small when related variables are adjacent and blows up when they
        // are far apart.
        let n = 6;
        let mut bdd = Bdd::new(n);
        let mut f = bdd.one();
        for i in 0..3u32 {
            let a = bdd.var(i);
            let b = bdd.var(i + 3);
            let x = bdd.xor(a, b);
            let eq = bdd.not(x);
            f = bdd.and(f, eq);
        }
        let blocked = bdd.node_count(f);
        let (fresh, roots) = bdd.reorder(&[f], &[0, 3, 1, 4, 2, 5]);
        let interleaved = fresh.node_count(roots[0]);
        assert!(
            interleaved < blocked,
            "adjacent pairing should shrink: {blocked} -> {interleaved}"
        );
        for a in assignments(n) {
            assert_eq!(bdd.eval(f, &a), fresh.eval(roots[0], &a));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn duplicate_target_is_rejected() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let _ = bdd.reorder(&[f], &[0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "order length mismatch")]
    fn wrong_length_is_rejected() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let _ = bdd.reorder(&[f], &[0, 1]);
    }
}
