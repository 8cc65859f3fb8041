//! Variable reordering.
//!
//! BDD size is notoriously sensitive to the variable order.  For
//! activation-pattern monitors the default order is the neuron index,
//! which is arbitrary; reordering the monitored neurons can shrink the
//! stored comfort zones (less memory on the deployed ECU) without
//! changing their semantics — the membership walk stays linear in the
//! variable count either way.
//!
//! [`Bdd::permute`] rebuilds chosen roots under an explicit permutation
//! (e.g. one computed from activation statistics by `naps-core`'s
//! `order_by_bias`).

use crate::fxhash::HashMap;
use crate::manager::{Bdd, NodeId, VarId};

impl Bdd {
    /// Rebuilds `roots` into a fresh manager under the variable
    /// permutation `perm`, where old variable `v` becomes new variable
    /// `perm[v]`.
    ///
    /// Semantics are preserved up to renaming: for every assignment `a`,
    /// `old.eval(root, a) == new.eval(root', a')` with
    /// `a'[perm[v]] = a[v]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0 .. num_vars`.
    ///
    /// # Example
    ///
    /// ```
    /// use naps_bdd::Bdd;
    ///
    /// let mut bdd = Bdd::new(3);
    /// let f = bdd.cube_from_bools(&[true, false, true]);
    /// // Move variable 0 to position 2 (and shift the others down).
    /// let (fresh, roots) = bdd.permute(&[f], &[2, 0, 1]);
    /// // Old assignment [1,0,1] becomes [0,1,1] under the renaming.
    /// assert!(fresh.eval(roots[0], &[false, true, true]));
    /// ```
    pub fn permute(&self, roots: &[NodeId], perm: &[VarId]) -> (Bdd, Vec<NodeId>) {
        assert_eq!(perm.len(), self.num_vars, "permutation length mismatch");
        let mut hit = vec![false; self.num_vars];
        for &p in perm {
            assert!(
                (p as usize) < self.num_vars && !hit[p as usize],
                "not a permutation of 0..num_vars"
            );
            hit[p as usize] = true;
        }
        let mut fresh = Bdd::new(self.num_vars);
        let mut map: HashMap<NodeId, NodeId> = HashMap::default();
        let new_roots = roots
            .iter()
            .map(|&r| self.permute_node(r, perm, &mut fresh, &mut map))
            .collect();
        (fresh, new_roots)
    }

    fn permute_node(
        &self,
        node: NodeId,
        perm: &[VarId],
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
        let low = self.permute_node(n.low, perm, fresh, map);
        let high = self.permute_node(n.high, perm, fresh, map);
        // The permuted variable may now sit below its children's levels,
        // so rebuild through `ite`, which restores the ordering invariant.
        let var = fresh.var(perm[n.var as usize]);
        let created = fresh.ite(var, high, low);
        map.insert(node, created);
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a'[perm[v]] = a[v]`.
    fn apply_perm(assignment: &[bool], perm: &[VarId]) -> Vec<bool> {
        let mut out = vec![false; assignment.len()];
        for (v, &b) in assignment.iter().enumerate() {
            out[perm[v] as usize] = b;
        }
        out
    }

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1usize << n).map(move |m| (0..n).map(|b| (m >> b) & 1 == 1).collect())
    }

    #[test]
    fn identity_permutation_is_a_copy() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(3);
        let f = bdd.xor(a, b);
        let (fresh, roots) = bdd.permute(&[f], &[0, 1, 2, 3]);
        for a in assignments(4) {
            assert_eq!(bdd.eval(f, &a), fresh.eval(roots[0], &a));
        }
    }

    #[test]
    fn permute_preserves_semantics_up_to_renaming() {
        let mut bdd = Bdd::new(4);
        // f = (x0 & x1) | (!x2 & x3)
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let nx2 = bdd.nvar(2);
        let x3 = bdd.var(3);
        let l = bdd.and(x0, x1);
        let r = bdd.and(nx2, x3);
        let f = bdd.or(l, r);
        let perm: Vec<VarId> = vec![3, 1, 0, 2]; // old v -> new perm[v]
        let (fresh, roots) = bdd.permute(&[f], &perm);
        for a in assignments(4) {
            assert_eq!(
                bdd.eval(f, &a),
                fresh.eval(roots[0], &apply_perm(&a, &perm)),
                "assignment {a:?}"
            );
        }
    }

    #[test]
    fn permute_reverse_order_of_a_cube_keeps_node_count() {
        let mut bdd = Bdd::new(6);
        let f = bdd.cube_from_bools(&[true, false, true, true, false, true]);
        let perm: Vec<VarId> = (0..6).rev().collect();
        let (fresh, roots) = bdd.permute(&[f], &perm);
        // A minterm cube has one node per variable under any order.
        assert_eq!(fresh.node_count(roots[0]), 6);
    }

    #[test]
    fn permute_translates_multiple_roots_with_sharing() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_bools(&[true, true, false]);
        let g = bdd.dilate(f, 1);
        let (fresh, roots) = bdd.permute(&[f, g], &[2, 0, 1]);
        let mut fresh = fresh;
        assert!(
            fresh.implies(roots[0], roots[1]),
            "f ⊆ dilate(f) must survive"
        );
    }

    #[test]
    fn interleaved_vs_blocked_order_changes_size() {
        // The classic example: f = (x0 ↔ x1') & (x2 ↔ x3') is small when
        // related variables are adjacent and blows up when they are far
        // apart.  With 3 pairs the effect is already visible.
        let n = 6;
        let mut bdd = Bdd::new(n);
        let mut f = bdd.one();
        // Pairs under the *bad* order: (0,3), (1,4), (2,5).
        for i in 0..3u32 {
            let a = bdd.var(i);
            let b = bdd.var(i + 3);
            let x = bdd.xor(a, b);
            let eq = bdd.not(x);
            f = bdd.and(f, eq);
        }
        let bad_size = bdd.node_count(f);
        // Permute to adjacency: 0->0, 3->1, 1->2, 4->3, 2->4, 5->5.
        let perm: Vec<VarId> = vec![0, 2, 4, 1, 3, 5];
        let (fresh, roots) = bdd.permute(&[f], &perm);
        let good_size = fresh.node_count(roots[0]);
        assert!(
            good_size < bad_size,
            "adjacent pairing should shrink: {bad_size} -> {good_size}"
        );
        for a in assignments(n) {
            assert_eq!(
                bdd.eval(f, &a),
                fresh.eval(roots[0], &apply_perm(&a, &perm))
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn duplicate_target_is_rejected() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let _ = bdd.permute(&[f], &[0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn wrong_length_is_rejected() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let _ = bdd.permute(&[f], &[0, 1]);
    }
}
