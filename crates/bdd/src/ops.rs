//! Boolean connectives: memoised Shannon-expansion `apply` and negation.

use crate::manager::{Bdd, NodeId, Op};

impl Bdd {
    /// Conjunction (set intersection of pattern sets).
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(Op::And, f, g)
    }

    /// Disjunction — the `bdd.or` set-union primitive of Algorithm 1.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or (symmetric difference of pattern sets).
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(Op::Xor, f, g)
    }

    /// Difference `f ∧ ¬g` (patterns in `f` but not in `g`).
    pub fn diff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(Op::Diff, f, g)
    }

    /// Negation (set complement).
    pub fn not(&mut self, f: NodeId) -> NodeId {
        if f == NodeId::ZERO {
            return NodeId::ONE;
        }
        if f == NodeId::ONE {
            return NodeId::ZERO;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let node = self.nodes[f.index()];
        let low = self.not(node.low);
        let high = self.not(node.high);
        let r = self.mk_node(node.level, low, high);
        self.not_cache.insert(f, r);
        r
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal shortcuts.
        match f {
            NodeId::ONE => return g,
            NodeId::ZERO => return h,
            _ => {}
        }
        if g == h {
            return g;
        }
        if g == NodeId::ONE && h == NodeId::ZERO {
            return f;
        }
        // Compose from the memoised binary connectives; ite is used rarely
        // (construction-time only), so composing keeps the cache simple.
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// Implication check: `f ⇒ g`, i.e. the pattern set of `f` is contained
    /// in the pattern set of `g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> bool {
        self.diff(f, g) == NodeId::ZERO
    }

    fn apply(&mut self, op: Op, f: NodeId, g: NodeId) -> NodeId {
        if let Some(t) = terminal_case(op, f, g) {
            return t;
        }
        // Normalise commutative operations so (f,g) and (g,f) share a slot.
        let (f, g) = match op {
            Op::And | Op::Or | Op::Xor if g < f => (g, f),
            _ => (f, g),
        };
        if let Some(&r) = self.apply_cache.get(&(op, f, g)) {
            return r;
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let level = lf.min(lg);
        let (f0, f1) = if lf == level {
            let n = self.nodes[f.index()];
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g0, g1) = if lg == level {
            let n = self.nodes[g.index()];
            (n.low, n.high)
        } else {
            (g, g)
        };
        let low = self.apply(op, f0, g0);
        let high = self.apply(op, f1, g1);
        let r = self.mk_node(level, low, high);
        self.apply_cache.insert((op, f, g), r);
        r
    }
}

/// Resolves an operation when at least one operand is a terminal or the
/// operands coincide; returns `None` when recursion is required.
fn terminal_case(op: Op, f: NodeId, g: NodeId) -> Option<NodeId> {
    match op {
        Op::And => match (f, g) {
            (NodeId::ZERO, _) | (_, NodeId::ZERO) => Some(NodeId::ZERO),
            (NodeId::ONE, x) | (x, NodeId::ONE) => Some(x),
            _ if f == g => Some(f),
            _ => None,
        },
        Op::Or => match (f, g) {
            (NodeId::ONE, _) | (_, NodeId::ONE) => Some(NodeId::ONE),
            (NodeId::ZERO, x) | (x, NodeId::ZERO) => Some(x),
            _ if f == g => Some(f),
            _ => None,
        },
        Op::Xor => match (f, g) {
            (NodeId::ZERO, x) | (x, NodeId::ZERO) => Some(x),
            _ if f == g => Some(NodeId::ZERO),
            _ => None,
        },
        Op::Diff => match (f, g) {
            (NodeId::ZERO, _) => Some(NodeId::ZERO),
            (_, NodeId::ONE) => Some(NodeId::ZERO),
            (x, NodeId::ZERO) => Some(x),
            _ if f == g => Some(NodeId::ZERO),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::Bdd;

    fn all_assignments(n: usize) -> Vec<Vec<bool>> {
        (0..(1usize << n))
            .map(|m| (0..n).map(|i| (m >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn and_or_match_truth_tables() {
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x2 = bdd.var(2);
        let a = bdd.and(x0, x2);
        let o = bdd.or(x0, x2);
        for asg in all_assignments(3) {
            assert_eq!(bdd.eval(a, &asg), asg[0] && asg[2]);
            assert_eq!(bdd.eval(o, &asg), asg[0] || asg[2]);
        }
    }

    #[test]
    fn xor_and_diff_match_truth_tables() {
        let mut bdd = Bdd::new(2);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let x = bdd.xor(x0, x1);
        let d = bdd.diff(x0, x1);
        for asg in all_assignments(2) {
            assert_eq!(bdd.eval(x, &asg), asg[0] ^ asg[1]);
            assert_eq!(bdd.eval(d, &asg), asg[0] && !asg[1]);
        }
    }

    #[test]
    fn not_is_involution() {
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let f = bdd.or(x0, x1);
        let nf = bdd.not(f);
        let nnf = bdd.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn de_morgan_holds_canonically() {
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let and = bdd.and(x0, x1);
        let lhs = bdd.not(and);
        let n0 = bdd.not(x0);
        let n1 = bdd.not(x1);
        let rhs = bdd.or(n0, n1);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let g = bdd.var(1);
        let h = bdd.var(2);
        let r = bdd.ite(f, g, h);
        for asg in all_assignments(3) {
            let expect = if asg[0] { asg[1] } else { asg[2] };
            assert_eq!(bdd.eval(r, &asg), expect);
        }
    }

    #[test]
    fn implies_detects_subset() {
        let mut bdd = Bdd::new(2);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let conj = bdd.and(x0, x1);
        assert!(bdd.implies(conj, x0));
        assert!(!bdd.implies(x0, conj));
    }

    #[test]
    fn operations_are_idempotent_on_equal_operands() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        assert_eq!(bdd.and(x, x), x);
        assert_eq!(bdd.or(x, x), x);
        assert_eq!(bdd.xor(x, x), bdd.zero());
        assert_eq!(bdd.diff(x, x), bdd.zero());
    }

    #[test]
    fn union_of_cubes_contains_both() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, false, true, false]);
        let q = bdd.cube_from_bools(&[false, false, true, true]);
        let u = bdd.or(p, q);
        assert!(bdd.eval(u, &[true, false, true, false]));
        assert!(bdd.eval(u, &[false, false, true, true]));
        assert!(!bdd.eval(u, &[true, true, true, true]));
    }
}
