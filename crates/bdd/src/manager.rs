//! The BDD manager: arena of hash-consed nodes, unique table, caches.

use std::collections::HashMap;

/// Index of a boolean variable, `0 ..< num_vars`.
///
/// Variables are ordered by their index: variable `0` is tested first on
/// every root-to-terminal path.  For activation-pattern monitors, variable
/// `i` corresponds to the `i`-th monitored neuron.
pub type VarId = u32;

/// A reference to a BDD node (and thus to the boolean function rooted there).
///
/// `NodeId`s are only meaningful together with the [`Bdd`] manager that
/// produced them.  The terminals are [`Bdd::zero`] (id 0) and [`Bdd::one`]
/// (id 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant-false terminal.
    pub const ZERO: NodeId = NodeId(0);
    /// The constant-true terminal.
    pub const ONE: NodeId = NodeId(1);

    /// Returns the raw index of this node inside its manager's arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is one of the two terminal nodes.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

/// A decision node: tests `var`, follows `low` when the variable is 0 and
/// `high` when it is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: VarId,
    pub low: NodeId,
    pub high: NodeId,
}

/// Binary operations memoised in the apply cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
    Diff,
}

/// Occupancy statistics of a [`Bdd`] manager, as reported by [`Bdd::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Total nodes allocated in the arena (including the two terminals).
    pub allocated_nodes: usize,
    /// Entries currently held in the binary-operation cache.
    pub apply_cache_entries: usize,
    /// Entries currently held in the quantification cache.
    pub quant_cache_entries: usize,
    /// Number of variables the manager was created with.
    pub num_vars: usize,
}

/// A manager for reduced ordered binary decision diagrams over a fixed set
/// of variables.
///
/// All functions created by one manager share structure through a unique
/// table (hash-consing), so two [`NodeId`]s produced by the same manager are
/// equal **iff** they denote the same boolean function.
///
/// # Example
///
/// ```
/// use naps_bdd::Bdd;
///
/// let mut bdd = Bdd::new(2);
/// let x0 = bdd.var(0);
/// let x1 = bdd.var(1);
/// let f = bdd.and(x0, x1);
/// let g = bdd.not(f);
/// // De Morgan: !(x0 & x1) == !x0 | !x1
/// let nx0 = bdd.not(x0);
/// let nx1 = bdd.not(x1);
/// let h = bdd.or(nx0, nx1);
/// assert_eq!(g, h);
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: HashMap<Node, NodeId>,
    pub(crate) apply_cache: HashMap<(Op, NodeId, NodeId), NodeId>,
    pub(crate) not_cache: HashMap<NodeId, NodeId>,
    pub(crate) quant_cache: HashMap<(NodeId, VarId), NodeId>,
    pub(crate) num_vars: usize,
}

impl Bdd {
    /// Creates a manager for functions over `num_vars` boolean variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds `u32::MAX - 2` (a limit that is far
    /// beyond the practical BDD variable budget of a few hundred the paper
    /// discusses).
    pub fn new(num_vars: usize) -> Self {
        assert!(
            num_vars < (u32::MAX - 2) as usize,
            "variable count {num_vars} out of range"
        );
        // Terminals occupy ids 0 and 1 with a pseudo-variable beyond every
        // real variable so ordering comparisons stay uniform.
        let term_var = num_vars as VarId;
        let zero = Node {
            var: term_var,
            low: NodeId::ZERO,
            high: NodeId::ZERO,
        };
        let one = Node {
            var: term_var,
            low: NodeId::ONE,
            high: NodeId::ONE,
        };
        Bdd {
            nodes: vec![zero, one],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
            quant_cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of variables of this manager.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constant-false function (empty pattern set).
    #[inline]
    pub fn zero(&self) -> NodeId {
        NodeId::ZERO
    }

    /// The constant-true function (the full pattern space `{0,1}^d`).
    #[inline]
    pub fn one(&self) -> NodeId {
        NodeId::ONE
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: VarId) -> NodeId {
        assert!(
            (var as usize) < self.num_vars,
            "variable {var} out of range"
        );
        self.mk_node(var, NodeId::ZERO, NodeId::ONE)
    }

    /// The negated projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn nvar(&mut self, var: VarId) -> NodeId {
        assert!(
            (var as usize) < self.num_vars,
            "variable {var} out of range"
        );
        self.mk_node(var, NodeId::ONE, NodeId::ZERO)
    }

    /// Variable tested at `node`, or `None` for terminals.
    #[inline]
    pub fn node_var(&self, node: NodeId) -> Option<VarId> {
        if node.is_terminal() {
            None
        } else {
            Some(self.nodes[node.index()].var)
        }
    }

    /// Low (`var = 0`) child of a decision node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a terminal.
    #[inline]
    pub fn low(&self, node: NodeId) -> NodeId {
        assert!(!node.is_terminal(), "terminal has no children");
        self.nodes[node.index()].low
    }

    /// High (`var = 1`) child of a decision node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a terminal.
    #[inline]
    pub fn high(&self, node: NodeId) -> NodeId {
        assert!(!node.is_terminal(), "terminal has no children");
        self.nodes[node.index()].high
    }

    /// Hash-consing constructor: returns the canonical node for
    /// `(var, low, high)`, creating it only if it does not exist.
    pub(crate) fn mk_node(&mut self, var: VarId, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low; // reduction rule
        }
        let key = Node { var, low, high };
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// The "level" used for ordering comparisons; terminals sort last.
    #[inline]
    pub(crate) fn level(&self, node: NodeId) -> VarId {
        if node.is_terminal() {
            self.num_vars as VarId
        } else {
            self.nodes[node.index()].var
        }
    }

    /// Evaluates the function under a full assignment.
    ///
    /// This is the runtime membership query of the monitor: a single walk
    /// from the root that visits at most one node per variable, i.e. time
    /// linear in the number of monitored neurons.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, node: NodeId, assignment: &[bool]) -> bool {
        assert_eq!(
            assignment.len(),
            self.num_vars,
            "assignment length must equal the variable count"
        );
        let mut cur = node;
        while !cur.is_terminal() {
            let n = &self.nodes[cur.index()];
            cur = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
        cur == NodeId::ONE
    }

    /// Encodes a single full assignment (a minterm / activation pattern) as
    /// a one-path BDD — the `bdd.encode` primitive of Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_vars`.
    pub fn cube_from_bools(&mut self, bits: &[bool]) -> NodeId {
        assert_eq!(
            bits.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        let mut acc = NodeId::ONE;
        for (i, &b) in bits.iter().enumerate().rev() {
            let var = i as VarId;
            acc = if b {
                self.mk_node(var, NodeId::ZERO, acc)
            } else {
                self.mk_node(var, acc, NodeId::ZERO)
            };
        }
        acc
    }

    /// Encodes a partial assignment: `Some(b)` constrains a variable,
    /// `None` leaves it free.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_vars`.
    pub fn cube_from_partial(&mut self, bits: &[Option<bool>]) -> NodeId {
        assert_eq!(
            bits.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        let mut acc = NodeId::ONE;
        for (i, &b) in bits.iter().enumerate().rev() {
            let var = i as VarId;
            acc = match b {
                Some(true) => self.mk_node(var, NodeId::ZERO, acc),
                Some(false) => self.mk_node(var, acc, NodeId::ZERO),
                None => acc,
            };
        }
        acc
    }

    /// Number of decision nodes reachable from `node` (terminals excluded).
    pub fn node_count(&self, node: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![node];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n.is_terminal() || seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            count += 1;
            let nd = &self.nodes[n.index()];
            stack.push(nd.low);
            stack.push(nd.high);
        }
        count
    }

    /// Manager-wide occupancy statistics.
    pub fn stats(&self) -> BddStats {
        BddStats {
            allocated_nodes: self.nodes.len(),
            apply_cache_entries: self.apply_cache.len() + self.not_cache.len(),
            quant_cache_entries: self.quant_cache.len(),
            num_vars: self.num_vars,
        }
    }

    /// Drops all operation caches (the unique table is kept, canonicity is
    /// unaffected).  Useful between construction phases to bound memory.
    pub fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.not_cache.clear();
        self.quant_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let bdd = Bdd::new(4);
        assert_eq!(bdd.zero(), NodeId::ZERO);
        assert_eq!(bdd.one(), NodeId::ONE);
        assert!(bdd.zero().is_terminal());
        assert!(bdd.one().is_terminal());
    }

    #[test]
    fn var_is_canonical() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(1);
        let b = bdd.var(1);
        assert_eq!(a, b);
        assert_ne!(bdd.var(0), bdd.var(1));
    }

    #[test]
    fn reduction_rule_collapses_equal_children() {
        let mut bdd = Bdd::new(2);
        let one = bdd.one();
        let n = bdd.mk_node(0, one, one);
        assert_eq!(n, one);
    }

    #[test]
    fn eval_walks_pattern() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_bools(&[true, false, true]);
        assert!(bdd.eval(f, &[true, false, true]));
        assert!(!bdd.eval(f, &[true, true, true]));
        assert!(!bdd.eval(f, &[false, false, true]));
    }

    #[test]
    fn cube_from_partial_leaves_free_vars() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_partial(&[Some(true), None, Some(false)]);
        assert!(bdd.eval(f, &[true, false, false]));
        assert!(bdd.eval(f, &[true, true, false]));
        assert!(!bdd.eval(f, &[true, true, true]));
    }

    #[test]
    fn node_count_of_cube_equals_num_vars() {
        let mut bdd = Bdd::new(5);
        let f = bdd.cube_from_bools(&[true; 5]);
        assert_eq!(bdd.node_count(f), 5);
        assert_eq!(bdd.node_count(bdd.one()), 0);
    }

    #[test]
    fn nvar_is_complement_of_var() {
        let mut bdd = Bdd::new(2);
        let v = bdd.var(0);
        let nv = bdd.nvar(0);
        assert!(bdd.eval(v, &[true, false]));
        assert!(!bdd.eval(nv, &[true, false]));
        assert!(bdd.eval(nv, &[false, false]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut bdd = Bdd::new(2);
        let _ = bdd.var(2);
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn eval_wrong_length_panics() {
        let mut bdd = Bdd::new(2);
        let f = bdd.var(0);
        let _ = bdd.eval(f, &[true]);
    }

    #[test]
    fn stats_report_allocations() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let _ = bdd.and(a, b);
        let s = bdd.stats();
        assert!(s.allocated_nodes >= 4); // 2 terminals + 2+ decision nodes
        assert_eq!(s.num_vars, 4);
    }

    #[test]
    fn clear_caches_preserves_semantics() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(2);
        let f = bdd.or(a, b);
        bdd.clear_caches();
        let f2 = bdd.or(a, b);
        assert_eq!(f, f2);
        assert!(bdd.eval(f2, &[false, false, true]));
    }

    #[test]
    fn manager_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Bdd>();
    }
}

impl Bdd {
    /// Rebuilds the given roots into a fresh manager, dropping every node
    /// not reachable from them — a copying garbage collection.
    ///
    /// Dilation sweeps allocate many intermediate diagrams; once a monitor
    /// is final, compacting shrinks the arena to exactly the live nodes.
    /// Returns the new manager and the translated roots (same order).
    pub fn compact(&self, roots: &[NodeId]) -> (Bdd, Vec<NodeId>) {
        let mut fresh = Bdd::new(self.num_vars);
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        map.insert(NodeId::ZERO, NodeId::ZERO);
        map.insert(NodeId::ONE, NodeId::ONE);
        let new_roots = roots
            .iter()
            .map(|&r| self.copy_into(r, &mut fresh, &mut map))
            .collect();
        (fresh, new_roots)
    }

    fn copy_into(
        &self,
        node: NodeId,
        fresh: &mut Bdd,
        map: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if let Some(&m) = map.get(&node) {
            return m;
        }
        let n = self.nodes[node.index()];
        let low = self.copy_into(n.low, fresh, map);
        let high = self.copy_into(n.high, fresh, map);
        let created = fresh.mk_node(n.var, low, high);
        map.insert(node, created);
        created
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;

    #[test]
    fn compact_preserves_semantics_and_drops_garbage() {
        let mut bdd = Bdd::new(6);
        // Create garbage: many intermediate functions.
        let mut keep = bdd.zero();
        for i in 0..20u64 {
            let bits: Vec<bool> = (0..6).map(|b| (i >> b) & 1 == 1).collect();
            let cube = bdd.cube_from_bools(&bits);
            let tmp = bdd.dilate(cube, 1); // garbage unless i == 19
            if i % 3 == 0 {
                keep = bdd.or(keep, tmp);
            }
        }
        let before = bdd.stats().allocated_nodes;
        let (fresh, roots) = bdd.compact(&[keep]);
        assert_eq!(roots.len(), 1);
        let after = fresh.stats().allocated_nodes;
        assert!(after < before, "no shrinkage: {before} -> {after}");
        for m in 0..64usize {
            let a: Vec<bool> = (0..6).map(|b| (m >> b) & 1 == 1).collect();
            assert_eq!(bdd.eval(keep, &a), fresh.eval(roots[0], &a));
        }
    }

    #[test]
    fn compact_shares_structure_between_roots() {
        let mut bdd = Bdd::new(4);
        let p = bdd.cube_from_bools(&[true, false, true, false]);
        let q = bdd.dilate(p, 1);
        let (fresh, roots) = bdd.compact(&[p, q]);
        // p implies q in the fresh manager too.
        let mut fresh = fresh;
        assert!(fresh.implies(roots[0], roots[1]));
        // Terminals map to themselves.
        let (f2, r2) = fresh.compact(&[fresh.zero(), fresh.one()]);
        assert_eq!(r2, vec![NodeId::ZERO, NodeId::ONE]);
        let _ = f2;
    }
}
