//! Snapshot serialization: persist a function (e.g. a built comfort zone)
//! and restore it into a fresh manager, for monitor deployment.

use crate::error::BddError;
use crate::fxhash::HashMap;
use crate::manager::{invert_order, Bdd, NodeId, VarId};
use serde::{Deserialize, Serialize, Value};

/// Memo byte meaning "no satisfying assignment within the remaining
/// budget" in [`BddSnapshot::min_hamming_distance_within`].  Budgets at
/// or above this value fall back to the unbounded sweep.
const BOUNDED_NONE: u8 = 0xFE;
/// Memo byte meaning "state not computed yet".
const BOUNDED_UNVISITED: u8 = 0xFF;

/// A self-contained, manager-independent dump of one BDD function.
///
/// Nodes are stored in topological order (children before parents), with
/// indices `0` and `1` reserved for the terminals, so restoring is a single
/// forward pass of hash-consing insertions.  [`BddSnapshot::capture`]
/// numbers them by a post-order walk from the root, so a snapshot — and
/// its bytes — depends only on the function and the variable order, never
/// on how the manager built it.
///
/// Each node records the *variable* it tests, so every query indexes
/// assignments by variable whatever the order.  The order itself
/// ([`BddSnapshot::order`]) travels with the snapshot; it is serialized
/// only when it differs from index order, so index-ordered snapshots keep
/// the byte format they always had.
///
/// # Example
///
/// ```
/// use naps_bdd::{Bdd, BddSnapshot};
///
/// let mut bdd = Bdd::new(3);
/// let f = bdd.cube_from_bools(&[true, false, true]);
/// let z = bdd.dilate(f, 1);
/// let snap = BddSnapshot::capture(&bdd, z);
///
/// let mut fresh = Bdd::new(3);
/// let restored = snap.restore(&mut fresh)?;
/// assert!(fresh.eval(restored, &[true, false, true]));
/// # Ok::<(), naps_bdd::BddError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddSnapshot {
    num_vars: usize,
    /// `(var, low, high)` triples; `low`/`high` index into this list shifted
    /// by 2 (0 and 1 denote the terminals).
    nodes: Vec<(VarId, u32, u32)>,
    /// Index (same encoding) of the root.
    root: u32,
    /// The variable order (`order[level]` is tested at `level`), empty
    /// when it is index order.
    order: Vec<VarId>,
}

impl BddSnapshot {
    /// Captures the function rooted at `root` from `bdd`, with `bdd`'s
    /// variable order.
    pub fn capture(bdd: &Bdd, root: NodeId) -> Self {
        let mut order: Vec<NodeId> = Vec::new();
        let mut index_of: HashMap<NodeId, u32> = HashMap::default();
        // Iterative post-order so children precede parents.
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if n.is_terminal() || index_of.contains_key(&n) {
                continue;
            }
            if expanded {
                index_of.insert(n, order.len() as u32 + 2);
                order.push(n);
            } else {
                stack.push((n, true));
                stack.push((bdd.low(n), false));
                stack.push((bdd.high(n), false));
            }
        }
        let encode = |n: NodeId, index_of: &HashMap<NodeId, u32>| -> u32 {
            match n {
                NodeId::ZERO => 0,
                NodeId::ONE => 1,
                other => index_of[&other],
            }
        };
        let nodes = order
            .iter()
            .map(|&n| {
                (
                    // naps-lint: allow(typed_errors, "n iterates this bdd's decision-node set, for which node_var is always Some; terminals were filtered out above")
                    bdd.node_var(n).expect("decision node"),
                    encode(bdd.low(n), &index_of),
                    encode(bdd.high(n), &index_of),
                )
            })
            .collect();
        let var_order = bdd.order();
        let index_ordered = var_order.iter().enumerate().all(|(l, &v)| l == v as usize);
        BddSnapshot {
            num_vars: bdd.num_vars(),
            nodes,
            root: encode(root, &index_of),
            order: if index_ordered {
                Vec::new()
            } else {
                var_order.to_vec()
            },
        }
    }

    /// The variable order the diagram tests its variables in:
    /// `order()[level]` is the variable at `level`.  Restore into a
    /// manager made with [`Bdd::with_order`] of this order.
    pub fn order(&self) -> Vec<VarId> {
        if self.order.is_empty() {
            (0..self.num_vars as VarId).collect()
        } else {
            self.order.clone()
        }
    }

    /// `level_of[var]` for the snapshot's order, `None` when a stored
    /// order is not a permutation of the variables.
    fn level_of(&self) -> Option<Vec<u32>> {
        if self.order.is_empty() {
            Some((0..self.num_vars as u32).collect())
        } else if self.order.len() == self.num_vars {
            invert_order(&self.order)
        } else {
            None
        }
    }

    /// Number of variables the captured function was defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of decision nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Raw topo-ordered node array for the compile-time lowering in
    /// [`crate::compiled`] (children precede parents; indices shifted by
    /// 2, with `0`/`1` the terminals).
    pub(crate) fn raw_nodes(&self) -> &[(VarId, u32, u32)] {
        &self.nodes
    }

    /// Raw root entry (same encoding as the node children).
    pub(crate) fn raw_root(&self) -> u32 {
        self.root
    }

    /// Evaluates the captured function under a full assignment without
    /// restoring it into a manager: a single root-to-terminal walk over the
    /// immutable node array.
    ///
    /// A snapshot is plain data with no caches or interior mutability, so
    /// any number of threads can evaluate one `Arc<BddSnapshot>`
    /// concurrently, each query touching at most one node per variable.
    /// `naps-serve` serves the [`CompiledZone`](crate::CompiledZone)
    /// compiled from a snapshot; this walk is the oracle that evaluator is
    /// pinned bit-identical to.  Agrees bit-for-bit with [`Bdd::eval`] on
    /// the restored function.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(
            assignment.len(),
            self.num_vars,
            "assignment length must equal the variable count"
        );
        let mut cur = self.root;
        while cur >= 2 {
            let (var, low, high) = self.nodes[cur as usize - 2];
            cur = if assignment[var as usize] { high } else { low };
        }
        cur == 1
    }

    /// Minimum Hamming distance from `pattern` to any satisfying assignment
    /// of the captured function, or `None` if it is unsatisfiable — the
    /// snapshot counterpart of [`Bdd::min_hamming_distance`], again without
    /// a manager.
    ///
    /// Because snapshot nodes are stored children-before-parents, the
    /// shortest-path recursion becomes a single bottom-up sweep over the
    /// node array: no recursion, no hashing, one `Option<u32>` per node.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != num_vars`.
    pub fn min_hamming_distance(&self, pattern: &[bool]) -> Option<u32> {
        assert_eq!(
            pattern.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        // dist[i] = min flips to reach ONE from entry i (terminals at 0, 1).
        let mut dist: Vec<Option<u32>> = Vec::with_capacity(self.nodes.len() + 2);
        dist.push(None); // ZERO
        dist.push(Some(0)); // ONE
        for &(var, low, high) in &self.nodes {
            let (agree, disagree) = if pattern[var as usize] {
                (high, low)
            } else {
                (low, high)
            };
            let d_agree = dist[agree as usize];
            let d_disagree = dist[disagree as usize].map(|d| d.saturating_add(1));
            dist.push(match (d_agree, d_disagree) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            });
        }
        dist[self.root as usize]
    }

    /// Budget-bounded [`BddSnapshot::min_hamming_distance`]: the minimum
    /// Hamming distance from `pattern` to any satisfying assignment, but
    /// only if it is at most `budget` — `None` otherwise (conflating
    /// "unsatisfiable" with "further than the budget").
    ///
    /// Where the unbounded query sweeps the **entire** node array
    /// bottom-up, this one searches top-down from the root and prunes
    /// every branch whose accumulated flips exceed `budget`, with two
    /// early exits: a pattern inside the set is answered by one
    /// [`BddSnapshot::eval`] walk (distance 0), and a pattern far from
    /// the whole set exhausts the budget near the root and returns
    /// `None` after touching only the pruned frontier.  Memoisation is
    /// per `(node, remaining budget)` — worst case `O(nodes × budget)`,
    /// typically a small fraction of the array for the graded monitor's
    /// budgets (≤ γ + 2).
    ///
    /// Like [`BddSnapshot::eval`] it takes `&self` on plain immutable
    /// data, so any number of threads may query one `Arc<BddSnapshot>`
    /// concurrently.  `naps-serve`'s graded verdicts run its lowering onto
    /// the compiled node array
    /// ([`CompiledZone::min_hamming_distance_within_words`](crate::CompiledZone::min_hamming_distance_within_words));
    /// this DP is that query's oracle.  Agrees with the unbounded query
    /// whenever the true distance is within `budget` (pinned by property
    /// tests against both the unbounded sweep and the manager DP).
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != num_vars`.
    pub fn min_hamming_distance_within(&self, pattern: &[bool], budget: u32) -> Option<u32> {
        assert_eq!(
            pattern.len(),
            self.num_vars,
            "pattern length must equal the variable count"
        );
        if self.eval(pattern) {
            return Some(0);
        }
        if self.root == 0 {
            return None;
        }
        // A budget at or beyond the variable count cannot prune (every
        // distance fits), and very large budgets do not fit the compact
        // memo encoding; both degenerate to the flat full sweep, which
        // is the faster algorithm exactly when nothing can be pruned.
        if budget as usize >= self.num_vars || budget >= BOUNDED_NONE as u32 {
            return self.min_hamming_distance(pattern).filter(|&d| d <= budget);
        }
        // Flat memo, one byte per (node, remaining-budget) state: the
        // pruned frontier is usually a small fraction of
        // `nodes × (budget + 1)`, and byte states keep the memo cheap to
        // allocate and cache-resident (a HashMap's hashing costs more
        // than the DP itself at these sizes).
        let stride = budget as usize + 1;
        let mut memo = vec![BOUNDED_UNVISITED; (self.nodes.len() + 2) * stride];
        let d = self.bounded_dist_rec(self.root, pattern, budget, stride, &mut memo);
        (d != BOUNDED_NONE).then_some(u32::from(d))
    }

    /// Minimum flips to reach the `1` terminal from `entry`, provided it
    /// is ≤ `slack` ([`BOUNDED_NONE`] otherwise).  Recursion depth is
    /// bounded by the variable count (children carry strictly larger
    /// variables).
    fn bounded_dist_rec(
        &self,
        entry: u32,
        pattern: &[bool],
        slack: u32,
        stride: usize,
        memo: &mut [u8],
    ) -> u8 {
        if entry == 1 {
            return 0;
        }
        if entry == 0 {
            return BOUNDED_NONE;
        }
        if slack == 0 {
            return self.agree_walk(entry, pattern, stride, memo);
        }
        let key = entry as usize * stride + slack as usize;
        let cached = memo[key];
        if cached != BOUNDED_UNVISITED {
            return cached;
        }
        let (var, low, high) = self.nodes[entry as usize - 2];
        let (agree, disagree) = if pattern[var as usize] {
            (high, low)
        } else {
            (low, high)
        };
        let d_agree = self.bounded_dist_rec(agree, pattern, slack, stride, memo);
        // The disagreeing branch costs one flip: prune it outright when
        // the budget is spent, skip it when it cannot beat the agreeing
        // branch (its result is ≥ 1, so `d_agree ≤ 1` is unbeatable),
        // and otherwise search it only up to the slack where a win is
        // still possible (`sub + 1 < d_agree` ⇒ `sub ≤ d_agree − 2`;
        // when `d_agree` is `BOUNDED_NONE` the `min` leaves the full
        // `slack − 1`).  The branch-and-bound keeps far-from-everything
        // queries from expanding frontiers that cannot change the
        // answer.
        let d = if d_agree <= 1 {
            d_agree
        } else {
            let sub_slack = (slack - 1).min(u32::from(d_agree) - 2);
            match self.bounded_dist_rec(disagree, pattern, sub_slack, stride, memo) {
                BOUNDED_NONE => d_agree,
                sub => d_agree.min(sub + 1),
            }
        };
        memo[key] = d;
        d
    }

    /// The `slack == 0` base layer of the bounded DP: with no flips
    /// left, only agreeing edges may be followed, so the search is a
    /// straight chain walk (at most one node per variable) — iterated
    /// rather than recursed, with the verdict memoised along the whole
    /// chain.  This is the innermost, most-visited layer: every
    /// disagreeing descent eventually exhausts its budget here.
    fn agree_walk(&self, entry: u32, pattern: &[bool], stride: usize, memo: &mut [u8]) -> u8 {
        let mut cur = entry;
        let verdict = loop {
            if cur == 1 {
                break 0;
            }
            if cur == 0 {
                break BOUNDED_NONE;
            }
            let cached = memo[cur as usize * stride];
            if cached != BOUNDED_UNVISITED {
                break cached;
            }
            let (var, low, high) = self.nodes[cur as usize - 2];
            cur = if pattern[var as usize] { high } else { low };
        };
        // Second pass: stamp the verdict onto every chain node so later
        // descents reaching any of them stop immediately.
        let mut cur = entry;
        loop {
            if cur <= 1 || memo[cur as usize * stride] != BOUNDED_UNVISITED {
                break;
            }
            memo[cur as usize * stride] = verdict;
            let (var, low, high) = self.nodes[cur as usize - 2];
            cur = if pattern[var as usize] { high } else { low };
        }
        verdict
    }

    /// Structurally validates the snapshot **without** a manager: every
    /// child index must precede its parent, variables must be in range and
    /// respect the order, nodes must be reduced, and the root must be in
    /// bounds.  A snapshot passing this check is safe to query via
    /// [`BddSnapshot::eval`] / [`BddSnapshot::min_hamming_distance`] (both
    /// index unchecked along the happy path) and will restore cleanly into
    /// a manager of the right width.
    ///
    /// This is the integrity gate for snapshots read back from disk (e.g.
    /// `naps-serve`'s `FrozenLayeredMonitor::load`), where the bytes may be
    /// truncated or hand-edited.
    ///
    /// # Errors
    ///
    /// [`BddError::CorruptSnapshot`] if a child or root index points at or
    /// past its own definition, [`BddError::MalformedSnapshot`] if a node
    /// violates reducedness or the variable order.
    pub fn validate(&self) -> Result<(), BddError> {
        let level_of = self.level_of().ok_or(BddError::MalformedSnapshot {
            reason: "variable order is not a permutation of the variables",
        })?;
        for (i, &(var, low, high)) in self.nodes.iter().enumerate() {
            let slot = i + 2;
            if low as usize >= slot || high as usize >= slot {
                return Err(BddError::CorruptSnapshot { index: i });
            }
            if (var as usize) >= self.num_vars {
                return Err(BddError::MalformedSnapshot {
                    reason: "node variable out of range",
                });
            }
            if low == high {
                return Err(BddError::MalformedSnapshot {
                    reason: "node is not reduced (low == high)",
                });
            }
            for child in [low, high] {
                if child >= 2 {
                    let child_var = self.nodes[child as usize - 2].0;
                    if level_of[child_var as usize] <= level_of[var as usize] {
                        return Err(BddError::MalformedSnapshot {
                            reason: "variable ordering violated",
                        });
                    }
                }
            }
        }
        if self.root as usize >= self.nodes.len() + 2 {
            return Err(BddError::CorruptSnapshot {
                index: self.root as usize,
            });
        }
        Ok(())
    }

    /// Rebuilds the function inside `bdd`, returning its root.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VarCountMismatch`] if `bdd` was created with a
    /// different variable count, [`BddError::OrderMismatch`] if it tests
    /// the variables in another order than [`BddSnapshot::order`], plus
    /// everything [`BddSnapshot::validate`] rejects.
    pub fn restore(&self, bdd: &mut Bdd) -> Result<NodeId, BddError> {
        if self.num_vars != bdd.num_vars() {
            return Err(BddError::VarCountMismatch {
                expected: self.num_vars,
                actual: bdd.num_vars(),
            });
        }
        self.validate()?;
        if bdd.order() != self.order().as_slice() {
            return Err(BddError::OrderMismatch);
        }
        let mut ids: Vec<NodeId> = Vec::with_capacity(self.nodes.len() + 2);
        ids.push(NodeId::ZERO);
        ids.push(NodeId::ONE);
        for &(var, low, high) in &self.nodes {
            let lo = ids[low as usize];
            let hi = ids[high as usize];
            let level = bdd.level_of[var as usize];
            ids.push(bdd.mk_node(level, lo, hi));
        }
        Ok(ids[self.root as usize])
    }

    /// Every satisfying assignment, or `None` when there are more than
    /// `limit`.  Each is `ceil(num_vars / 64)` packed words
    /// (least-significant bit of word 0 = variable 0), and they come
    /// sorted as word slices.
    ///
    /// A bottom-up count over the node array, saturating at `limit`,
    /// decides first; only then are the assignments enumerated, so the
    /// cost stays proportional to `limit × num_vars` however large the set.
    /// The snapshot must be valid ([`BddSnapshot::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if a stored order is not a permutation of the variables.
    ///
    /// # Example
    ///
    /// ```
    /// use naps_bdd::{Bdd, BddSnapshot};
    ///
    /// let mut bdd = Bdd::with_order(vec![1, 0]);
    /// let f = bdd.var(1); // x1: the assignments 10 and 11 (LSB first)
    /// let snap = BddSnapshot::capture(&bdd, f);
    /// assert_eq!(snap.minterms(4), Some(vec![0b10, 0b11]));
    /// assert_eq!(snap.minterms(1), None);
    /// ```
    pub fn minterms(&self, limit: u64) -> Option<Vec<u64>> {
        let Some(level_of) = self.level_of() else {
            panic!("malformed snapshot: variable order is not a permutation");
        };
        let order = self.order();
        let level = |entry: u32| -> u32 {
            if entry < 2 {
                self.num_vars as u32
            } else {
                level_of[self.nodes[entry as usize - 2].0 as usize]
            }
        };
        let count = self.bounded_sat_count(limit, &level)?;
        let stride = self.num_vars.div_ceil(64);
        let mut keys: Vec<u64> = Vec::with_capacity(count as usize * stride);
        // Stack of (entry, next level to decide, partial key).
        let mut stack: Vec<(u32, u32, Vec<u64>)> = Vec::new();
        if self.root != 0 {
            stack.push((self.root, 0, vec![0u64; stride]));
        }
        while let Some((entry, lvl, key)) = stack.pop() {
            if lvl as usize == self.num_vars {
                debug_assert_eq!(entry, 1);
                keys.extend_from_slice(&key);
                continue;
            }
            let var = order[lvl as usize];
            let set = |mut key: Vec<u64>| {
                key[(var >> 6) as usize] |= 1u64 << (var & 63);
                key
            };
            if level(entry) > lvl {
                // Free variable: branch both ways.
                stack.push((entry, lvl + 1, set(key.clone())));
                stack.push((entry, lvl + 1, key));
            } else {
                let (_, low, high) = self.nodes[entry as usize - 2];
                if high != 0 {
                    stack.push((high, lvl + 1, set(key.clone())));
                }
                if low != 0 {
                    stack.push((low, lvl + 1, key));
                }
            }
        }
        if stride > 0 {
            let mut sorted: Vec<&[u64]> = keys.chunks_exact(stride).collect();
            sorted.sort_unstable();
            keys = sorted.concat();
        }
        Some(keys)
    }

    /// Exact satisfying-assignment count when it is at most `limit`,
    /// `None` otherwise.  Bottom-up over the topo-ordered array with
    /// saturating arithmetic: skipped levels double the child's count.
    fn bounded_sat_count(&self, limit: u64, level: &impl Fn(u32) -> u32) -> Option<u64> {
        // Saturating `count << levels` — each level skipped between a
        // node and its child doubles the child's count.
        let shifted = |count: u64, levels: u32| -> u64 {
            if count == 0 {
                0
            } else if levels >= 64 || count > (u64::MAX >> levels) {
                u64::MAX
            } else {
                count << levels
            }
        };
        // counts[entry] = satisfying assignments over the levels from the
        // entry's own level down (children precede parents, so one forward
        // pass suffices).
        let mut counts = vec![0u64; self.nodes.len() + 2];
        counts[1] = 1;
        for (i, &(_, low, high)) in self.nodes.iter().enumerate() {
            let own = level(i as u32 + 2);
            let low = shifted(counts[low as usize], level(low) - own - 1);
            let high = shifted(counts[high as usize], level(high) - own - 1);
            counts[i + 2] = low.saturating_add(high);
        }
        // Levels above the root's are free as well.
        let total = match self.root {
            0 => 0,
            1 => shifted(1, self.num_vars as u32),
            r => shifted(counts[r as usize], level(r)),
        };
        (total <= limit).then_some(total)
    }
}

/// Written by hand so that the order field appears only when it is not
/// index order: index-ordered snapshots serialize exactly as they did
/// before diagrams carried an order.
impl Serialize for BddSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("num_vars".to_string(), self.num_vars.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("root".to_string(), self.root.to_value()),
        ];
        if !self.order.is_empty() {
            fields.push(("order".to_string(), self.order.to_value()));
        }
        Value::Map(fields)
    }
}

/// A missing order field means index order; an explicit index order is
/// normalised to the same (empty) form, so equality does not depend on
/// which was written.
impl Deserialize for BddSnapshot {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let num_vars: usize = Deserialize::from_value(v.field("num_vars")?)?;
        let mut order: Vec<VarId> = match v.field("order") {
            Ok(order) => Deserialize::from_value(order)?,
            Err(_) => Vec::new(),
        };
        if order.len() == num_vars && order.iter().enumerate().all(|(l, &var)| l == var as usize) {
            order.clear();
        }
        Ok(BddSnapshot {
            num_vars,
            nodes: Deserialize::from_value(v.field("nodes")?)?,
            root: Deserialize::from_value(v.field("root")?)?,
            order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_semantics() {
        let mut bdd = Bdd::new(5);
        let p = bdd.cube_from_bools(&[true, false, true, false, true]);
        let q = bdd.cube_from_bools(&[false, true, false, true, false]);
        let u = bdd.or(p, q);
        let z = bdd.dilate(u, 1);
        let snap = BddSnapshot::capture(&bdd, z);

        let mut fresh = Bdd::new(5);
        let r = snap.restore(&mut fresh).expect("restore");
        for m in 0..32usize {
            let a: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(bdd.eval(z, &a), fresh.eval(r, &a), "assignment {a:?}");
        }
    }

    #[test]
    fn terminal_snapshots_roundtrip() {
        let bdd = Bdd::new(3);
        for t in [bdd.zero(), bdd.one()] {
            let snap = BddSnapshot::capture(&bdd, t);
            assert_eq!(snap.node_count(), 0);
            let mut fresh = Bdd::new(3);
            assert_eq!(snap.restore(&mut fresh).expect("restore"), t);
        }
    }

    #[test]
    fn var_count_mismatch_is_reported() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let snap = BddSnapshot::capture(&bdd, f);
        let mut fresh = Bdd::new(4);
        assert_eq!(
            snap.restore(&mut fresh),
            Err(BddError::VarCountMismatch {
                expected: 3,
                actual: 4
            })
        );
    }

    #[test]
    fn corrupt_child_index_is_rejected() {
        let snap = BddSnapshot {
            num_vars: 2,
            nodes: vec![(0, 5, 1)],
            root: 2,
            order: Vec::new(),
        };
        let mut fresh = Bdd::new(2);
        assert!(matches!(
            snap.restore(&mut fresh),
            Err(BddError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn unreduced_node_is_rejected() {
        let snap = BddSnapshot {
            num_vars: 2,
            nodes: vec![(0, 1, 1)],
            root: 2,
            order: Vec::new(),
        };
        let mut fresh = Bdd::new(2);
        assert!(matches!(
            snap.restore(&mut fresh),
            Err(BddError::MalformedSnapshot { .. })
        ));
    }

    #[test]
    fn validate_accepts_captured_snapshots() {
        let mut bdd = Bdd::new(4);
        let f = bdd_sample(&mut bdd);
        let snap = BddSnapshot::capture(&bdd, f);
        assert_eq!(snap.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_bounds_root() {
        let snap = BddSnapshot {
            num_vars: 2,
            nodes: vec![(0, 0, 1)],
            root: 9,
            order: Vec::new(),
        };
        assert!(matches!(
            snap.validate(),
            Err(BddError::CorruptSnapshot { index: 9 })
        ));
    }

    #[test]
    fn validate_rejects_order_violations() {
        // Child's variable (0) is not below its parent's (1).
        let snap = BddSnapshot {
            num_vars: 2,
            nodes: vec![(0, 0, 1), (1, 2, 1)],
            root: 3,
            order: Vec::new(),
        };
        assert!(snap.validate().is_err());
        // Swapping the variables fixes it.
        let ok = BddSnapshot {
            num_vars: 2,
            nodes: vec![(1, 0, 1), (0, 2, 1)],
            root: 3,
            order: Vec::new(),
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn restore_into_populated_manager_shares_structure() {
        let mut a = Bdd::new(4);
        let f = bdd_sample(&mut a);
        let snap = BddSnapshot::capture(&a, f);
        // Restoring into the same manager returns the identical node.
        let restored = snap.restore(&mut a).expect("restore");
        assert_eq!(restored, f);
    }

    fn bdd_sample(bdd: &mut Bdd) -> NodeId {
        let p = bdd.cube_from_bools(&[true, true, false, false]);
        let q = bdd.cube_from_bools(&[false, true, true, false]);
        bdd.or(p, q)
    }

    #[test]
    fn bounded_snapshot_distance_matches_unbounded_within_budget() {
        let mut bdd = Bdd::new(5);
        let p = bdd.cube_from_bools(&[true, false, true, false, true]);
        let q = bdd.cube_from_bools(&[false, true, false, true, false]);
        let u = bdd.or(p, q);
        let snap = BddSnapshot::capture(&bdd, u);
        for m in 0..32usize {
            let probe: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let exact = snap.min_hamming_distance(&probe);
            for budget in 0..=5u32 {
                assert_eq!(
                    snap.min_hamming_distance_within(&probe, budget),
                    exact.filter(|&d| d <= budget),
                    "probe {probe:?} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn bounded_snapshot_distance_on_terminals() {
        let bdd = Bdd::new(3);
        let empty = BddSnapshot::capture(&bdd, bdd.zero());
        let full = BddSnapshot::capture(&bdd, bdd.one());
        assert_eq!(empty.min_hamming_distance_within(&[true; 3], 3), None);
        assert_eq!(full.min_hamming_distance_within(&[true; 3], 0), Some(0));
    }

    #[test]
    fn serde_json_roundtrip() {
        let mut bdd = Bdd::new(4);
        let f = bdd_sample(&mut bdd);
        let snap = BddSnapshot::capture(&bdd, f);
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: BddSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snap, back);
    }
}
