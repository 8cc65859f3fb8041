//! Compiled zone evaluators: the serving-time lowering of a
//! [`BddSnapshot`].
//!
//! A snapshot is already a flat, topo-ordered node array, but walking it
//! *interprets* it: one root-to-terminal walk per pattern,
//! each step a data-dependent branch and a data-dependent load.  This
//! module lowers a snapshot once — at freeze/publish time — into a
//! [`CompiledZone`] that answers the same queries faster, keeping the BDD
//! as the ground truth (every compiled query is pinned bit-identical to
//! the walked snapshot by property tests):
//!
//! * **Flat walk** — the node array re-packed into cache-friendly 12-byte
//!   [`CompiledNode`]s, stepped with branch-free select (`low ^ ((low ^
//!   high) & mask)`) over the pattern's packed `u64` words, so the only
//!   unpredictable thing left is the address stream.
//! * **Bit-sliced block evaluation** ([`CompiledZone::eval_block`]) — 64
//!   patterns packed one-bit-per-lane answer membership in a *single*
//!   pass over the node array: a reachability mask flows root-to-leaves
//!   with two AND/OR pairs per node.  This is the natural shape for the
//!   engine's micro-batches; [`CompiledZone::eval_many`] transposes
//!   pattern words into variable lanes (a 64×64 bit-matrix transpose per
//!   word column) and picks sliced vs. scalar by a cost model.
//! * **Small-zone index** — when the zone holds at most
//!   [`SMALL_ZONE_MAX_PATTERNS`] patterns, compilation enumerates them
//!   outright and membership becomes a range check (contiguous sets) or a
//!   binary search in place over the sorted keys, allocation-free;
//!   min-Hamming becomes a popcount scan.
//!   Seed sets — queried for the distance column of *every* verdict — are
//!   almost always this shape.
//! * **Bounded min-Hamming** — the budget-pruned top-down search
//!   ([`BddSnapshot::min_hamming_distance_within`]) ported onto the same
//!   compiled structure, so graded verdicts ride the compiled path too.
//!
//! **Bits, not levels.**  A snapshot may test its variables in any order
//! (each comfort zone has its own).  Every compiled node stores the
//! *variable* it tests, so each step reads the pattern's own bit, and the
//! walks, the bit-sliced pass and both distance sweeps cost the same in
//! any order: they only follow child links, which point towards the
//! terminals whatever the order.  Levels matter at compile time only, in
//! the snapshot's saturating sat-count and key enumeration
//! ([`BddSnapshot::minterms`]); the keys are plain variable-indexed
//! patterns, so the small-zone index — and the [`CompiledPath`] it picks —
//! is a function of the set alone, the same in every order.
//!
//! Compiled evaluators are **derived, never serialized**: persistence
//! stores snapshots only, and loading recompiles (deterministically — a
//! recompiled evaluator is `==` to a freshly frozen one).

use crate::manager::VarId;
use crate::serialize::BddSnapshot;
use std::cmp::Ordering;

/// Memo byte meaning "no satisfying assignment within the remaining
/// budget" (mirrors the walked snapshot's encoding).
const BOUNDED_NONE: u8 = 0xFE;
/// Memo byte meaning "state not computed yet".
const BOUNDED_UNVISITED: u8 = 0xFF;

/// Sentinel for "unreachable" in the flat min-Hamming sweep.
const DIST_NONE: u32 = u32::MAX;

/// Zones with at most this many satisfying patterns compile to the
/// enumerated small-zone index (sorted keys or a contiguous interval)
/// instead of the node-array evaluators.  Chosen so the index stays a few
/// cache lines per zone and compile-time enumeration stays microseconds.
pub const SMALL_ZONE_MAX_PATTERNS: u64 = 2048;

/// Use the bit-sliced block evaluator instead of per-pattern scalar walks
/// when a group holds at least this many patterns (below it, transposing
/// costs more than it saves).
const SLICED_MIN_GROUP: usize = 8;

/// One lowered decision node: `(var, low, high)` — the variable whose
/// pattern bit it tests, and child indices in the same
/// `0`/`1`-are-terminals encoding as [`BddSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledNode {
    var: VarId,
    low: u32,
    high: u32,
}

/// Which evaluator a [`CompiledZone`] dispatches membership to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledPath {
    /// Contiguous small zone: membership is `lo <= key <= hi`.
    Interval,
    /// Enumerated small zone: binary search over sorted keys.
    SortedKeys,
    /// Node-array evaluation (scalar walk, or bit-sliced for batches).
    FlatWalk,
}

/// The enumerated form of a small zone.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SmallIndex {
    /// All patterns of a contiguous single-word range (sorted keys that
    /// happen to be `lo, lo+1, …, hi`) — membership is two compares.
    /// Only constructed for widths ≤ 64.
    Interval { lo: u64, hi: u64 },
    /// Sorted pattern keys, `stride` words each, compared as word slices.
    /// Empty `keys` encodes the empty zone (membership is always false).
    Sorted { stride: usize, keys: Vec<u64> },
}

/// A [`BddSnapshot`] lowered for serving: flat branch-free evaluation,
/// bit-sliced batch evaluation, an enumerated fast path for small zones,
/// and budget-bounded min-Hamming on the same structure.
///
/// All queries take `&self` on plain immutable data — like the snapshot
/// it was compiled from, any number of threads may share one compiled
/// zone.  Patterns are passed as packed `u64` words, least-significant
/// bit of word 0 = variable 0 (the layout `naps-core`'s `Pattern` already
/// stores); [`pack_words`] converts a `&[bool]` assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledZone {
    num_vars: usize,
    /// Words per packed pattern (`ceil(num_vars / 64)`).
    words_per_pattern: usize,
    nodes: Vec<CompiledNode>,
    root: u32,
    small: Option<SmallIndex>,
}

impl CompiledZone {
    /// Lowers `snapshot` into a compiled evaluator.  Deterministic: equal
    /// snapshots compile to equal (`==`) evaluators, which is what lets
    /// persistence stay snapshot-only.
    ///
    /// The snapshot must be structurally valid (freshly captured, or
    /// gated through [`BddSnapshot::validate`] when read from disk) — the
    /// compiled evaluators index it unchecked.
    pub fn compile(snapshot: &BddSnapshot) -> Self {
        let mut zone = Self::compile_flat_only(snapshot);
        if zone.num_vars > 0 {
            if let Some(keys) = snapshot.minterms(SMALL_ZONE_MAX_PATTERNS) {
                zone.small = Some(SmallIndex::from_sorted(keys, zone.words_per_pattern));
            }
        }
        zone
    }

    /// Lowers `snapshot` without the small-zone index, so every query
    /// runs the node-array evaluators.  The compiled-≡-walked property
    /// tests use this to pin the flat and bit-sliced paths even on zones
    /// small enough that [`CompiledZone::compile`] would index them.
    pub fn compile_flat_only(snapshot: &BddSnapshot) -> Self {
        CompiledZone {
            num_vars: snapshot.num_vars(),
            words_per_pattern: snapshot.num_vars().div_ceil(64),
            nodes: snapshot
                .raw_nodes()
                .iter()
                .map(|&(var, low, high)| CompiledNode { var, low, high })
                .collect(),
            root: snapshot.raw_root(),
            small: None,
        }
    }

    /// Number of variables (pattern width).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of lowered decision nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Packed words per pattern (`ceil(num_vars / 64)`).
    pub fn words_per_pattern(&self) -> usize {
        self.words_per_pattern
    }

    /// Which fast path membership queries take.
    pub fn path(&self) -> CompiledPath {
        match &self.small {
            Some(SmallIndex::Interval { .. }) => CompiledPath::Interval,
            Some(SmallIndex::Sorted { .. }) => CompiledPath::SortedKeys,
            None => CompiledPath::FlatWalk,
        }
    }

    // -----------------------------------------------------------------
    // Membership
    // -----------------------------------------------------------------

    /// Membership of one packed pattern — the compiled counterpart of
    /// [`BddSnapshot::eval`], bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`CompiledZone::words_per_pattern`].
    pub fn eval_words(&self, words: &[u64]) -> bool {
        assert!(
            words.len() >= self.words_per_pattern,
            "pattern words too short for {} variables",
            self.num_vars
        );
        match &self.small {
            Some(index) => self.small_contains(index, words),
            None => self.eval_flat(words),
        }
    }

    /// The flat branch-free walk (used when no small index exists; pub
    /// so tests can pin it independently of dispatch).
    // naps-lint: allow-fn(panic_freedom, "cur >= 2 guards the node-slot offset; node vars are < num_vars in a validated snapshot, so var>>6 < words_per_pattern, and every caller asserts words is at least that long")
    fn eval_flat(&self, words: &[u64]) -> bool {
        let mut cur = self.root;
        while cur >= 2 {
            let n = self.nodes[cur as usize - 2];
            let bit = (words[(n.var >> 6) as usize] >> (n.var & 63)) & 1;
            // Branch-free select: mask is all-ones when the variable is
            // set, so `cur` becomes `high`; all-zeros keeps `low`.
            let mask = (bit as u32).wrapping_neg();
            cur = n.low ^ ((n.low ^ n.high) & mask);
        }
        cur == 1
    }

    /// Bit-sliced membership of up to 64 patterns in one pass over the
    /// node array.
    ///
    /// `var_words[v]` holds variable `v` of all lanes: bit `j` is pattern
    /// `j`'s value of variable `v` (see [`bit_slice_block`]).  `lanes`
    /// masks the occupied lanes; the returned word has bit `j` set iff
    /// lane `j`'s pattern is in the zone (bits outside `lanes` are 0).
    ///
    /// One reachability mask flows from the root towards the terminals:
    /// nodes are topo-ordered children-before-parents, so a single
    /// reverse iteration visits parents first, splitting each node's
    /// arrived lanes between its children with two ANDs — ~6 word ops
    /// per node for 64 patterns, vs. 64 dependent-load walks.
    ///
    /// # Panics
    ///
    /// Panics if `var_words.len() < num_vars`.
    // naps-lint: allow-fn(panic_freedom, "var_words.len() >= num_vars is asserted on entry; root and child slots index the validated topo-ordered node array (terminals are peeled off before subtracting 2)")
    pub fn eval_block(&self, var_words: &[u64], lanes: u64) -> u64 {
        assert!(
            var_words.len() >= self.num_vars,
            "need one sliced word per variable"
        );
        if self.root < 2 {
            return if self.root == 1 { lanes } else { 0 };
        }
        // reach[i] = lanes that arrive at node slot i (terminals folded
        // into `one` below; the root is the highest slot by construction
        // of the topo order).
        let mut reach = vec![0u64; self.nodes.len()];
        reach[self.root as usize - 2] = lanes;
        let mut one = 0u64;
        for idx in (0..self.nodes.len()).rev() {
            let m = reach[idx];
            if m == 0 {
                continue;
            }
            let n = self.nodes[idx];
            let highs = m & var_words[n.var as usize];
            let lows = m & !var_words[n.var as usize];
            for (child, lanes_to) in [(n.high, highs), (n.low, lows)] {
                if child >= 2 {
                    reach[child as usize - 2] |= lanes_to;
                } else if child == 1 {
                    one |= lanes_to;
                }
            }
        }
        one
    }

    /// Membership of many packed patterns, choosing the cheapest
    /// evaluator per group: the small-zone index when one exists,
    /// otherwise bit-sliced blocks of 64 when the group is large enough
    /// to amortise one pass over the node array
    /// (`node_count <= group × width`, at least 8 patterns),
    /// falling back to scalar walks.  Bit-identical to calling
    /// [`CompiledZone::eval_words`] per pattern.
    pub fn eval_many(&self, patterns: &[&[u64]]) -> Vec<bool> {
        if self.small.is_some() || patterns.len() < SLICED_MIN_GROUP {
            return patterns.iter().map(|w| self.eval_words(w)).collect();
        }
        let amortised =
            self.nodes.len() as u64 <= patterns.len() as u64 * self.num_vars.max(1) as u64;
        if !amortised {
            return patterns.iter().map(|w| self.eval_words(w)).collect();
        }
        let mut out = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks(64) {
            let var_words = bit_slice_block(chunk, self.words_per_pattern, self.num_vars);
            let lanes = if chunk.len() == 64 {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            let hits = self.eval_block(&var_words, lanes);
            for j in 0..chunk.len() {
                out.push((hits >> j) & 1 == 1);
            }
        }
        out
    }

    // naps-lint: allow-fn(panic_freedom, "Interval is built only for single-word zones and Sorted returns early on stride 0; callers assert words.len() >= words_per_pattern == stride, and every probed key index is below keys.len() / stride")
    fn small_contains(&self, index: &SmallIndex, words: &[u64]) -> bool {
        match index {
            SmallIndex::Interval { lo, hi } => {
                let key = words[0];
                *lo <= key && key <= *hi
            }
            SmallIndex::Sorted { stride, keys } => {
                if *stride == 0 {
                    return false;
                }
                // Binary search over the strided key array in place.
                let probe = &words[..*stride];
                let (mut lo, mut hi) = (0, keys.len() / stride);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    match keys[mid * stride..(mid + 1) * stride].cmp(probe) {
                        Ordering::Less => lo = mid + 1,
                        Ordering::Greater => hi = mid,
                        Ordering::Equal => return true,
                    }
                }
                false
            }
        }
    }

    // -----------------------------------------------------------------
    // Min-Hamming distance
    // -----------------------------------------------------------------

    /// Minimum Hamming distance from the packed pattern to any pattern in
    /// the zone, `None` for the empty zone — the compiled counterpart of
    /// [`BddSnapshot::min_hamming_distance`], bit-identical to it.
    ///
    /// Small zones scan their enumerated keys with XOR + popcount; flat
    /// zones run the bottom-up sweep over the node array with a `u32`
    /// sentinel array (no `Option` branching).
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`CompiledZone::words_per_pattern`].
    pub fn min_hamming_distance_words(&self, words: &[u64]) -> Option<u32> {
        assert!(
            words.len() >= self.words_per_pattern,
            "pattern words too short for {} variables",
            self.num_vars
        );
        match &self.small {
            Some(index) => self.small_min_hamming(index, words, u32::MAX),
            None => self.flat_min_hamming(words),
        }
    }

    /// Budget-bounded [`CompiledZone::min_hamming_distance_words`]:
    /// `Some(d)` iff the distance `d` is at most `budget` — bit-identical
    /// to [`BddSnapshot::min_hamming_distance_within`], which it lowers
    /// onto the compiled structure (same memo layout, same
    /// branch-and-bound, same degenerate-budget fallback), so graded
    /// verdicts ride the compiled path.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`CompiledZone::words_per_pattern`].
    pub fn min_hamming_distance_within_words(&self, words: &[u64], budget: u32) -> Option<u32> {
        assert!(
            words.len() >= self.words_per_pattern,
            "pattern words too short for {} variables",
            self.num_vars
        );
        if let Some(index) = &self.small {
            return self.small_min_hamming(index, words, budget);
        }
        if self.eval_flat(words) {
            return Some(0);
        }
        if self.root == 0 {
            return None;
        }
        // Degenerate budgets cannot prune (or don't fit the byte memo):
        // fall back to the full sweep, exactly like the walked query.
        if budget as usize >= self.num_vars || budget >= BOUNDED_NONE as u32 {
            return self.flat_min_hamming(words).filter(|&d| d <= budget);
        }
        let stride = budget as usize + 1;
        let mut memo = vec![BOUNDED_UNVISITED; (self.nodes.len() + 2) * stride];
        let d = self.bounded_rec(self.root, words, budget, stride, &mut memo);
        (d != BOUNDED_NONE).then_some(u32::from(d))
    }

    /// Popcount scan over the enumerated keys; `budget == u32::MAX`
    /// means unbounded.  The minimum XOR-popcount over exactly the
    /// satisfying assignments *is* the min-Hamming distance, so this
    /// agrees with the node-array sweeps by construction.
    // naps-lint: allow-fn(panic_freedom, "Interval is built only for single-word zones; callers assert words.len() >= words_per_pattern, and zip bounds the key iteration")
    fn small_min_hamming(&self, index: &SmallIndex, words: &[u64], budget: u32) -> Option<u32> {
        let mut best = u32::MAX;
        match index {
            SmallIndex::Interval { lo, hi } => {
                let key = words[0];
                for k in *lo..=*hi {
                    best = best.min((k ^ key).count_ones());
                    if best == 0 {
                        break;
                    }
                }
            }
            SmallIndex::Sorted { stride, keys } => {
                if *stride == 0 {
                    return None;
                }
                for k in keys.chunks_exact(*stride) {
                    let d: u32 = k.iter().zip(words).map(|(a, b)| (a ^ b).count_ones()).sum();
                    best = best.min(d);
                    if best == 0 {
                        break;
                    }
                }
            }
        }
        (best != u32::MAX && best <= budget).then_some(best)
    }

    /// Bottom-up sweep with a `u32` sentinel array: one pass over the
    /// node array, `DIST_NONE` standing in for "unreachable" so the inner
    /// loop is pure integer min/add.
    // naps-lint: allow-fn(panic_freedom, "dist has one slot per node plus the two terminals; child and root offsets are in range for a validated topo-ordered snapshot, and i+2 is node i's own slot")
    fn flat_min_hamming(&self, words: &[u64]) -> Option<u32> {
        if self.root < 2 {
            return (self.root == 1).then_some(0);
        }
        let mut dist = vec![0u32; self.nodes.len() + 2];
        dist[0] = DIST_NONE;
        dist[1] = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            let bit = (words[(n.var >> 6) as usize] >> (n.var & 63)) & 1;
            let (agree, disagree) = if bit == 1 {
                (n.high, n.low)
            } else {
                (n.low, n.high)
            };
            let a = dist[agree as usize];
            let d = dist[disagree as usize];
            let d1 = if d == DIST_NONE { DIST_NONE } else { d + 1 };
            dist[i + 2] = a.min(d1);
        }
        let d = dist[self.root as usize];
        (d != DIST_NONE).then_some(d)
    }

    /// The budget-pruned top-down search of the walked snapshot, ported
    /// verbatim onto the compiled node array (same `(node, slack)` memo,
    /// same branch-and-bound slack tightening, same slack-0 agree-chain
    /// walk) — structure and visit order are identical, so results are
    /// too.
    // naps-lint: allow-fn(panic_freedom, "memo spans (node_count + 2) * stride bytes and key = entry * stride + slack with slack < stride, so every validated entry fits; terminals return before the node-slot offset")
    fn bounded_rec(
        &self,
        entry: u32,
        words: &[u64],
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
            return self.agree_walk(entry, words, stride, memo);
        }
        let key = entry as usize * stride + slack as usize;
        let cached = memo[key];
        if cached != BOUNDED_UNVISITED {
            return cached;
        }
        let n = self.nodes[entry as usize - 2];
        let bit = (words[(n.var >> 6) as usize] >> (n.var & 63)) & 1;
        let (agree, disagree) = if bit == 1 {
            (n.high, n.low)
        } else {
            (n.low, n.high)
        };
        let d_agree = self.bounded_rec(agree, words, slack, stride, memo);
        let d = if d_agree <= 1 {
            d_agree
        } else {
            let sub_slack = (slack - 1).min(u32::from(d_agree) - 2);
            match self.bounded_rec(disagree, words, sub_slack, stride, memo) {
                BOUNDED_NONE => d_agree,
                sub => d_agree.min(sub + 1),
            }
        };
        memo[key] = d;
        d
    }

    /// Slack-0 base layer: only agreeing edges may be followed, so the
    /// search is a straight chain walk, memoised along the whole chain.
    // naps-lint: allow-fn(panic_freedom, "cur > 1 guards every memo probe and node-slot offset; memo spans (node_count + 2) * stride bytes, covering cur * stride for every validated node index")
    fn agree_walk(&self, entry: u32, words: &[u64], stride: usize, memo: &mut [u8]) -> u8 {
        let step = |cur: u32| {
            let n = self.nodes[cur as usize - 2];
            let bit = (words[(n.var >> 6) as usize] >> (n.var & 63)) & 1;
            if bit == 1 {
                n.high
            } else {
                n.low
            }
        };
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
            cur = step(cur);
        };
        let mut cur = entry;
        while cur > 1 && memo[cur as usize * stride] == BOUNDED_UNVISITED {
            memo[cur as usize * stride] = verdict;
            cur = step(cur);
        }
        verdict
    }
}

impl SmallIndex {
    /// The index of a zone whose satisfying patterns are `keys` (sorted
    /// packed patterns, `stride` words each): an interval when they are
    /// contiguous single words, else the sorted keys themselves.
    // naps-lint: allow-fn(panic_freedom, "the first/last index is taken only when the key list is non-empty; compile-time only, never on the serving path")
    fn from_sorted(keys: Vec<u64>, stride: usize) -> Self {
        if stride == 1 && !keys.is_empty() {
            let (lo, hi) = (keys[0], keys[keys.len() - 1]);
            if hi - lo + 1 == keys.len() as u64 {
                return SmallIndex::Interval { lo, hi };
            }
        }
        SmallIndex::Sorted { stride, keys }
    }
}

/// Packs a `&[bool]` assignment into `u64` words, least-significant bit
/// of word 0 = variable 0 — the layout [`CompiledZone`] queries take and
/// `naps-core`'s `Pattern` stores.
// naps-lint: allow-fn(panic_freedom, "words has ceil(bits.len()/64) entries, so i/64 is in range for every bit index i")
pub fn pack_words(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// Transposes up to 64 packed patterns into variable lanes for
/// [`CompiledZone::eval_block`]: the returned vector has one word per
/// variable, bit `j` of word `v` = pattern `j`'s variable `v`.  Patterns
/// beyond the chunk are zero lanes (mask them via the `lanes` argument).
///
/// Uses a 64×64 bit-matrix transpose per word column (`O(64 log 64)` word
/// ops) rather than per-bit extraction.
// naps-lint: allow-fn(panic_freedom, "at most 64 lanes is asserted, so block[j] is in range; each lane carries words_per_pattern words by the documented layout; base + take <= num_vars bounds the copy")
pub fn bit_slice_block(patterns: &[&[u64]], words_per_pattern: usize, num_vars: usize) -> Vec<u64> {
    assert!(patterns.len() <= 64, "at most 64 lanes per block");
    let mut out = vec![0u64; num_vars];
    let mut block = [0u64; 64];
    for w in 0..words_per_pattern {
        for b in block.iter_mut() {
            *b = 0;
        }
        for (j, p) in patterns.iter().enumerate() {
            block[j] = p[w];
        }
        transpose64(&mut block);
        let base = w * 64;
        let take = num_vars.saturating_sub(base).min(64);
        out[base..base + take].copy_from_slice(&block[..take]);
    }
    out
}

/// In-place 64×64 bit-matrix transpose: afterwards, bit `r` of word `c`
/// equals bit `c` of the original word `r`.
// naps-lint: allow-fn(panic_freedom, "a is a fixed 64-word array and the butterfly iteration keeps bit j of k clear, so k and k + j both stay below 64")
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            // LSB-first orientation: compare the high half of `a[k]`
            // with the low half of `a[k + j]` and swap the difference.
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Bdd;

    fn snapshot_of(
        build: impl FnOnce(&mut Bdd) -> crate::manager::NodeId,
        vars: usize,
    ) -> BddSnapshot {
        let mut bdd = Bdd::new(vars);
        let f = build(&mut bdd);
        BddSnapshot::capture(&bdd, f)
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64) << 17;
        }
        let original = a;
        transpose64(&mut a);
        for (r, row) in original.iter().enumerate() {
            for (c, col) in a.iter().enumerate() {
                assert_eq!(
                    (col >> r) & 1,
                    (row >> c) & 1,
                    "bit ({r},{c}) transposed wrong"
                );
            }
        }
        // Involution.
        transpose64(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn compiled_eval_matches_snapshot_all_paths() {
        let snap = snapshot_of(
            |bdd| {
                let p = bdd.cube_from_bools(&[true, false, true, false, true]);
                let q = bdd.cube_from_bools(&[false, true, false, true, false]);
                let u = bdd.or(p, q);
                bdd.dilate(u, 1)
            },
            5,
        );
        let compiled = CompiledZone::compile(&snap);
        let flat = CompiledZone::compile_flat_only(&snap);
        assert_eq!(flat.path(), CompiledPath::FlatWalk);
        for m in 0..32usize {
            let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let words = pack_words(&bits);
            let expect = snap.eval(&bits);
            assert_eq!(compiled.eval_words(&words), expect, "dispatch {m:05b}");
            assert_eq!(flat.eval_words(&words), expect, "flat {m:05b}");
        }
        // Bit-sliced: all 32 assignments in one block.
        let packed: Vec<Vec<u64>> = (0..32usize)
            .map(|m| {
                let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
                pack_words(&bits)
            })
            .collect();
        let refs: Vec<&[u64]> = packed.iter().map(|w| w.as_slice()).collect();
        let var_words = bit_slice_block(&refs, 1, 5);
        let hits = flat.eval_block(&var_words, (1u64 << 32) - 1);
        for (m, r) in refs.iter().enumerate() {
            assert_eq!((hits >> m) & 1 == 1, flat.eval_words(r), "lane {m}");
        }
    }

    #[test]
    fn small_zone_builds_interval_or_sorted_index() {
        // A dilated cube over 6 vars: small, not contiguous.
        let snap = snapshot_of(
            |bdd| {
                let f = bdd.cube_from_bools(&[true, false, true, false, true, false]);
                bdd.dilate(f, 1)
            },
            6,
        );
        let compiled = CompiledZone::compile(&snap);
        assert_eq!(compiled.path(), CompiledPath::SortedKeys);
        for m in 0..64u64 {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let words = pack_words(&bits);
            assert_eq!(compiled.eval_words(&words), snap.eval(&bits));
        }
        // Contiguous: the patterns with var 2 clear are the keys 0..=3.
        let snap = snapshot_of(
            |bdd| {
                let a = bdd.nvar(2); // bit 2 clear -> keys 0..=3 over 3 vars
                a
            },
            3,
        );
        let compiled = CompiledZone::compile(&snap);
        assert_eq!(compiled.path(), CompiledPath::Interval);
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let words = pack_words(&bits);
            assert_eq!(compiled.eval_words(&words), snap.eval(&bits));
        }
    }

    #[test]
    fn empty_and_full_zones_compile() {
        let empty = snapshot_of(|bdd| bdd.zero(), 4);
        let full = snapshot_of(|bdd| bdd.one(), 4);
        let ce = CompiledZone::compile(&empty);
        let cf = CompiledZone::compile(&full);
        for m in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let words = pack_words(&bits);
            assert!(!ce.eval_words(&words));
            assert!(cf.eval_words(&words));
            assert_eq!(ce.min_hamming_distance_words(&words), None);
            assert_eq!(cf.min_hamming_distance_words(&words), Some(0));
        }
        // Full zone over 4 vars has 16 patterns: small, contiguous.
        assert_eq!(cf.path(), CompiledPath::Interval);
    }

    #[test]
    fn width_zero_zones_compile() {
        let empty = snapshot_of(|bdd| bdd.zero(), 0);
        let full = snapshot_of(|bdd| bdd.one(), 0);
        let ce = CompiledZone::compile(&empty);
        let cf = CompiledZone::compile(&full);
        assert!(!ce.eval_words(&[]));
        assert!(cf.eval_words(&[]));
        assert_eq!(ce.min_hamming_distance_words(&[]), None);
        assert_eq!(cf.min_hamming_distance_words(&[]), Some(0));
        assert_eq!(cf.min_hamming_distance_within_words(&[], 0), Some(0));
        assert_eq!(ce.min_hamming_distance_within_words(&[], 0), None);
    }

    #[test]
    fn distances_match_snapshot_on_both_paths() {
        let snap = snapshot_of(
            |bdd| {
                let p = bdd.cube_from_bools(&[true, false, true, false, true, true]);
                let q = bdd.cube_from_bools(&[false, true, false, true, false, false]);
                bdd.or(p, q)
            },
            6,
        );
        let compiled = CompiledZone::compile(&snap);
        let flat = CompiledZone::compile_flat_only(&snap);
        for m in 0..64usize {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let words = pack_words(&bits);
            let expect = snap.min_hamming_distance(&bits);
            assert_eq!(compiled.min_hamming_distance_words(&words), expect);
            assert_eq!(flat.min_hamming_distance_words(&words), expect);
            for budget in 0..=7u32 {
                let expect = snap.min_hamming_distance_within(&bits, budget);
                assert_eq!(
                    compiled.min_hamming_distance_within_words(&words, budget),
                    expect,
                    "small path m={m} budget={budget}"
                );
                assert_eq!(
                    flat.min_hamming_distance_within_words(&words, budget),
                    expect,
                    "flat path m={m} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn eval_many_agrees_with_scalar_across_group_sizes() {
        let snap = snapshot_of(
            |bdd| {
                let p = bdd.cube_from_bools(&[true; 8]);
                bdd.dilate(p, 3)
            },
            8,
        );
        for zone in [
            CompiledZone::compile(&snap),
            CompiledZone::compile_flat_only(&snap),
        ] {
            let packed: Vec<Vec<u64>> = (0..256usize)
                .map(|m| {
                    let bits: Vec<bool> = (0..8).map(|i| (m >> i) & 1 == 1).collect();
                    pack_words(&bits)
                })
                .collect();
            for take in [0usize, 1, 7, 8, 63, 64, 65, 200, 256] {
                let refs: Vec<&[u64]> = packed[..take].iter().map(|w| w.as_slice()).collect();
                let many = zone.eval_many(&refs);
                for (r, got) in refs.iter().zip(&many) {
                    assert_eq!(*got, zone.eval_words(r));
                }
            }
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let snap = snapshot_of(
            |bdd| {
                let p = bdd.cube_from_bools(&[true, false, true, false]);
                bdd.dilate(p, 1)
            },
            4,
        );
        assert_eq!(CompiledZone::compile(&snap), CompiledZone::compile(&snap));
    }

    #[test]
    fn wide_patterns_use_multi_word_keys() {
        // 70 variables: two words per pattern.
        let mut bits = vec![false; 70];
        bits[0] = true;
        bits[69] = true;
        let snap = snapshot_of(|bdd| bdd.cube_from_bools(&bits), 70);
        let compiled = CompiledZone::compile(&snap);
        assert_eq!(compiled.path(), CompiledPath::SortedKeys);
        assert!(compiled.eval_words(&pack_words(&bits)));
        let mut off = bits.clone();
        off[35] = true;
        let off = pack_words(&off);
        assert!(!compiled.eval_words(&off));
        assert_eq!(compiled.min_hamming_distance_words(&off), Some(1));
        assert_eq!(compiled.min_hamming_distance_within_words(&off, 0), None);
        assert_eq!(compiled.min_hamming_distance_within_words(&off, 1), Some(1));
    }
}
