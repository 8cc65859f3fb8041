//! Comfort-zone storage backends (Definition 2, `Z^γ_c`).
//!
//! [`BddZone`] is the paper's representation: patterns live in a BDD, the
//! γ-enlargement is the Hamming-ball dilation [`naps_bdd::Bdd::dilate`]
//! (the set the paper builds by iterated existential quantification), and
//! the membership query is linear in the number of monitored neurons.
//! [`ExactZone`] is the obvious explicit alternative — a hash set of seed
//! patterns with per-seed Hamming checks — kept as a semantic reference and
//! as the baseline the benchmarks compare against.
//!
//! # The sealed lifecycle of a [`BddZone`]
//!
//! A BDD's size depends on its variable order, and a zone's order is part
//! of its diagram.  A zone therefore does not build its diagram while
//! Algorithm 1 replays the training set: [`Zone::insert`] only buffers the
//! patterns.  The first [`Zone::enlarge_to`], query or snapshot **seals**
//! the buffer:
//!
//! 1. sort and deduplicate the buffered patterns;
//! 2. fix the variable order as [`crate::order_by_bias`] over the
//!    distinct patterns (ties by neuron index);
//! 3. build the seed diagram bottom-up from the sorted keys
//!    ([`naps_bdd::Bdd::union_of_cubes`]), each node made once;
//! 4. dilate to the zone's γ.
//!
//! A sealed zone's diagram is a function of its distinct seeds alone, so
//! every route to the same seeds — [`crate::MonitorBuilder::build`], or
//! `empty` → `insert` (any order, any duplicates) → `enlarge_to` by hand —
//! yields the same diagram, byte for byte.  Patterns inserted after
//! sealing ([`crate::Monitor::enrich`]) go straight into the diagram, in
//! the order already fixed.  `&self` queries may seal an unsealed zone
//! (the diagram sits in a [`OnceLock`]), which is what a query at γ = 0
//! before any `enlarge_to` does.
//!
//! Every query still takes neuron-indexed patterns: the order only
//! decides how big the diagram is, never what it answers.

use crate::ordering::order_by_bias;
use crate::pattern::Pattern;
use naps_bdd::{Bdd, BddSnapshot, NodeId};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Storage for one class's γ-comfort zone.
///
/// Lifecycle: create with [`Zone::empty`], [`Zone::insert`] every visited
/// pattern (Algorithm 1 lines 4–8), then [`Zone::enlarge_to`] the target
/// `γ` (lines 9–14).  `enlarge_to` may be called repeatedly with growing
/// `γ` — e.g. by the abstraction sweep of Section III — and is monotone:
/// the stored set only grows.
pub trait Zone: std::fmt::Debug + Send + Sync {
    /// An empty zone over `width`-neuron patterns.
    fn empty(width: usize) -> Self
    where
        Self: Sized;

    /// Pattern width (number of monitored neurons).
    fn width(&self) -> usize;

    /// Adds a visited pattern to the seed set `Z^0_c`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the zone width.
    fn insert(&mut self, pattern: &Pattern);

    /// Enlarges the zone to Hamming radius `gamma` around the seeds.
    ///
    /// # Panics
    ///
    /// May panic if called with a `gamma` smaller than a previously
    /// requested one (zones only grow).
    fn enlarge_to(&mut self, gamma: u32);

    /// Current radius γ.
    fn gamma(&self) -> u32;

    /// Membership query: is `pattern` inside `Z^γ_c`?
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the zone width.
    fn contains(&self, pattern: &Pattern) -> bool;

    /// Minimum Hamming distance from `pattern` to the **seed** set
    /// `Z^0_c`, or `None` if no pattern was inserted.  `Some(0)` means the
    /// exact pattern was visited in training.
    fn distance_to_seeds(&self, pattern: &Pattern) -> Option<u32>;

    /// Minimum Hamming distance from `pattern` to the **enlarged** zone
    /// `Z^γ_c`, but only when it is at most `budget` — `None` when the
    /// zone is empty or further than the budget.  `Some(0)` iff
    /// [`Zone::contains`] holds.  This is the graded monitor's query:
    /// implementations prune the search at the budget instead of
    /// computing the full distance.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the zone width.
    fn distance_to_zone_within(&self, pattern: &Pattern, budget: u32) -> Option<u32>;

    /// Number of distinct seed patterns inserted.  Implementations whose
    /// counting can exceed `usize` (e.g. diagram-based counting over very
    /// wide patterns) saturate at `usize::MAX` instead of wrapping.
    fn seed_count(&self) -> usize;
}

/// BDD-backed comfort zone (the paper's representation), sealed in its
/// own activation-bias variable order (see the module docs).
#[derive(Debug)]
pub struct BddZone {
    width: usize,
    gamma: u32,
    /// Patterns inserted before the diagram was first needed; emptied
    /// once a `&mut` call finds the zone sealed.
    pending: Vec<Pattern>,
    diagram: OnceLock<Diagram>,
}

/// A sealed zone's manager, with the seed set and the enlarged zone.
#[derive(Debug)]
struct Diagram {
    bdd: Bdd,
    seeds: NodeId,
    zone: NodeId,
}

impl Diagram {
    /// Seals `patterns`: distinct patterns, their bias order, the seed
    /// diagram built bottom-up in it, dilated to `gamma`.
    fn seal(width: usize, patterns: &[Pattern], gamma: u32) -> Self {
        let mut distinct: Vec<&Pattern> = patterns.iter().collect();
        distinct.sort_unstable_by(|a, b| a.words().cmp(b.words()));
        distinct.dedup();
        let order = if distinct.is_empty() {
            (0..width as u32).collect()
        } else {
            order_by_bias(&distinct)
        };
        let mut bdd = Bdd::with_order(order);
        let keys: Vec<&[u64]> = distinct.iter().map(|p| p.words()).collect();
        let seeds = bdd.union_of_cubes(&keys);
        let zone = bdd.dilate(seeds, gamma);
        Diagram { bdd, seeds, zone }
    }
}

impl BddZone {
    /// The diagram, sealing the insert buffer first if needed.
    fn diagram(&self) -> &Diagram {
        self.diagram
            .get_or_init(|| Diagram::seal(self.width, &self.pending, self.gamma))
    }

    /// The diagram for a change, sealing first if needed; the buffer is
    /// released once the zone is sealed.
    fn diagram_mut(&mut self) -> &mut Diagram {
        self.diagram();
        self.pending = Vec::new();
        let Some(diagram) = self.diagram.get_mut() else {
            unreachable!("sealed on the line above");
        };
        diagram
    }

    /// Decision-diagram node count of the enlarged zone (a size metric for
    /// the benchmarks).
    pub fn node_count(&self) -> usize {
        let d = self.diagram();
        d.bdd.node_count(d.zone)
    }

    /// Number of patterns contained in the enlarged zone.
    pub fn pattern_count(&self) -> f64 {
        let d = self.diagram();
        d.bdd.sat_count(d.zone)
    }

    /// Serializable snapshot of the **seed** set plus γ; restoring
    /// re-dilates, which is cheaper than storing the enlarged diagram.
    pub fn snapshot(&self) -> (BddSnapshot, u32) {
        (self.seed_snapshot(), self.gamma)
    }

    /// Serializable snapshot of the **enlarged** zone `Z^γ_c` itself.
    ///
    /// Unlike [`BddZone::snapshot`] — which stores only the seed set and
    /// re-dilates on restore — this captures the dilated diagram, so a
    /// serving layer needs no manager, no re-dilation and no locking.
    /// `naps-serve` freezes one of these per class, compiles it into a
    /// [`naps_bdd::CompiledZone`] that every serving query runs on, and
    /// keeps the snapshot as what persists and as the walked oracle
    /// ([`BddSnapshot::eval`]).  Both snapshots carry the zone's variable
    /// order.
    pub fn zone_snapshot(&self) -> BddSnapshot {
        let d = self.diagram();
        BddSnapshot::capture(&d.bdd, d.zone)
    }

    /// Snapshot of the **seed** set `Z^0_c` alone (the first component of
    /// [`BddZone::snapshot`]), used for frozen distance-to-seeds queries.
    pub fn seed_snapshot(&self) -> BddSnapshot {
        let d = self.diagram();
        BddSnapshot::capture(&d.bdd, d.seeds)
    }

    /// Restores a zone from a snapshot produced by [`BddZone::snapshot`],
    /// in the snapshot's own variable order.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`naps_bdd::BddError`] if the snapshot is
    /// corrupt or has a different width.
    pub fn from_snapshot(snapshot: &BddSnapshot, gamma: u32) -> Result<Self, naps_bdd::BddError> {
        snapshot.validate()?;
        let mut bdd = Bdd::with_order(snapshot.order());
        let seeds = snapshot.restore(&mut bdd)?;
        let zone = bdd.dilate(seeds, gamma);
        Ok(BddZone {
            width: snapshot.num_vars(),
            gamma,
            pending: Vec::new(),
            diagram: OnceLock::from(Diagram { bdd, seeds, zone }),
        })
    }
}

impl Zone for BddZone {
    fn empty(width: usize) -> Self {
        BddZone {
            width,
            gamma: 0,
            pending: Vec::new(),
            diagram: OnceLock::new(),
        }
    }

    fn width(&self) -> usize {
        self.width
    }

    fn insert(&mut self, pattern: &Pattern) {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let Some(d) = self.diagram.get_mut() else {
            self.pending.push(pattern.clone());
            return;
        };
        self.pending = Vec::new();
        let cube = d.bdd.cube_from_bools(&pattern.to_bools());
        d.seeds = d.bdd.or(d.seeds, cube);
        // Keep the enlarged zone consistent with the current gamma: a
        // seed inserted after sealing is dilated on insertion.
        if self.gamma == 0 {
            d.zone = d.seeds;
        } else {
            let ball = d.bdd.dilate(cube, self.gamma);
            d.zone = d.bdd.or(d.zone, ball);
        }
    }

    fn enlarge_to(&mut self, gamma: u32) {
        assert!(
            gamma >= self.gamma,
            "zones only grow: current gamma {} > requested {gamma}",
            self.gamma
        );
        let extra = gamma - self.gamma;
        if self.diagram.get().is_none() {
            // Seal straight at the new radius.
            self.gamma = gamma;
            self.diagram_mut();
        } else if extra > 0 {
            let d = self.diagram_mut();
            d.zone = d.bdd.dilate(d.zone, extra);
            self.gamma = gamma;
        }
    }

    fn gamma(&self) -> u32 {
        self.gamma
    }

    fn contains(&self, pattern: &Pattern) -> bool {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let d = self.diagram();
        d.bdd.eval(d.zone, &pattern.to_bools())
    }

    fn distance_to_seeds(&self, pattern: &Pattern) -> Option<u32> {
        let d = self.diagram();
        d.bdd.min_hamming_distance(d.seeds, &pattern.to_bools())
    }

    fn distance_to_zone_within(&self, pattern: &Pattern, budget: u32) -> Option<u32> {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let d = self.diagram();
        d.bdd
            .min_hamming_distance_within(d.zone, &pattern.to_bools(), budget)
    }

    /// Counted on the diagram via [`naps_bdd::Bdd::sat_count`], which
    /// returns `f64`; counts at or above `usize::MAX` (reachable only for
    /// astronomically large seed sets, or any non-empty set over > 1023
    /// neurons where the count itself overflows to infinity) **saturate**
    /// to `usize::MAX` rather than truncating, and counts above `2^53`
    /// are subject to `f64` rounding.
    fn seed_count(&self) -> usize {
        let d = self.diagram();
        let count = d.bdd.sat_count(d.seeds);
        if count >= usize::MAX as f64 {
            usize::MAX
        } else {
            count as usize
        }
    }
}

impl BddZone {
    /// Minimum Hamming distance from `pattern` to the **enlarged** zone
    /// `Z^γ_c` without a budget — the full memoised sweep, kept as the
    /// reference [`Zone::distance_to_zone_within`] is verified and
    /// benchmarked against.  `Some(0)` ⇔ [`Zone::contains`].
    pub fn distance_to_zone(&self, pattern: &Pattern) -> Option<u32> {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let d = self.diagram();
        d.bdd.min_hamming_distance(d.zone, &pattern.to_bools())
    }

    /// Garbage-collects the underlying manager: only the seed set and the
    /// enlarged zone survive, in the same variable order.  Construction
    /// and γ sweeps leave many dead intermediate diagrams behind;
    /// compacting a finished zone typically shrinks its arena by an order
    /// of magnitude before deployment.
    pub fn compact(&mut self) {
        let d = self.diagram_mut();
        let (fresh, roots) = d.bdd.compact(&[d.seeds, d.zone]);
        *d = Diagram {
            bdd: fresh,
            seeds: roots[0],
            zone: roots[1],
        };
    }

    /// Total nodes allocated in the manager (live + garbage); compare
    /// before/after [`BddZone::compact`].
    pub fn allocated_nodes(&self) -> usize {
        self.diagram().bdd.stats().allocated_nodes
    }
}

/// Explicit-set comfort zone: seeds in a hash set, membership by scanning
/// seed distances.  Exact but O(#seeds) per query — the baseline that
/// motivates the BDD.
#[derive(Debug, Clone)]
pub struct ExactZone {
    width: usize,
    seeds: HashSet<Pattern>,
    gamma: u32,
}

impl Zone for ExactZone {
    fn empty(width: usize) -> Self {
        ExactZone {
            width,
            seeds: HashSet::new(),
            gamma: 0,
        }
    }

    fn width(&self) -> usize {
        self.width
    }

    fn insert(&mut self, pattern: &Pattern) {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        self.seeds.insert(pattern.clone());
    }

    fn enlarge_to(&mut self, gamma: u32) {
        assert!(
            gamma >= self.gamma,
            "zones only grow: current gamma {} > requested {gamma}",
            self.gamma
        );
        self.gamma = gamma;
    }

    fn gamma(&self) -> u32 {
        self.gamma
    }

    fn contains(&self, pattern: &Pattern) -> bool {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        // Fast path: exact membership.
        if self.seeds.contains(pattern) {
            return true;
        }
        self.seeds.iter().any(|s| s.hamming(pattern) <= self.gamma)
    }

    fn distance_to_seeds(&self, pattern: &Pattern) -> Option<u32> {
        self.seeds.iter().map(|s| s.hamming(pattern)).min()
    }

    /// The enlarged zone is a union of radius-γ balls around the seeds,
    /// so the distance to it is `max(0, distance_to_seeds − γ)`.
    fn distance_to_zone_within(&self, pattern: &Pattern, budget: u32) -> Option<u32> {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        self.seeds
            .iter()
            .map(|s| s.hamming(pattern).saturating_sub(self.gamma))
            .min()
            .filter(|&d| d <= budget)
    }

    fn seed_count(&self) -> usize {
        self.seeds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: &[u8]) -> Pattern {
        Pattern::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    /// `snapshot`'s function re-expressed in index order: by canonicity,
    /// the snapshot a zone of the same set built in index order captures.
    fn in_index_order(snapshot: &BddSnapshot) -> BddSnapshot {
        let mut bdd = Bdd::with_order(snapshot.order());
        let root = snapshot.restore(&mut bdd).expect("restore");
        let identity: Vec<u32> = (0..snapshot.num_vars() as u32).collect();
        let (fresh, roots) = bdd.reorder(&[root], &identity);
        BddSnapshot::capture(&fresh, roots[0])
    }

    fn backend_contract<Z: Zone>() {
        let mut z = Z::empty(5);
        assert_eq!(z.width(), 5);
        assert_eq!(z.seed_count(), 0);
        assert!(!z.contains(&p(&[0, 0, 0, 0, 0])));
        assert_eq!(z.distance_to_seeds(&p(&[0, 0, 0, 0, 0])), None);

        z.insert(&p(&[1, 0, 1, 0, 1]));
        z.insert(&p(&[0, 0, 0, 0, 0]));
        z.insert(&p(&[1, 0, 1, 0, 1])); // duplicate
        assert_eq!(z.seed_count(), 2);

        // γ = 0: exact membership only.
        assert!(z.contains(&p(&[1, 0, 1, 0, 1])));
        assert!(!z.contains(&p(&[1, 1, 1, 0, 1])));
        assert_eq!(z.distance_to_seeds(&p(&[1, 1, 1, 0, 1])), Some(1));

        // γ = 1: radius-one ball.
        z.enlarge_to(1);
        assert_eq!(z.gamma(), 1);
        assert!(z.contains(&p(&[1, 1, 1, 0, 1])));
        assert!(!z.contains(&p(&[1, 1, 1, 1, 1])));

        // γ = 2 reached incrementally.
        z.enlarge_to(2);
        assert!(z.contains(&p(&[1, 1, 1, 1, 1])));
        // Distance to seeds is unaffected by enlargement.
        assert_eq!(z.distance_to_seeds(&p(&[1, 1, 1, 0, 1])), Some(1));
    }

    #[test]
    fn bdd_zone_satisfies_contract() {
        backend_contract::<BddZone>();
    }

    #[test]
    fn exact_zone_satisfies_contract() {
        backend_contract::<ExactZone>();
    }

    #[test]
    fn backends_agree_on_random_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        for gamma in 0..3u32 {
            let mut b = BddZone::empty(8);
            let mut e = ExactZone::empty(8);
            for _ in 0..12 {
                let bits: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
                let pat = Pattern::from_bools(&bits);
                b.insert(&pat);
                e.insert(&pat);
            }
            b.enlarge_to(gamma);
            e.enlarge_to(gamma);
            for _ in 0..100 {
                let bits: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
                let probe = Pattern::from_bools(&bits);
                assert_eq!(
                    b.contains(&probe),
                    e.contains(&probe),
                    "gamma={gamma} probe={probe}"
                );
                assert_eq!(b.distance_to_seeds(&probe), e.distance_to_seeds(&probe));
            }
        }
    }

    fn zone_distance_contract<Z: Zone>() {
        let mut z = Z::empty(5);
        assert_eq!(z.distance_to_zone_within(&p(&[0, 0, 0, 0, 0]), 5), None);
        z.insert(&p(&[1, 1, 0, 0, 0]));
        z.insert(&p(&[0, 0, 0, 1, 1]));
        z.enlarge_to(1);
        // Inside the enlarged zone: distance 0, regardless of budget.
        assert_eq!(z.distance_to_zone_within(&p(&[1, 1, 0, 0, 1]), 0), Some(0));
        // One flip outside the zone (two from the nearest seed).
        let probe = p(&[1, 1, 1, 0, 1]);
        assert!(!z.contains(&probe));
        assert_eq!(z.distance_to_zone_within(&probe, 1), Some(1));
        assert_eq!(z.distance_to_zone_within(&probe, 0), None, "beyond budget");
        // Distance to the zone is seed distance minus gamma, floored at 0.
        let far = p(&[1, 0, 1, 0, 1]);
        let d_seeds = z.distance_to_seeds(&far).unwrap();
        assert_eq!(
            z.distance_to_zone_within(&far, 5),
            Some(d_seeds.saturating_sub(1))
        );
    }

    #[test]
    fn bdd_zone_bounded_zone_distance() {
        zone_distance_contract::<BddZone>();
    }

    #[test]
    fn exact_zone_bounded_zone_distance() {
        zone_distance_contract::<ExactZone>();
    }

    #[test]
    fn backends_agree_on_bounded_zone_distance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for gamma in 0..3u32 {
            let mut b = BddZone::empty(8);
            let mut e = ExactZone::empty(8);
            for _ in 0..10 {
                let bits: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
                let pat = Pattern::from_bools(&bits);
                b.insert(&pat);
                e.insert(&pat);
            }
            b.enlarge_to(gamma);
            e.enlarge_to(gamma);
            for _ in 0..100 {
                let bits: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
                let probe = Pattern::from_bools(&bits);
                for budget in 0..5u32 {
                    assert_eq!(
                        b.distance_to_zone_within(&probe, budget),
                        e.distance_to_zone_within(&probe, budget),
                        "gamma={gamma} budget={budget} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_after_enlarge_keeps_zone_consistent() {
        let mut z = BddZone::empty(4);
        z.insert(&p(&[0, 0, 0, 0]));
        z.enlarge_to(1);
        z.insert(&p(&[1, 1, 1, 1]));
        // The late seed must also be dilated.
        assert!(z.contains(&p(&[1, 1, 1, 0])));
        assert!(z.contains(&p(&[0, 1, 0, 0])));
        assert!(!z.contains(&p(&[1, 1, 0, 0])));
    }

    /// Random patterns with class structure: each bit leans towards a
    /// fixed per-position value, so the seeds cluster the way trained
    /// networks' patterns do.
    fn clustered(n: usize, width: usize, seed: u64) -> Vec<Pattern> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let bits: Vec<bool> = (0..width)
                    .map(|i| rng.gen::<f32>() < if i % 3 == 0 { 0.85 } else { 0.15 })
                    .collect();
                Pattern::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn seeds_inserted_after_enlarge_give_the_same_zone() {
        let seeds = clustered(24, 12, 7);
        for gamma in 1..=3u32 {
            let mut before = BddZone::empty(12);
            for s in &seeds {
                before.insert(s);
            }
            before.enlarge_to(gamma);
            let mut after = BddZone::empty(12);
            after.insert(&seeds[0]);
            after.enlarge_to(gamma);
            for s in &seeds[1..] {
                after.insert(s);
            }
            // Sealed around one seed, `after` keeps index order; the sets
            // are the same.
            assert_eq!(
                in_index_order(&before.zone_snapshot()),
                in_index_order(&after.zone_snapshot()),
                "gamma={gamma}"
            );
        }
    }

    #[test]
    fn bdd_zone_matches_the_quantification_oracle() {
        // Algorithm 1, lines 9–14, as the paper states it: gamma rounds
        // of the union over every neuron j of ∃x_j.f.
        let (width, gamma) = (40, 2);
        let seeds = clustered(120, width, 11);
        let mut bdd = Bdd::new(width);
        let mut f = bdd.zero();
        for s in &seeds {
            let cube = bdd.cube_from_bools(&s.to_bools());
            f = bdd.or(f, cube);
        }
        for _ in 0..gamma {
            let mut next = bdd.zero();
            for v in 0..width as u32 {
                let e = bdd.exists(f, v);
                next = bdd.or(next, e);
            }
            f = next;
        }
        let mut zone = BddZone::empty(width);
        for s in &seeds {
            zone.insert(s);
        }
        zone.enlarge_to(gamma);
        assert_eq!(
            in_index_order(&zone.zone_snapshot()),
            BddSnapshot::capture(&bdd, f)
        );
    }

    #[test]
    fn bdd_zone_counts() {
        let mut z = BddZone::empty(6);
        z.insert(&p(&[1, 0, 0, 0, 0, 0]));
        z.enlarge_to(1);
        assert_eq!(z.pattern_count(), 7.0); // 1 + 6 flips
        assert!(z.node_count() > 0);
    }

    #[test]
    fn frozen_zone_snapshots_answer_like_the_live_zone() {
        let mut z = BddZone::empty(6);
        z.insert(&p(&[1, 0, 1, 0, 1, 0]));
        z.insert(&p(&[0, 1, 1, 0, 0, 1]));
        z.enlarge_to(2);
        let zone_snap = z.zone_snapshot();
        let seed_snap = z.seed_snapshot();
        for m in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let probe = Pattern::from_bools(&bits);
            assert_eq!(zone_snap.eval(&bits), z.contains(&probe), "zone at {m}");
            assert_eq!(
                seed_snap.min_hamming_distance(&bits),
                z.distance_to_seeds(&probe),
                "distance at {m}"
            );
        }
    }

    #[test]
    fn bdd_zone_snapshot_roundtrip() {
        let mut z = BddZone::empty(5);
        z.insert(&p(&[1, 0, 1, 0, 1]));
        z.insert(&p(&[0, 1, 0, 1, 0]));
        z.enlarge_to(1);
        let (snap, gamma) = z.snapshot();
        let restored = BddZone::from_snapshot(&snap, gamma).expect("restore");
        assert_eq!(restored.gamma(), 1);
        assert_eq!(restored.seed_count(), 2);
        // Membership identical on all 32 patterns.
        for m in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let probe = Pattern::from_bools(&bits);
            assert_eq!(z.contains(&probe), restored.contains(&probe));
        }
    }

    #[test]
    fn compact_preserves_zone_and_frees_nodes() {
        let mut z = BddZone::empty(10);
        // Generate construction garbage: incremental dilation.
        for i in 0..30u64 {
            let bits: Vec<u8> = (0..10).map(|b| ((i >> (b % 6)) & 1) as u8).collect();
            z.insert(&p(&bits));
        }
        z.enlarge_to(1);
        z.enlarge_to(2);
        let before = z.allocated_nodes();
        let probes: Vec<Pattern> = (0..40u64)
            .map(|i| {
                let bits: Vec<u8> = (0..10).map(|b| ((i >> (b % 7)) & 1) as u8).collect();
                p(&bits)
            })
            .collect();
        let verdicts: Vec<bool> = probes.iter().map(|q| z.contains(q)).collect();
        let distances: Vec<Option<u32>> = probes.iter().map(|q| z.distance_to_seeds(q)).collect();
        z.compact();
        assert!(z.allocated_nodes() < before, "no shrinkage");
        for ((q, &v), d) in probes.iter().zip(&verdicts).zip(&distances) {
            assert_eq!(z.contains(q), v);
            assert_eq!(&z.distance_to_seeds(q), d);
        }
        assert_eq!(z.gamma(), 2);
    }

    #[test]
    fn width_zero_zone_holds_the_empty_pattern() {
        // {0,1}^0 has exactly one pattern (the empty one).
        let mut z = BddZone::empty(0);
        assert!(!z.contains(&Pattern::from_bools(&[])));
        z.insert(&Pattern::from_bools(&[]));
        assert_eq!(z.seed_count(), 1);
        assert!(z.contains(&Pattern::from_bools(&[])));
    }

    #[test]
    fn seed_count_saturates_instead_of_wrapping() {
        // A full seed space over 80 neurons counts 2^80 > usize::MAX;
        // the old `as usize` cast reported a nonsense number.
        let mut z = BddZone::empty(80);
        z.diagram_mut().seeds = NodeId::ONE;
        assert_eq!(z.seed_count(), usize::MAX);
        // Beyond 1023 vars sat_count is infinite; still saturates.
        let mut w = BddZone::empty(1200);
        w.diagram_mut().seeds = NodeId::ONE;
        assert_eq!(w.seed_count(), usize::MAX);
        // Small counts are still exact.
        let mut s = BddZone::empty(8);
        s.insert(&p(&[1, 0, 1, 0, 1, 0, 1, 0]));
        s.insert(&p(&[0, 1, 0, 1, 0, 1, 0, 1]));
        assert_eq!(s.seed_count(), 2);
    }

    #[test]
    fn sealing_fixes_the_bias_order_of_the_distinct_seeds() {
        let seeds = clustered(40, 12, 3);
        let mut zone = BddZone::empty(12);
        for s in seeds.iter().chain(&seeds[..10]) {
            zone.insert(s);
        }
        zone.enlarge_to(1);
        let mut distinct = seeds.clone();
        distinct.sort_by(|a, b| a.words().cmp(b.words()));
        distinct.dedup();
        assert_eq!(zone.zone_snapshot().order(), order_by_bias(&distinct));
        assert_eq!(zone.seed_snapshot().order(), order_by_bias(&distinct));
    }

    #[test]
    fn sealed_zone_is_a_function_of_its_distinct_seeds() {
        let seeds = clustered(60, 20, 9);
        let mut forward = BddZone::empty(20);
        for s in &seeds {
            forward.insert(s);
        }
        forward.enlarge_to(2);
        // Reversed, with duplicates, queried at γ = 0 before enlarging
        // (which seals), then enlarged in two steps.
        let mut shuffled = BddZone::empty(20);
        for s in seeds.iter().rev().chain(&seeds[..7]) {
            shuffled.insert(s);
        }
        assert_eq!(shuffled.seed_count(), forward.seed_count());
        assert!(shuffled.contains(&seeds[3]));
        shuffled.enlarge_to(1);
        shuffled.enlarge_to(2);
        assert_eq!(shuffled.zone_snapshot(), forward.zone_snapshot());
        assert_eq!(shuffled.seed_snapshot(), forward.seed_snapshot());
    }

    #[test]
    fn snapshot_roundtrip_keeps_the_order() {
        let seeds = clustered(30, 16, 5);
        let mut zone = BddZone::empty(16);
        for s in &seeds {
            zone.insert(s);
        }
        zone.enlarge_to(1);
        let (snap, gamma) = zone.snapshot();
        let restored = BddZone::from_snapshot(&snap, gamma).expect("restore");
        assert_eq!(restored.zone_snapshot(), zone.zone_snapshot());
        assert_eq!(restored.seed_snapshot(), zone.seed_snapshot());
    }

    #[test]
    #[should_panic(expected = "zones only grow")]
    fn shrinking_gamma_panics() {
        let mut z = ExactZone::empty(3);
        z.enlarge_to(2);
        z.enlarge_to(1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut z = BddZone::empty(3);
        z.insert(&p(&[1, 0]));
    }
}
