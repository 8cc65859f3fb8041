//! Property-based tests for the ROBDD package: canonicity, boolean algebra
//! laws, quantification semantics, dilation vs. brute-force Hamming balls.

use naps_bdd::{Bdd, BddSnapshot, NodeId};
use proptest::prelude::*;

const VARS: usize = 7;

/// A random pattern over `VARS` bits.
fn pattern() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), VARS)
}

/// A random small set of patterns.
fn pattern_set() -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(pattern(), 1..8)
}

fn build_set(bdd: &mut Bdd, pats: &[Vec<bool>]) -> NodeId {
    let mut acc = bdd.zero();
    for p in pats {
        let c = bdd.cube_from_bools(p);
        acc = bdd.or(c, acc);
    }
    acc
}

fn hamming(a: &[bool], b: &[bool]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// Algorithm 1, lines 9–14, as the paper states it: `gamma` rounds of
/// `∨_j ∃x_j . f`, stopping early at the fixpoint.  [`Bdd::dilate`] must
/// return the same node as this oracle.
fn dilate_by_quantification(bdd: &mut Bdd, f: NodeId, gamma: u32) -> NodeId {
    let mut acc = f;
    for _ in 0..gamma {
        let mut next = bdd.zero();
        for v in 0..bdd.num_vars() as u32 {
            let e = bdd.exists(acc, v);
            next = bdd.or(next, e);
        }
        if next == acc {
            break;
        }
        acc = next;
    }
    acc
}

fn all_assignments() -> Vec<Vec<bool>> {
    (0..(1usize << VARS))
        .map(|m| (0..VARS).map(|i| (m >> i) & 1 == 1).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash-consing canonicity: building the same set in two different
    /// insertion orders yields the identical node.
    #[test]
    fn insertion_order_is_irrelevant(pats in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let fwd = build_set(&mut bdd, &pats);
        let rev: Vec<_> = pats.iter().rev().cloned().collect();
        let bwd = build_set(&mut bdd, &rev);
        prop_assert_eq!(fwd, bwd);
    }

    /// Membership after construction matches the seed set exactly (γ = 0
    /// soundness + exactness).
    #[test]
    fn stored_set_is_exact(pats in pattern_set(), probe in pattern()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let expect = pats.iter().any(|p| p == &probe);
        prop_assert_eq!(bdd.eval(f, &probe), expect);
    }

    /// `dilate(γ)` is exactly the union of radius-γ Hamming balls around
    /// the seeds.
    #[test]
    fn dilation_is_hamming_ball(pats in pattern_set(), gamma in 0u32..3) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        for probe in all_assignments() {
            let dist = pats.iter().map(|p| hamming(p, &probe)).min().unwrap();
            prop_assert_eq!(bdd.eval(z, &probe), dist <= gamma,
                "probe {:?} dist {} gamma {}", probe, dist, gamma);
        }
    }

    /// `min_hamming_distance` equals the brute-force minimum distance.
    #[test]
    fn min_distance_is_exact(pats in pattern_set(), probe in pattern()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let expect = pats.iter().map(|p| hamming(p, &probe)).min().unwrap();
        prop_assert_eq!(bdd.min_hamming_distance(f, &probe), Some(expect));
    }

    /// De Morgan + double negation over random sets.
    #[test]
    fn boolean_algebra_laws(a in pattern_set(), b in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &a);
        let g = build_set(&mut bdd, &b);
        let and = bdd.and(f, g);
        let lhs = bdd.not(and);
        let nf = bdd.not(f);
        let ng = bdd.not(g);
        let rhs = bdd.or(nf, ng);
        prop_assert_eq!(lhs, rhs);
        let nnf = {
            let n = bdd.not(f);
            bdd.not(n)
        };
        prop_assert_eq!(nnf, f);
    }

    /// Distributivity: f ∧ (g ∨ h) == (f ∧ g) ∨ (f ∧ h).
    #[test]
    fn distributivity(a in pattern_set(), b in pattern_set(), c in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &a);
        let g = build_set(&mut bdd, &b);
        let h = build_set(&mut bdd, &c);
        let gh = bdd.or(g, h);
        let lhs = bdd.and(f, gh);
        let fg = bdd.and(f, g);
        let fh = bdd.and(f, h);
        let rhs = bdd.or(fg, fh);
        prop_assert_eq!(lhs, rhs);
    }

    /// sat_count equals the number of distinct seed patterns (γ = 0).
    #[test]
    fn sat_count_matches_set_size(pats in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let mut uniq = pats.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(bdd.sat_count(f), uniq.len() as f64);
    }

    /// exists is a weakening and removes the variable from the support.
    #[test]
    fn exists_weakens_and_drops_support(pats in pattern_set(), v in 0u32..(VARS as u32)) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let e = bdd.exists(f, v);
        prop_assert!(bdd.implies(f, e));
        prop_assert!(!bdd.support(e).contains(&v));
    }

    /// Snapshot capture/restore is semantics-preserving into a fresh manager.
    #[test]
    fn snapshot_roundtrip(pats in pattern_set(), gamma in 0u32..2) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        let snap = BddSnapshot::capture(&bdd, z);
        let mut fresh = Bdd::new(VARS);
        let r = snap.restore(&mut fresh).expect("restore");
        for probe in all_assignments() {
            prop_assert_eq!(bdd.eval(z, &probe), fresh.eval(r, &probe));
        }
    }

    /// The one-pass ball is the same node as the quantify-and-union
    /// formulation, at every radius up to and past saturation.
    #[test]
    fn dilation_matches_quantification_oracle(pats in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        for gamma in 0..=(VARS as u32 + 1) {
            let fast = bdd.dilate(f, gamma);
            let oracle = dilate_by_quantification(&mut bdd, f, gamma);
            prop_assert_eq!(fast, oracle, "gamma {}", gamma);
        }
    }

    /// Dilating in two steps equals dilating once by the sum — what an
    /// incremental `enlarge_to` relies on.
    #[test]
    fn dilation_composes(pats in pattern_set(), a in 0u32..(VARS as u32 + 1), b in 0u32..(VARS as u32 + 1)) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let step = bdd.dilate(f, a);
        let two_steps = bdd.dilate(step, b);
        prop_assert_eq!(two_steps, bdd.dilate(f, a + b));
    }

    /// A radius beyond the variable count is clamped: the ball has
    /// already saturated at `VARS`.
    #[test]
    fn dilation_radius_is_clamped(pats in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let huge = bdd.dilate(f, u32::MAX);
        prop_assert_eq!(huge, bdd.dilate(f, VARS as u32));
    }

    /// Dilation distributes over union:
    /// dilate(f ∨ g) == dilate(f) ∨ dilate(g).
    #[test]
    fn dilation_distributes_over_union(a in pattern_set(), b in pattern_set()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &a);
        let g = build_set(&mut bdd, &b);
        let u = bdd.or(f, g);
        let lhs = bdd.dilate(u, 1);
        let df = bdd.dilate(f, 1);
        let dg = bdd.dilate(g, 1);
        let rhs = bdd.or(df, dg);
        prop_assert_eq!(lhs, rhs);
    }
}

/// A random permutation of `0..VARS`, built by ranking random keys.
fn permutation() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), VARS).prop_map(|keys| {
        let mut idx: Vec<usize> = (0..VARS).collect();
        idx.sort_by_key(|&i| (keys[i], i));
        let mut perm = vec![0u32; VARS];
        for (pos, &i) in idx.iter().enumerate() {
            perm[i] = pos as u32;
        }
        perm
    })
}

fn apply_perm(assignment: &[bool], perm: &[u32]) -> Vec<bool> {
    let mut out = vec![false; assignment.len()];
    for (v, &b) in assignment.iter().enumerate() {
        out[perm[v] as usize] = b;
    }
    out
}

fn all_assignments_again() -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << VARS).map(|m| (0..VARS).map(|b| (m >> b) & 1 == 1).collect())
}

proptest! {
    /// Permutation preserves semantics up to variable renaming, including
    /// through a dilation.
    #[test]
    fn permute_preserves_semantics(pats in pattern_set(), perm in permutation(), gamma in 0u32..2) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        let (fresh, roots) = bdd.permute(&[f, z], &perm);
        for a in all_assignments_again() {
            let pa = apply_perm(&a, &perm);
            prop_assert_eq!(bdd.eval(f, &a), fresh.eval(roots[0], &pa));
            prop_assert_eq!(bdd.eval(z, &a), fresh.eval(roots[1], &pa));
        }
    }

    /// Permuting twice with perm then its inverse restores the original
    /// node count (canonicity under renaming round-trip).
    #[test]
    fn permute_inverse_roundtrips_size(pats in pattern_set(), perm in permutation()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let (once, r1) = bdd.permute(&[f], &perm);
        let mut inverse = vec![0u32; VARS];
        for (v, &p) in perm.iter().enumerate() {
            inverse[p as usize] = v as u32;
        }
        let (back, r2) = once.permute(&r1, &inverse);
        prop_assert_eq!(back.node_count(r2[0]), bdd.node_count(f));
        for a in all_assignments_again() {
            prop_assert_eq!(bdd.eval(f, &a), back.eval(r2[0], &a));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Hamming distance computed through the BDD is a metric on
    /// patterns: symmetric, zero iff equal, and obeying the triangle
    /// inequality.  Single patterns are embedded as one-path cubes, so
    /// `d(a, b) = min_hamming_distance(cube(a), b)`.
    #[test]
    fn hamming_is_a_metric(a in pattern(), b in pattern(), c in pattern()) {
        let mut bdd = Bdd::new(VARS);
        let ca = bdd.cube_from_bools(&a);
        let cb = bdd.cube_from_bools(&b);
        let d = |bdd: &Bdd, cube, probe: &[bool]| {
            bdd.min_hamming_distance(cube, probe).expect("cube is satisfiable")
        };
        // Symmetry: distance from a's cube to b equals b's cube to a.
        prop_assert_eq!(d(&bdd, ca, &b), d(&bdd, cb, &a));
        // Identity of indiscernibles: zero iff the patterns are equal.
        prop_assert_eq!(d(&bdd, ca, &b) == 0, a == b);
        prop_assert_eq!(d(&bdd, ca, &a), 0);
        // Triangle inequality through an intermediate pattern.
        prop_assert!(d(&bdd, ca, &c) <= d(&bdd, ca, &b) + d(&bdd, cb, &c));
    }

    /// Point-to-set distance: `d(F, p)` is a lower bound realised by some
    /// member of `F`, and dilating by the reported distance admits `p`.
    #[test]
    fn set_distance_is_tight(pats in pattern_set(), probe in pattern()) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let d = bdd.min_hamming_distance(f, &probe).expect("non-empty set");
        let z = bdd.dilate(f, d);
        prop_assert!(bdd.eval(z, &probe), "probe not admitted at its own distance");
        if d > 0 {
            let tight = bdd.dilate(f, d - 1);
            prop_assert!(!bdd.eval(tight, &probe), "distance overestimates");
        }
    }

    /// Snapshot-side queries agree with the manager: `BddSnapshot::eval`
    /// and `BddSnapshot::min_hamming_distance` are the lock-free serving
    /// path and must be bit-identical to `Bdd::eval` /
    /// `Bdd::min_hamming_distance` on every assignment.
    #[test]
    fn snapshot_queries_match_manager(pats in pattern_set(), gamma in 0u32..3) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        for (root, snap) in [(f, BddSnapshot::capture(&bdd, f)), (z, BddSnapshot::capture(&bdd, z))] {
            for probe in all_assignments_again() {
                prop_assert_eq!(snap.eval(&probe), bdd.eval(root, &probe));
                prop_assert_eq!(
                    snap.min_hamming_distance(&probe),
                    bdd.min_hamming_distance(root, &probe)
                );
            }
        }
    }

    /// The budget-bounded distance DP is the unbounded one truncated at
    /// the budget, on BOTH query paths: whenever the true distance is
    /// within the budget the bounded query returns it exactly, and
    /// beyond the budget it returns `None` — manager recursion and
    /// lock-free snapshot search alike, through a dilation.
    #[test]
    fn bounded_distance_is_truncated_unbounded(
        pats in pattern_set(),
        gamma in 0u32..3,
        budget in 0u32..((VARS as u32) + 2),
    ) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        for root in [f, z] {
            let snap = BddSnapshot::capture(&bdd, root);
            for probe in all_assignments_again() {
                let exact = bdd.min_hamming_distance(root, &probe);
                let expect = exact.filter(|&d| d <= budget);
                prop_assert_eq!(
                    bdd.min_hamming_distance_within(root, &probe, budget),
                    expect,
                    "manager path, probe {:?} budget {}", probe, budget
                );
                prop_assert_eq!(
                    snap.min_hamming_distance_within(&probe, budget),
                    expect,
                    "snapshot path, probe {:?} budget {}", probe, budget
                );
            }
        }
    }

    /// Terminal snapshots answer queries like the constant functions.
    #[test]
    fn snapshot_terminal_queries(probe in pattern()) {
        let bdd = Bdd::new(VARS);
        let empty = BddSnapshot::capture(&bdd, bdd.zero());
        let full = BddSnapshot::capture(&bdd, bdd.one());
        prop_assert!(!empty.eval(&probe));
        prop_assert!(full.eval(&probe));
        prop_assert_eq!(empty.min_hamming_distance(&probe), None);
        prop_assert_eq!(full.min_hamming_distance(&probe), Some(0));
    }
}
