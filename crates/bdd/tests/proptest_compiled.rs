//! Property-based pinning of the compiled zone evaluators against the
//! walked snapshot: [`CompiledZone`] is the frozen serving path, the
//! interpreted [`BddSnapshot`] queries are the oracle, and every query
//! kind — membership, unbounded min-Hamming, budget-bounded min-Hamming —
//! must agree bit-for-bit on both the dispatching compiled form (small
//! zones take the enumerated index) and the forced flat form
//! ([`CompiledZone::compile_flat_only`]), including the bit-sliced block
//! evaluator, on random zones and on every degenerate shape (empty, full,
//! width 0, budget 0 and ≥ width).  Every compiled query goes through
//! the packed-word entry points the engine runs (`*_words`, fed by
//! [`pack_words`]).  Zones are built in random variable orders: compiled
//! nodes test their variable's bit, so every order must answer alike.

use naps_bdd::{bit_slice_block, pack_words, Bdd, BddSnapshot, CompiledZone, NodeId};
use proptest::prelude::*;

const VARS: usize = 7;
/// A second width crossing the 64-bit word boundary, so packed keys and
/// sliced variable lanes need more than one word.
const WIDE: usize = 70;

fn pattern(width: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), width)
}

fn pattern_set(width: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(pattern(width), 1..8)
}

fn build_set(bdd: &mut Bdd, pats: &[Vec<bool>]) -> NodeId {
    let mut acc = bdd.zero();
    for p in pats {
        let c = bdd.cube_from_bools(p);
        acc = bdd.or(c, acc);
    }
    acc
}

fn all_assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << VARS).map(|m| (0..VARS).map(|b| (m >> b) & 1 == 1).collect())
}

/// A random variable order over `width` variables.
fn order(width: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), width).prop_map(move |keys| {
        let mut order: Vec<u32> = (0..width as u32).collect();
        order.sort_by_key(|&v| (keys[v as usize], v));
        order
    })
}

/// A dilated random zone, built in `order`, captured as a snapshot plus
/// both compiled forms.
fn compile_both(
    pats: &[Vec<bool>],
    gamma: u32,
    order: Vec<u32>,
) -> (BddSnapshot, CompiledZone, CompiledZone) {
    let mut bdd = Bdd::with_order(order);
    let f = build_set(&mut bdd, pats);
    let z = bdd.dilate(f, gamma);
    let snap = BddSnapshot::capture(&bdd, z);
    let compiled = CompiledZone::compile(&snap);
    let flat = CompiledZone::compile_flat_only(&snap);
    (snap, compiled, flat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Membership: compiled dispatch and forced-flat walk both equal the
    /// walked snapshot on every assignment of the cube.
    #[test]
    fn compiled_eval_equals_walked(pats in pattern_set(VARS), gamma in 0u32..3, order in order(VARS)) {
        let (snap, compiled, flat) = compile_both(&pats, gamma, order);
        for probe in all_assignments() {
            let words = pack_words(&probe);
            let expect = snap.eval(&probe);
            prop_assert_eq!(compiled.eval_words(&words), expect);
            prop_assert_eq!(flat.eval_words(&words), expect);
        }
    }

    /// The bit-sliced block evaluator agrees with the walked snapshot on
    /// every lane, whichever compiled form (the block evaluator always
    /// runs the node array, so `flat` and `compiled` share it — pin the
    /// flat one and the `eval_many` dispatch of both).
    #[test]
    fn bit_sliced_block_equals_walked(pats in pattern_set(VARS), gamma in 0u32..3, order in order(VARS)) {
        let (snap, compiled, flat) = compile_both(&pats, gamma, order);
        let packed: Vec<Vec<u64>> = all_assignments().map(|p| pack_words(&p)).collect();
        let expected: Vec<bool> = all_assignments().map(|p| snap.eval(&p)).collect();
        for chunk_start in (0..packed.len()).step_by(64) {
            let chunk: Vec<&[u64]> =
                packed[chunk_start..(chunk_start + 64).min(packed.len())]
                    .iter().map(|w| w.as_slice()).collect();
            let lanes = if chunk.len() == 64 { u64::MAX } else { (1u64 << chunk.len()) - 1 };
            let var_words = bit_slice_block(&chunk, flat.words_per_pattern(), VARS);
            let hits = flat.eval_block(&var_words, lanes);
            for (j, expect) in expected[chunk_start..chunk_start + chunk.len()].iter().enumerate() {
                prop_assert_eq!((hits >> j) & 1 == 1, *expect, "lane {}", chunk_start + j);
            }
        }
        // And the batch dispatch of both compiled forms.
        let refs: Vec<&[u64]> = packed.iter().map(|w| w.as_slice()).collect();
        prop_assert_eq!(&compiled.eval_many(&refs), &expected);
        prop_assert_eq!(&flat.eval_many(&refs), &expected);
    }

    /// Unbounded min-Hamming: both compiled forms equal the walked sweep.
    #[test]
    fn compiled_min_hamming_equals_walked(pats in pattern_set(VARS), gamma in 0u32..3, order in order(VARS)) {
        let (snap, compiled, flat) = compile_both(&pats, gamma, order);
        for probe in all_assignments() {
            let words = pack_words(&probe);
            let expect = snap.min_hamming_distance(&probe);
            prop_assert_eq!(compiled.min_hamming_distance_words(&words), expect);
            prop_assert_eq!(flat.min_hamming_distance_words(&words), expect);
        }
    }

    /// Budget-bounded min-Hamming: both compiled forms equal the walked
    /// bounded search for every budget from 0 through ≥ width (the
    /// degenerate budgets take the full-sweep fallback on both paths).
    #[test]
    fn compiled_bounded_min_hamming_equals_walked(
        pats in pattern_set(VARS),
        gamma in 0u32..3,
        budget in 0u32..((VARS as u32) + 2),
        order in order(VARS),
    ) {
        let (snap, compiled, flat) = compile_both(&pats, gamma, order);
        for probe in all_assignments() {
            let words = pack_words(&probe);
            let expect = snap.min_hamming_distance_within(&probe, budget);
            prop_assert_eq!(
                compiled.min_hamming_distance_within_words(&words, budget), expect,
                "small/dispatch path, budget {}", budget
            );
            prop_assert_eq!(
                flat.min_hamming_distance_within_words(&words, budget), expect,
                "flat path, budget {}", budget
            );
        }
    }

    /// Multi-word patterns (width > 64): packed keys, sliced lanes and
    /// the bounded DP all agree with the walked snapshot on random
    /// probes and on the seeds themselves.
    #[test]
    fn wide_zones_agree_on_all_query_kinds(
        pats in pattern_set(WIDE),
        probes in proptest::collection::vec(pattern(WIDE), 8..24),
        budget in 0u32..6,
        order in order(WIDE),
    ) {
        let (snap, compiled, flat) = compile_both(&pats, 1, order);
        for probe in probes.iter().chain(&pats) {
            let words = pack_words(probe);
            prop_assert_eq!(compiled.eval_words(&words), snap.eval(probe));
            prop_assert_eq!(flat.eval_words(&words), snap.eval(probe));
            prop_assert_eq!(
                compiled.min_hamming_distance_words(&words),
                snap.min_hamming_distance(probe)
            );
            prop_assert_eq!(
                flat.min_hamming_distance_words(&words),
                snap.min_hamming_distance(probe)
            );
            let expect = snap.min_hamming_distance_within(probe, budget);
            prop_assert_eq!(compiled.min_hamming_distance_within_words(&words, budget), expect);
            prop_assert_eq!(flat.min_hamming_distance_within_words(&words, budget), expect);
        }
        // Batch dispatch over every probe at once (sliced when amortised).
        let packed: Vec<Vec<u64>> = probes.iter().map(|p| pack_words(p)).collect();
        let refs: Vec<&[u64]> = packed.iter().map(|w| w.as_slice()).collect();
        let expected: Vec<bool> = probes.iter().map(|p| snap.eval(p)).collect();
        prop_assert_eq!(&compiled.eval_many(&refs), &expected);
        prop_assert_eq!(&flat.eval_many(&refs), &expected);
    }

    /// Degenerate zones: empty and full at VARS wide, plus width 0, on
    /// every query kind and both compiled forms, budgets 0 and ≥ width
    /// included.
    #[test]
    fn degenerate_zones_agree(probe in pattern(VARS), budget in 0u32..((VARS as u32) + 2)) {
        let words = pack_words(&probe);
        let bdd = Bdd::new(VARS);
        for root in [bdd.zero(), bdd.one()] {
            let snap = BddSnapshot::capture(&bdd, root);
            for zone in [CompiledZone::compile(&snap), CompiledZone::compile_flat_only(&snap)] {
                prop_assert_eq!(zone.eval_words(&words), snap.eval(&probe));
                prop_assert_eq!(
                    zone.min_hamming_distance_words(&words),
                    snap.min_hamming_distance(&probe)
                );
                prop_assert_eq!(
                    zone.min_hamming_distance_within_words(&words, budget),
                    snap.min_hamming_distance_within(&probe, budget)
                );
            }
        }
        // Width 0: the only pattern is the empty one.
        let bdd0 = Bdd::new(0);
        for root in [bdd0.zero(), bdd0.one()] {
            let snap = BddSnapshot::capture(&bdd0, root);
            for zone in [CompiledZone::compile(&snap), CompiledZone::compile_flat_only(&snap)] {
                prop_assert_eq!(zone.eval_words(&[]), snap.eval(&[]));
                prop_assert_eq!(
                    zone.min_hamming_distance_words(&[]),
                    snap.min_hamming_distance(&[])
                );
                for b in [0u32, 1, u32::MAX] {
                    prop_assert_eq!(
                        zone.min_hamming_distance_within_words(&[], b),
                        snap.min_hamming_distance_within(&[], b)
                    );
                }
            }
        }
    }

    /// The small-zone index is a function of the set: a zone compiled in
    /// any order picks the path, and enumerates the keys, of the
    /// index-order compile.
    #[test]
    fn compiled_index_ignores_the_order(pats in pattern_set(VARS), gamma in 0u32..3, order in order(VARS)) {
        let (snap, compiled, _) = compile_both(&pats, gamma, order);
        let (index_snap, index_compiled, _) = compile_both(&pats, gamma, (0..VARS as u32).collect());
        prop_assert_eq!(compiled.path(), index_compiled.path());
        prop_assert_eq!(snap.minterms(1 << VARS), index_snap.minterms(1 << VARS));
    }

    /// Compilation is deterministic: compiling the same snapshot twice
    /// yields `==` evaluators — the invariant persistence relies on when
    /// it recompiles instead of serializing.
    #[test]
    fn compilation_is_deterministic(pats in pattern_set(VARS), gamma in 0u32..3) {
        let mut bdd = Bdd::new(VARS);
        let f = build_set(&mut bdd, &pats);
        let z = bdd.dilate(f, gamma);
        let snap = BddSnapshot::capture(&bdd, z);
        prop_assert_eq!(CompiledZone::compile(&snap), CompiledZone::compile(&snap));
        prop_assert_eq!(
            CompiledZone::compile_flat_only(&snap),
            CompiledZone::compile_flat_only(&snap)
        );
    }
}
