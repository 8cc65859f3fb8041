//! Cross-backend equivalence under arbitrary **operation interleavings**:
//! `BddZone` and `ExactZone` must implement the same set semantics not
//! just for build-then-query usage, but for any order of `insert`,
//! `enlarge_to`, `contains` and `distance_to_seeds` — in
//! particular the post-`enlarge_to` `insert` path that online enrichment
//! (`Monitor::enrich`) leans on.
//!
//! Every generated program is applied to both backends in lockstep; after
//! each query op the answers are compared, and after the whole program
//! the backends are swept over the **entire** pattern space (width 8 →
//! 256 probes), so any divergence in the stored set is caught, not just
//! divergence at sampled probes.

use naps_core::{BddZone, ExactZone, Pattern, Zone};
use proptest::prelude::*;

const WIDTH: usize = 8;

fn pattern() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), WIDTH)
}

/// One interpreted operation: `(kind, pattern, gamma)`.  The surplus
/// fields are ignored by kinds that do not need them — the vendored
/// proptest has no `prop_oneof`, so ops are decoded from a uniform tuple
/// shape.
type RawOp = (u8, Vec<bool>, u32);

fn op() -> impl Strategy<Value = RawOp> {
    (0u8..4, pattern(), 0u32..4)
}

fn program() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(op(), 1..12)
}

/// Applies `program` to both backends in lockstep, comparing every query
/// answer, then sweeps the full space.
fn run_program(program: &[RawOp]) {
    let mut bdd = BddZone::empty(WIDTH);
    let mut exact = ExactZone::empty(WIDTH);
    for (step, (kind, bits, gamma)) in program.iter().enumerate() {
        let p = Pattern::from_bools(bits);
        match kind {
            0 => {
                bdd.insert(&p);
                exact.insert(&p);
            }
            1 => {
                // Zones only grow: clamp to the current gamma.
                let g = (*gamma).max(bdd.gamma());
                bdd.enlarge_to(g);
                exact.enlarge_to(g);
            }
            2 => {
                assert_eq!(
                    bdd.contains(&p),
                    exact.contains(&p),
                    "contains diverged at step {step} on {p}"
                );
            }
            _ => {
                assert_eq!(
                    bdd.distance_to_seeds(&p),
                    exact.distance_to_seeds(&p),
                    "distance diverged at step {step} on {p}"
                );
            }
        }
        assert_eq!(bdd.gamma(), exact.gamma(), "gamma diverged at step {step}");
        assert_eq!(
            bdd.seed_count(),
            exact.seed_count(),
            "seed_count diverged at step {step}"
        );
    }
    // Full-space sweep: the stored sets are identical, not merely
    // indistinguishable at the probed points.
    for m in 0..(1u32 << WIDTH) {
        let bits: Vec<bool> = (0..WIDTH).map(|i| (m >> i) & 1 == 1).collect();
        let probe = Pattern::from_bools(&bits);
        assert_eq!(
            bdd.contains(&probe),
            exact.contains(&probe),
            "contains diverged in final sweep at {m:08b}"
        );
        assert_eq!(
            bdd.distance_to_seeds(&probe),
            exact.distance_to_seeds(&probe),
            "distance diverged in final sweep at {m:08b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings keep the backends equivalent.
    #[test]
    fn backends_agree_under_op_interleavings(prog in program()) {
        run_program(&prog);
    }
}

#[test]
fn enrich_shaped_interleaving_agrees() {
    // The exact shape the live-update path produces: build, enlarge,
    // then keep inserting post-enlargement.
    let as_ops: Vec<RawOp> = vec![
        (
            0,
            vec![true, false, true, false, true, false, true, false],
            0,
        ),
        (0, vec![false; WIDTH], 0),
        (1, vec![false; WIDTH], 2), // enlarge to 2
        (0, vec![true; WIDTH], 0),  // post-enlarge insert
        (2, vec![true, true, true, true, true, true, true, false], 0), // query
        (
            0,
            vec![true, true, false, false, true, true, false, false],
            0,
        ),
        (
            3,
            vec![true, false, false, false, false, false, false, false],
            0,
        ),
    ];
    run_program(&as_ops);
}
