//! Property-based tests for the monitor core: backend equivalence,
//! soundness, monotonicity and pattern invariants over random data.

use naps_core::{BddZone, ExactZone, Pattern, Zone};
use proptest::prelude::*;

const WIDTH: usize = 10;

fn pattern() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), WIDTH)
}

fn pattern_set() -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(pattern(), 1..12)
}

fn hamming(a: &[bool], b: &[bool]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

fn build<Z: Zone>(seeds: &[Vec<bool>], gamma: u32) -> Z {
    let mut z = Z::empty(WIDTH);
    for s in seeds {
        z.insert(&Pattern::from_bools(s));
    }
    z.enlarge_to(gamma);
    z
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: every inserted pattern is a member at every γ.
    #[test]
    fn zones_never_forget_seeds(seeds in pattern_set(), gamma in 0u32..3) {
        let bdd: BddZone = build(&seeds, gamma);
        let exact: ExactZone = build(&seeds, gamma);
        for s in &seeds {
            let p = Pattern::from_bools(s);
            prop_assert!(bdd.contains(&p));
            prop_assert!(exact.contains(&p));
        }
    }

    /// The two backends implement the same set semantics.
    #[test]
    fn backends_agree(seeds in pattern_set(), probe in pattern(), gamma in 0u32..3) {
        let bdd: BddZone = build(&seeds, gamma);
        let exact: ExactZone = build(&seeds, gamma);
        let p = Pattern::from_bools(&probe);
        prop_assert_eq!(bdd.contains(&p), exact.contains(&p));
        prop_assert_eq!(bdd.distance_to_seeds(&p), exact.distance_to_seeds(&p));
        prop_assert_eq!(bdd.seed_count(), exact.seed_count());
    }

    /// Membership is exactly "within γ of some seed".
    #[test]
    fn membership_is_gamma_ball(seeds in pattern_set(), probe in pattern(), gamma in 0u32..4) {
        let zone: BddZone = build(&seeds, gamma);
        let p = Pattern::from_bools(&probe);
        let min_dist = seeds.iter().map(|s| hamming(s, &probe)).min().unwrap();
        prop_assert_eq!(zone.contains(&p), min_dist <= gamma,
            "distance {} vs gamma {}", min_dist, gamma);
    }

    /// distance_to_seeds is the true minimum Hamming distance.
    #[test]
    fn distance_is_exact(seeds in pattern_set(), probe in pattern()) {
        let zone: BddZone = build(&seeds, 0);
        let p = Pattern::from_bools(&probe);
        let expect = seeds.iter().map(|s| hamming(s, &probe)).min().unwrap();
        prop_assert_eq!(zone.distance_to_seeds(&p), Some(expect));
    }

    /// Monotonicity: γ-membership is monotone in γ.
    #[test]
    fn enlarge_is_monotone(seeds in pattern_set(), probe in pattern()) {
        let p = Pattern::from_bools(&probe);
        let mut was_member = false;
        let mut zone: BddZone = build(&seeds, 0);
        for gamma in 0..4u32 {
            zone.enlarge_to(gamma);
            let now = zone.contains(&p);
            prop_assert!(!was_member || now, "membership lost at gamma {}", gamma);
            was_member = now;
        }
    }

    /// Incremental dilation equals one-shot dilation.
    #[test]
    fn incremental_equals_oneshot(seeds in pattern_set(), probe in pattern()) {
        let p = Pattern::from_bools(&probe);
        let mut incremental: BddZone = build(&seeds, 0);
        incremental.enlarge_to(1);
        incremental.enlarge_to(2);
        let oneshot: BddZone = build(&seeds, 2);
        prop_assert_eq!(incremental.contains(&p), oneshot.contains(&p));
    }

    /// Pattern bit-packing round-trips through bools and preserves
    /// Hamming arithmetic.
    #[test]
    fn pattern_roundtrip_and_hamming(a in pattern(), b in pattern()) {
        let pa = Pattern::from_bools(&a);
        let pb = Pattern::from_bools(&b);
        prop_assert_eq!(pa.to_bools(), a.clone());
        prop_assert_eq!(pa.hamming(&pb), hamming(&a, &b));
        prop_assert_eq!(pa.hamming(&pb), pb.hamming(&pa));
        // Triangle inequality against a third point.
        let zero = Pattern::zeros(WIDTH);
        prop_assert!(pa.hamming(&pb) <= pa.hamming(&zero) + zero.hamming(&pb));
    }

    /// Selection projection: selected pattern bits equal the projected
    /// full-pattern bits.
    #[test]
    fn selection_projects_consistently(values in proptest::collection::vec(-1.0f32..1.0, 16)) {
        use naps_core::NeuronSelection;
        let sel = NeuronSelection::from_indices(vec![0, 3, 7, 15], 16);
        let projected = sel.pattern_from(&values);
        let full = Pattern::from_activations(&values);
        for (j, &i) in sel.indices().iter().enumerate() {
            prop_assert_eq!(projected.get(j), full.get(i));
        }
    }

    /// BddZone snapshots round-trip membership at arbitrary γ.
    #[test]
    fn zone_snapshot_roundtrip(seeds in pattern_set(), probe in pattern(), gamma in 0u32..3) {
        let zone: BddZone = build(&seeds, gamma);
        let (snap, g) = zone.snapshot();
        let restored = BddZone::from_snapshot(&snap, g).expect("restore");
        let p = Pattern::from_bools(&probe);
        prop_assert_eq!(zone.contains(&p), restored.contains(&p));
        prop_assert_eq!(zone.seed_count(), restored.seed_count());
    }
}

/// A small batch of activation vectors over a fixed width.
fn activation_set(width: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-4.0f32..4.0, width), 1..10)
}

proptest! {
    /// DBM soundness: every inserted activation vector stays a member.
    #[test]
    fn dbm_contains_its_samples(samples in activation_set(5)) {
        use naps_core::DbmZone;
        let mut z = DbmZone::empty(5);
        for s in &samples {
            z.insert(s);
        }
        for s in &samples {
            prop_assert!(z.contains(s, 0.0));
            prop_assert_eq!(z.violation(s), Some(0.0));
        }
    }

    /// The DBM refines the box: it never accepts what the interval
    /// envelope rejects, given identical training data.
    #[test]
    fn dbm_refines_interval(samples in activation_set(4), probe in proptest::collection::vec(-6.0f32..6.0, 4)) {
        use naps_core::{DbmZone, IntervalZone};
        let mut dbm = DbmZone::empty(4);
        let mut boxz = IntervalZone::empty(4);
        for s in &samples {
            dbm.insert(s);
            boxz.insert(s);
        }
        if dbm.contains(&probe, 0.0) {
            prop_assert!(boxz.contains(&probe, 0.0));
        }
        // And the violation measures agree on direction.
        let dv = dbm.violation(&probe).expect("non-empty");
        let bv = boxz.violation(&probe).expect("non-empty");
        prop_assert!(dv + 1e-4 >= bv, "dbm violation {} below box violation {}", dv, bv);
    }

    /// The DBM violation is the minimal admitting slack.
    #[test]
    fn dbm_violation_is_minimal_slack(samples in activation_set(3), probe in proptest::collection::vec(-6.0f32..6.0, 3)) {
        use naps_core::DbmZone;
        let mut z = DbmZone::empty(3);
        for s in &samples {
            z.insert(s);
        }
        let v = z.violation(&probe).expect("non-empty");
        prop_assert!(z.contains(&probe, v + 1e-3));
        if v > 1e-3 {
            prop_assert!(!z.contains(&probe, v - 1e-3));
        }
    }

    /// Insertion order does not matter (the join is commutative and
    /// associative).
    #[test]
    fn dbm_insert_order_is_irrelevant(samples in activation_set(4)) {
        use naps_core::DbmZone;
        let mut fwd = DbmZone::empty(4);
        let mut rev = DbmZone::empty(4);
        for s in &samples {
            fwd.insert(s);
        }
        for s in samples.iter().rev() {
            rev.insert(s);
        }
        prop_assert!(fwd.includes(&rev) && rev.includes(&fwd));
    }

    /// Sharded join equals single-shot construction.
    #[test]
    fn dbm_join_equals_bulk_insert(a in activation_set(4), b in activation_set(4)) {
        use naps_core::DbmZone;
        let mut left = DbmZone::empty(4);
        for s in &a {
            left.insert(s);
        }
        let mut right = DbmZone::empty(4);
        for s in &b {
            right.insert(s);
        }
        left.join(&right);
        let mut bulk = DbmZone::empty(4);
        for s in a.iter().chain(&b) {
            bulk.insert(s);
        }
        prop_assert!(left.includes(&bulk) && bulk.includes(&left));
    }

    /// The windowed drift rate equals the brute-force rate over the last
    /// `window` monitored observations.
    #[test]
    fn drift_windowed_rate_matches_bruteforce(hits in proptest::collection::vec(any::<bool>(), 1..120)) {
        use naps_core::{DriftConfig, DriftDetector, Verdict};
        let window = 16;
        let mut det = DriftDetector::new(DriftConfig {
            baseline_rate: 0.01,
            alarm_rate: 0.5,
            window,
            ewma_alpha: 0.1,
            patience: 4,
        });
        for &h in &hits {
            det.observe(if h { Verdict::OutOfPattern } else { Verdict::InPattern });
        }
        let tail: Vec<&bool> = hits.iter().rev().take(window).collect();
        let expect = tail.iter().filter(|&&&h| h).count() as f64 / tail.len() as f64;
        prop_assert!((det.windowed_rate() - expect).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&det.ewma_rate()));
        prop_assert_eq!(det.observed(), hits.len());
    }

    /// The bias heuristic always emits a permutation, and a sealed zone
    /// carries it: the bias order of its distinct seeds.
    #[test]
    fn ordering_outputs_are_valid_permutations(seeds in pattern_set()) {
        use naps_core::order_by_bias;
        let mut pats: Vec<Pattern> = seeds.iter().map(|s| Pattern::from_bools(s)).collect();
        let order = order_by_bias(&pats);
        let mut seen = vec![false; order.len()];
        for &p in &order {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        pats.sort_by(|a, b| a.words().cmp(b.words()));
        pats.dedup();
        let zone: BddZone = build(&seeds, 1);
        prop_assert_eq!(zone.zone_snapshot().order(), order_by_bias(&pats));
        prop_assert!(zone.node_count() > 0);
    }

    /// Layered-monitor policy algebra: Any ≥ Majority ≥ All in warning
    /// frequency, on arbitrary verdict vectors.
    #[test]
    fn policy_order_on_random_verdicts(raw in proptest::collection::vec(0u8..3, 1..9)) {
        use naps_core::{CombinePolicy, Verdict};
        let verdicts: Vec<Verdict> = raw
            .iter()
            .map(|&v| match v {
                0 => Verdict::InPattern,
                1 => Verdict::OutOfPattern,
                _ => Verdict::Unmonitored,
            })
            .collect();
        let warn = |p: CombinePolicy| p.combine(&verdicts) == Verdict::OutOfPattern;
        if warn(CombinePolicy::All) {
            prop_assert!(warn(CombinePolicy::Majority));
        }
        if warn(CombinePolicy::Majority) {
            prop_assert!(warn(CombinePolicy::Any));
        }
        // Unmonitored propagates only when every verdict abstains.
        let all_abstain = verdicts.iter().all(|v| *v == Verdict::Unmonitored);
        for p in [CombinePolicy::Any, CombinePolicy::All, CombinePolicy::Majority] {
            prop_assert_eq!(p.combine(&verdicts) == Verdict::Unmonitored, all_abstain);
        }
    }
}

/// `n` patterns of `width` bits clustered around a few centres, each
/// seed a centre with up to three bits flipped — the shape of a trained
/// class's patterns, driven by one seed so the case is reproducible.
fn clustered(n: usize, width: usize, seed: u64) -> Vec<Pattern> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<bool>> = (0..1 + n % 3)
        .map(|_| (0..width).map(|_| rng.gen::<bool>()).collect())
        .collect();
    (0..n)
        .map(|_| {
            let mut bits = centres[rng.gen_range(0..centres.len())].clone();
            for _ in 0..rng.gen_range(0..4usize) {
                let i = rng.gen_range(0..width);
                bits[i] = !bits[i];
            }
            Pattern::from_bools(&bits)
        })
        .collect()
}

/// `zone`'s enlarged-zone snapshot re-expressed in index order.
fn index_ordered_zone(zone: &BddZone) -> naps_bdd::BddSnapshot {
    use naps_bdd::{Bdd, BddSnapshot};
    let snap = zone.zone_snapshot();
    let mut bdd = Bdd::with_order(snap.order());
    let root = snap.restore(&mut bdd).expect("restore");
    let identity: Vec<u32> = (0..snap.num_vars() as u32).collect();
    let (fresh, roots) = bdd.reorder(&[root], &identity);
    BddSnapshot::capture(&fresh, roots[0])
}

/// Every query of a sealed zone, of its compiled (frozen) form, and of
/// the explicit reference agree on `probes`.
fn assert_zone_agrees(bdd: &BddZone, exact: &ExactZone, probes: &[Pattern]) {
    use naps_bdd::{CompiledPath, CompiledZone};
    let zone_eval = CompiledZone::compile(&bdd.zone_snapshot());
    let seed_eval = CompiledZone::compile(&bdd.seed_snapshot());
    for p in probes {
        prop_assert_eq!(bdd.contains(p), exact.contains(p));
        prop_assert_eq!(zone_eval.eval_words(p.words()), exact.contains(p));
        prop_assert_eq!(bdd.distance_to_seeds(p), exact.distance_to_seeds(p));
        prop_assert_eq!(
            seed_eval.min_hamming_distance_words(p.words()),
            exact.distance_to_seeds(p)
        );
        for budget in 0..=3 {
            let expect = exact.distance_to_zone_within(p, budget);
            prop_assert_eq!(bdd.distance_to_zone_within(p, budget), expect);
            prop_assert_eq!(
                zone_eval.min_hamming_distance_within_words(p.words(), budget),
                expect
            );
        }
    }
    prop_assert_eq!(bdd.seed_count(), exact.seed_count());
    // The compiled path is a property of the set: the index-order
    // compile of the same zone picks the same one.
    let index_path: CompiledPath = CompiledZone::compile(&index_ordered_zone(bdd)).path();
    prop_assert_eq!(zone_eval.path(), index_path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A zone sealed in its own bias order answers every query like the
    /// explicit reference, live and compiled, across the 64-bit word
    /// edge and at every γ the monitors use — and keeps doing so after
    /// patterns are enriched into the sealed diagram.
    #[test]
    fn sealed_zones_match_the_explicit_reference(
        width in 1usize..131,
        gamma in 0u32..4,
        n in 1usize..14,
        seed in any::<u64>(),
    ) {
        let seeds = clustered(n, width, seed);
        let probes = clustered(24, width, seed ^ 0x5eed);
        let mut bdd = BddZone::empty(width);
        let mut exact = ExactZone::empty(width);
        for s in &seeds {
            bdd.insert(s);
            exact.insert(s);
        }
        bdd.enlarge_to(gamma);
        exact.enlarge_to(gamma);
        let all: Vec<Pattern> = probes.iter().chain(&seeds).cloned().collect();
        assert_zone_agrees(&bdd, &exact, &all);
        // Enrichment: the first probes become seeds post-sealing.
        for p in &probes[..3] {
            bdd.insert(p);
            exact.insert(p);
        }
        assert_zone_agrees(&bdd, &exact, &all);
    }
}
