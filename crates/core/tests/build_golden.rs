//! Monitor-construction goldens: Algorithm 1 replayed over a seeded
//! training set must record exactly the same comfort zones every time.
//!
//! Each test builds BDD-backed monitors on an untrained but seeded
//! network over seeded synthetic inputs and hashes (FNV-1a) the serde
//! JSON of every class's enlarged zone and seed set, each re-expressed
//! in neuron-index order.  `BddSnapshot::capture` numbers nodes by a
//! post-order walk from the root, so a snapshot's bytes depend only on
//! the set and the variable order — never on insertion order or on how
//! the manager built it.  Re-expressed in index order, the hashes pin
//! exactly which patterns each zone holds.  The variable order each
//! zone was sealed in is pinned on its own
//! (`build_orders_are_pinned`).  The refined test hashes the per-row
//! verdicts and numeric violation bits of fixed probes.  A refactor of
//! the training-set replay that must keep every zone bit-identical is
//! checked here end to end, in both the dev and the release profile
//! (`cargo test -p naps-core --test build_golden`, then the same with
//! `--release`).

use naps_bdd::{Bdd, BddSnapshot};
use naps_core::batch::{forward_observe_plan, pack_batch, ObservationPlan};
use naps_core::{
    ActivationMonitor, BddZone, GridMonitor, Monitor, MonitorBuilder, NeuronSelection,
    NumericDomain, Pattern, RefinedMonitor, Verdict, Zone,
};
use naps_nn::{mlp, mnist_net, Sequential, MNIST_MONITOR_LAYER, MNIST_MONITOR_WIDTH};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `snapshot`'s set re-expressed in neuron-index order: by canonicity,
/// the snapshot a zone of the same set built in index order captures.
fn in_index_order(snapshot: &BddSnapshot) -> BddSnapshot {
    let mut bdd = Bdd::with_order(snapshot.order());
    let root = snapshot.restore(&mut bdd).expect("restore");
    let identity: Vec<u32> = (0..snapshot.num_vars() as u32).collect();
    let (fresh, roots) = bdd.reorder(&[root], &identity);
    BddSnapshot::capture(&fresh, roots[0])
}

/// Folds every class's enlarged-zone and seed-set snapshot (serde JSON,
/// re-expressed in index order) of `monitor` into `h`; an unmonitored
/// class contributes a marker byte.
fn fold_zones(mut h: u64, monitor: &Monitor<BddZone>) -> u64 {
    for c in 0..monitor.num_classes() {
        h = match monitor.zone(c) {
            None => fnv1a(h, b"-"),
            Some(z) => {
                let zone = serde_json::to_string(&in_index_order(&z.zone_snapshot()))
                    .expect("serialize zone");
                let seeds = serde_json::to_string(&in_index_order(&z.seed_snapshot()))
                    .expect("serialize seeds");
                fnv1a(fnv1a(h, zone.as_bytes()), seeds.as_bytes())
            }
        };
    }
    h
}

/// Folds the variable order every monitored class's zone was sealed in
/// (little-endian `u32`s) into `h`; an unmonitored class contributes a
/// marker byte.
fn fold_orders(mut h: u64, monitor: &Monitor<BddZone>) -> u64 {
    for c in 0..monitor.num_classes() {
        h = match monitor.zone(c) {
            None => fnv1a(h, b"-"),
            Some(z) => {
                let order = z.zone_snapshot().order();
                assert_eq!(order, z.seed_snapshot().order(), "class {c}");
                order.iter().fold(h, |h, &v| fnv1a(h, &v.to_le_bytes()))
            }
        };
    }
    h
}

fn zones_hash(monitor: &Monitor<BddZone>) -> u64 {
    fold_zones(FNV_OFFSET, monitor)
}

/// `n` seeded inputs of `dim` values in `[-1, 1)`.
fn inputs(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                vec![dim],
                (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
        })
        .collect()
}

/// Labels that agree with `model`'s own prediction on two rows in three
/// and disagree on the third, so the replay records most inputs and
/// must skip the rest (Algorithm 1's correctness filter).
fn labels(model: &mut Sequential, xs: &[Tensor], classes: usize) -> Vec<usize> {
    let predicted =
        forward_observe_plan(model, &pack_batch(xs), &ObservationPlan::single(0)).predicted;
    predicted
        .iter()
        .enumerate()
        .map(|(i, &p)| if i % 3 == 2 { (p + 1) % classes } else { p })
        .collect()
}

const MLP_CLASSES: usize = 4;

/// A seeded `[6, 16, 12, 4]` MLP with 150 labelled inputs — three
/// replay chunks, the last one partial.
fn mlp_fixture() -> (Sequential, Vec<Tensor>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut model = mlp(&[6, 16, 12, MLP_CLASSES], &mut rng);
    let xs = inputs(150, 6, &mut rng);
    let ys = labels(&mut model, &xs, MLP_CLASSES);
    (model, xs, ys)
}

/// The plain, selected and class-restricted `[6, 16, 12, 4]` MLP monitors.
fn mlp_monitors() -> [Monitor<BddZone>; 3] {
    let (mut model, xs, ys) = mlp_fixture();
    let plain = MonitorBuilder::new(3, 1).build::<BddZone>(&mut model, &xs, &ys, MLP_CLASSES);
    let selected = MonitorBuilder::new(1, 2)
        .with_selection(NeuronSelection::from_indices(
            vec![0, 2, 3, 5, 8, 9, 13],
            16,
        ))
        .build::<BddZone>(&mut model, &xs, &ys, MLP_CLASSES);
    let restricted = MonitorBuilder::new(3, 1)
        .with_classes(vec![0, 2])
        .build::<BddZone>(&mut model, &xs, &ys, MLP_CLASSES);
    [plain, selected, restricted]
}

/// The plain, selected and class-restricted `mnist_net` monitors.
fn mnist_net_monitors() -> [Monitor<BddZone>; 3] {
    let mut rng = StdRng::seed_from_u64(22);
    let mut model = mnist_net(&mut rng);
    let xs = inputs(80, 28 * 28, &mut rng);
    let ys = labels(&mut model, &xs, 10);
    let plain =
        MonitorBuilder::new(MNIST_MONITOR_LAYER, 1).build::<BddZone>(&mut model, &xs, &ys, 10);
    let selected = MonitorBuilder::new(MNIST_MONITOR_LAYER, 1)
        .with_selection(NeuronSelection::from_indices(
            (0..MNIST_MONITOR_WIDTH).step_by(3).collect(),
            MNIST_MONITOR_WIDTH,
        ))
        .build::<BddZone>(&mut model, &xs, &ys, 10);
    let restricted = MonitorBuilder::new(MNIST_MONITOR_LAYER, 1)
        .with_classes(ys.iter().copied().step_by(4).collect())
        .build::<BddZone>(&mut model, &xs, &ys, 10);
    [plain, selected, restricted]
}

#[test]
fn mlp_build_zones_are_pinned() {
    let got = mlp_monitors().map(|m| zones_hash(&m));
    assert_eq!(
        got,
        [
            0x559f_5ce0_feb4_fc18,
            0xa875_542e_268d_bc35,
            0xb0e0_78a6_232b_7db2
        ],
        "mlp zone hashes moved: {got:#018x?}"
    );
}

#[test]
fn mnist_net_build_zones_are_pinned() {
    let got = mnist_net_monitors().map(|m| zones_hash(&m));
    assert_eq!(
        got,
        [
            0x51d2_daa4_3e30_8b45,
            0xfe0a_b38f_e218_17d9,
            0xd7a3_6ada_b7ad_527b
        ],
        "mnist_net zone hashes moved: {got:#018x?}"
    );
}

/// The activation-bias variable order each zone of the MLP and
/// `mnist_net` monitors was sealed in.
#[test]
fn build_orders_are_pinned() {
    let got = [
        mlp_monitors().iter().fold(FNV_OFFSET, fold_orders),
        mnist_net_monitors().iter().fold(FNV_OFFSET, fold_orders),
    ];
    assert_eq!(
        got,
        [0xd0ae_8ddb_fd04_6bcf, 0x21f8_6cfe_d843_16bd],
        "sealed orders moved: {got:#018x?}"
    );
}

/// A monitor assembled by hand — `BddZone::empty`, then `insert` of every
/// correctly classified row's pattern in reverse order with duplicates,
/// then `enlarge_to`, then `Monitor::from_zones` — holds the builder's
/// diagrams snapshot for snapshot, so it freezes to an equal monitor.
/// The benchmark's traced build takes this route.
#[test]
fn hand_assembled_monitor_matches_the_builder() {
    let (mut model, xs, ys) = mlp_fixture();
    let built = MonitorBuilder::new(3, 1).build::<BddZone>(&mut model, &xs, &ys, MLP_CLASSES);
    let observed = forward_observe_plan(&mut model, &pack_batch(&xs), &ObservationPlan::single(3));
    let rows: Vec<(usize, Pattern)> = (0..xs.len())
        .filter(|&i| observed.predicted[i] == ys[i])
        .map(|i| {
            (
                ys[i],
                Pattern::from_activations(observed.observed[0].row(i)),
            )
        })
        .collect();
    let width = rows[0].1.len();
    let mut zones: Vec<Option<BddZone>> = (0..MLP_CLASSES)
        .map(|_| Some(BddZone::empty(width)))
        .collect();
    for (class, pattern) in rows.iter().rev().chain(rows.iter().step_by(5)) {
        zones[*class].as_mut().expect("monitored").insert(pattern);
    }
    for z in zones.iter_mut().flatten() {
        z.enlarge_to(1);
    }
    let assembled = Monitor::from_zones(zones, 3, NeuronSelection::all(width), 1);
    for c in 0..MLP_CLASSES {
        let (a, b) = (
            assembled.zone(c).expect("monitored"),
            built.zone(c).expect("monitored"),
        );
        assert_eq!(a.zone_snapshot(), b.zone_snapshot(), "class {c} zone");
        assert_eq!(a.seed_snapshot(), b.seed_snapshot(), "class {c} seeds");
    }
}

#[test]
fn grid_build_zones_are_pinned() {
    let (mut model, xs, ys) = mlp_fixture();
    // Four cells, each replaying its own slice of the traffic.
    let per_cell: Vec<(Vec<Tensor>, Vec<usize>)> = (0..4)
        .map(|cell| {
            let rows = (cell..xs.len()).step_by(cell + 1);
            (
                rows.clone().map(|i| xs[i].clone()).collect(),
                rows.map(|i| ys[i]).collect(),
            )
        })
        .collect();
    let grid: GridMonitor<BddZone> = GridMonitor::build(
        2,
        2,
        &MonitorBuilder::new(3, 1),
        &mut model,
        &per_cell,
        MLP_CLASSES,
    );
    let mut h = FNV_OFFSET;
    for r in 0..2 {
        for c in 0..2 {
            h = fold_zones(h, grid.cell(r, c));
        }
    }
    assert_eq!(h, 0xa69c_9819_045e_cd35, "grid zone hash moved: {h:#018x}");
}

#[test]
fn refined_build_verdicts_are_pinned() {
    let (mut model, xs, ys) = mlp_fixture();
    let mut rng = StdRng::seed_from_u64(23);
    let probes: Vec<Tensor> = inputs(100, 6, &mut rng)
        .into_iter()
        .map(|x| Tensor::from_vec(vec![6], x.data().iter().map(|v| 1.5 * v).collect()))
        .collect();
    let verdict_byte = |v: Verdict| match v {
        Verdict::InPattern => b'i',
        Verdict::OutOfPattern => b'o',
        Verdict::Unmonitored => b'u',
    };
    let mut got = Vec::new();
    for domain in [NumericDomain::Box, NumericDomain::Dbm] {
        let refined: RefinedMonitor<BddZone> = MonitorBuilder::new(3, 1)
            .with_classes(vec![0, 1, 3])
            .build_refined(&mut model, &xs, &ys, MLP_CLASSES, domain);
        let mut h = zones_hash(refined.monitor());
        for rep in refined.check_batch(&mut model, &probes) {
            h = fnv1a(h, &(rep.predicted as u32).to_le_bytes());
            h = fnv1a(h, &[verdict_byte(rep.binary), verdict_byte(rep.numeric)]);
            h = match rep.violation {
                None => fnv1a(h, b"-"),
                Some(v) => fnv1a(h, &v.to_bits().to_le_bytes()),
            };
        }
        got.push(h);
    }
    assert_eq!(
        got,
        [0xb4b4_cbbe_3ee2_2da6, 0x9e53_5e3e_3132_66d0],
        "refined hashes moved: {got:#018x?}"
    );
}
