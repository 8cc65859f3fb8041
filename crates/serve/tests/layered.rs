//! Acceptance tests for multi-layer serving: the layered engine must be
//! **bit-identical** to sequential [`LayeredMonitor`] checking (binary
//! and graded, per stamped epoch, across hot swaps), a single wrapped
//! monitor must behave exactly like the bare monitor (the `N = 1`
//! special case, pinned by a property suite over random inputs, gammas
//! and hot swaps), the versioned persistence container must round-trip
//! and still load pre-layered files (golden fixture), and corrupt bytes
//! must surface as [`PersistError`]s, never panics.

mod common;

use common::{fixture, layered_fixture, CLASSES};
use naps_core::{
    ActivationMonitor, BddZone, CombinePolicy, DriftConfig, GradedQuery, LayeredMonitor, Monitor,
    MonitorBuilder, NeuronSelection, Pattern, Verdict,
};
use naps_serve::{
    EngineConfig, EngineError, EpochReport, FrozenLayeredMonitor, FrozenMonitor,
    LayeredEpochReport, MonitorEngine, PersistError,
};
use naps_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn layered_engine(
    layered: &LayeredMonitor<BddZone>,
    model: &naps_nn::Sequential,
    workers: usize,
) -> MonitorEngine {
    MonitorEngine::new_layered(
        layered,
        model,
        EngineConfig {
            workers,
            max_batch: 8,
            queue_capacity: 512,
        },
    )
    .expect("MLP replicates")
}

/// The single-layer view of a graded batch served by `engine`.
fn check_graded_batch(
    engine: &MonitorEngine,
    probes: &[Tensor],
    query: GradedQuery,
) -> Vec<EpochReport> {
    engine
        .check_layered_batch(probes, Some(query))
        .expect("engine up")
        .into_iter()
        .map(LayeredEpochReport::into_single)
        .collect()
}

#[test]
fn layered_engine_matches_sequential_layered_checking() {
    for policy in [
        CombinePolicy::Any,
        CombinePolicy::All,
        CombinePolicy::Majority,
    ] {
        let (layered, mut model, probes) = layered_fixture(19, 40, policy);
        let engine = layered_engine(&layered, &model, 3);
        let sequential = layered.check_batch(&mut model, &probes);
        let served = engine
            .check_layered_batch(&probes, None)
            .expect("engine up");
        assert_eq!(served.len(), sequential.len());
        for (i, (s, want)) in served.iter().zip(&sequential).enumerate() {
            assert_eq!(s.epoch, 0);
            assert_eq!(s.predicted, want.predicted, "probe {i} ({policy:?})");
            assert_eq!(s.combined, want.combined, "probe {i} ({policy:?})");
            let verdicts: Vec<Verdict> = s.per_layer.iter().map(|r| r.verdict).collect();
            assert_eq!(verdicts, want.per_layer, "probe {i} ({policy:?})");
            assert!(s.graded.is_none(), "binary submission");
        }
        engine.shutdown();
    }
}

#[test]
fn layered_graded_matches_sequential() {
    let (layered, mut model, probes) = layered_fixture(23, 30, CombinePolicy::Majority);
    let engine = layered_engine(&layered, &model, 2);
    for budget in [0u32, 2] {
        let query = GradedQuery::new(budget, 2);
        let sequential = layered.check_graded_batch(&mut model, &probes, query);
        let served = engine
            .check_layered_batch(&probes, Some(query))
            .expect("engine up");
        for (i, (s, want)) in served.iter().zip(&sequential).enumerate() {
            assert_eq!(s.predicted, want.predicted, "probe {i}");
            assert_eq!(s.combined, want.combined, "probe {i}");
            let graded = s.graded.as_ref().expect("graded submission");
            assert_eq!(graded, &want.per_layer, "probe {i} budget {budget}");
            // The binary per-layer column embeds the graded reports'.
            for (b, g) in s.per_layer.iter().zip(graded) {
                assert_eq!(b, &g.report);
            }
        }
    }
    engine.shutdown();
}

#[test]
fn single_layer_engine_is_the_n1_special_case() {
    let (monitor, mut model, probes) = fixture(31, 40);
    let engine = MonitorEngine::new(
        &monitor,
        &model,
        EngineConfig {
            workers: 2,
            max_batch: 8,
            queue_capacity: 256,
        },
    )
    .expect("MLP replicates");
    assert_eq!(engine.monitor_layered().num_layers(), 1);
    let query = GradedQuery::new(2, 2);
    for x in probes.iter().take(30) {
        let single = engine.check(x).expect("engine up");
        let layered = engine
            .submit(x.clone(), None)
            .expect("engine up")
            .wait()
            .expect("worker alive");
        // The layered verdict of an N = 1 engine *is* the single view.
        assert_eq!(layered.per_layer.len(), 1);
        assert_eq!(layered.to_single(), single);
        assert_eq!(layered.combined, single.report.verdict);
        // And both equal sequential checking.
        assert_eq!(single.report, monitor.check(&mut model, x));
        let graded = engine
            .submit(x.clone(), Some(query))
            .expect("engine up")
            .wait()
            .expect("worker alive");
        let graded_single = check_graded_batch(&engine, std::slice::from_ref(x), query);
        assert_eq!(std::slice::from_ref(&graded.to_single()), graded_single);
        assert_eq!(
            graded.graded.as_deref().expect("graded"),
            std::slice::from_ref(
                &monitor
                    .check_graded(&mut model, x, query)
                    .expect("Monitor grades")
            )
        );
    }
    engine.shutdown();
}

#[test]
fn layered_hot_swap_keeps_verdicts_attributable() {
    let (layered, mut model, probes) = layered_fixture(37, 30, CombinePolicy::Any);
    let engine = layered_engine(&layered, &model, 2);
    let before = layered.check_batch(&mut model, &probes);

    // Enlarge every layer: the epoch-1 family.
    let mut grown = LayeredMonitor::new(
        layered
            .monitors()
            .iter()
            .map(|m| {
                let snap = m.snapshot();
                Monitor::<BddZone>::from_snapshot(&snap).expect("restore")
            })
            .collect(),
        layered.policy(),
    );
    grown.enlarge_to(2);
    let after = grown.check_batch(&mut model, &probes);

    let epoch = engine
        .publish(FrozenLayeredMonitor::freeze(&grown))
        .expect("compatible");
    assert_eq!(epoch, 1);
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.monitor_layered().epoch(), 1);

    let served = engine
        .check_layered_batch(&probes, None)
        .expect("engine up");
    for (i, s) in served.iter().enumerate() {
        let want = match s.epoch {
            0 => &before[i],
            1 => &after[i],
            e => panic!("unexpected epoch {e}"),
        };
        let verdicts: Vec<Verdict> = s.per_layer.iter().map(|r| r.verdict).collect();
        assert_eq!(s.predicted, want.predicted, "probe {i}");
        assert_eq!(verdicts, want.per_layer, "probe {i} epoch {}", s.epoch);
        assert_eq!(s.combined, want.combined, "probe {i} epoch {}", s.epoch);
    }
    engine.shutdown();
}

#[test]
fn publish_layered_rejects_incompatible_families() {
    let (layered, model, _) = layered_fixture(41, 0, CombinePolicy::Any);
    let engine = layered_engine(&layered, &model, 2);

    // Different layer count.
    let single = FrozenLayeredMonitor::from_single(FrozenMonitor::freeze(&layered.monitors()[0]));
    assert!(matches!(
        engine.publish(single),
        Err(EngineError::IncompatibleMonitor("layer count differs"))
    ));

    // Different combine policy.
    let repolicied = FrozenLayeredMonitor::try_from_monitors(
        layered
            .monitors()
            .iter()
            .map(FrozenMonitor::freeze)
            .collect(),
        CombinePolicy::All,
    )
    .expect("valid family");
    assert!(matches!(
        engine.publish(repolicied),
        Err(EngineError::IncompatibleMonitor("combine policy differs"))
    ));

    // Different layer order (monitored layer differs slot-for-slot).
    let swapped = FrozenLayeredMonitor::try_from_monitors(
        layered
            .monitors()
            .iter()
            .rev()
            .map(FrozenMonitor::freeze)
            .collect(),
        layered.policy(),
    )
    .expect("valid family");
    assert!(matches!(
        engine.publish(swapped),
        Err(EngineError::IncompatibleMonitor("monitored layer differs"))
    ));

    // The engine still serves the original snapshot at epoch 0.
    assert_eq!(engine.epoch(), 0);
    engine.shutdown();
}

#[test]
fn drift_is_tracked_per_layer_and_combined() {
    let (layered, _model, probes) = layered_fixture(43, 60, CombinePolicy::Any);
    let engine = layered_engine(&layered, &_model, 2);
    engine.enable_drift(DriftConfig {
        baseline_rate: 0.05,
        alarm_rate: 0.5,
        window: 10,
        ewma_alpha: 0.2,
        patience: 5,
    });
    engine
        .check_layered_batch(&probes, None)
        .expect("engine up");
    let combined = engine.drift_status().expect("armed");
    assert_eq!(combined.len(), CLASSES);
    let by_layer = engine.drift_status_by_layer().expect("armed");
    assert_eq!(by_layer.len(), layered.monitors().len());
    // Slots report the model layer indices in family order (deep first).
    let layers: Vec<usize> = by_layer.iter().map(|l| l.layer).collect();
    let want: Vec<usize> = layered.monitors().iter().map(|m| m.layer()).collect();
    assert_eq!(layers, want);
    let total_observed: usize = combined.iter().map(|c| c.observed).sum();
    assert_eq!(total_observed, probes.len());
    for layer in &by_layer {
        assert_eq!(layer.classes.len(), CLASSES);
        let observed: usize = layer.classes.iter().map(|c| c.observed).sum();
        assert_eq!(observed, probes.len(), "layer {}", layer.layer);
        assert!(layer.classes.iter().all(|c| c.epoch == 0));
        // Per-layer statuses carry no distance EWMA (combined-only).
        assert!(layer.classes.iter().all(|c| c.mean_distance.is_none()));
    }
    // Publishing re-arms every detector, combined and per-layer.
    let refrozen = FrozenLayeredMonitor::freeze(&layered);
    engine.publish(refrozen).expect("compatible");
    for layer in engine.drift_status_by_layer().expect("armed") {
        assert!(layer
            .classes
            .iter()
            .all(|c| c.observed == 0 && c.epoch == 1));
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------
// Persistence: versioned container + pre-layered backward compatibility.
// ---------------------------------------------------------------------

fn p(bits: &[u8]) -> Pattern {
    Pattern::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
}

/// A deterministic (RNG-free) monitor: immune to vendored-RNG retunings,
/// so the golden fixture below never needs re-blessing for fixture
/// drift.
fn deterministic_monitor(layer: usize, width: usize, num_classes: usize) -> Monitor<BddZone> {
    use naps_core::Zone;
    let zones: Vec<Option<BddZone>> = (0..num_classes)
        .map(|c| {
            if c == 1 {
                return None; // one unmonitored class
            }
            let mut z = BddZone::empty(width);
            for k in 0..3u64 {
                let bits: Vec<u8> = (0..width)
                    .map(|b| (((c as u64 + k) >> (b % 3)) & 1) as u8)
                    .collect();
                z.insert(&p(&bits));
            }
            z.enlarge_to(1);
            Some(z)
        })
        .collect();
    Monitor::from_zones(zones, layer, NeuronSelection::all(width), 1)
}

fn golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("frozen_monitor_v1.json")
}

fn golden_v2_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("frozen_layered_v2.json")
}

/// The deterministic format-2 family the v2 golden fixture is blessed
/// from — must stay byte-for-byte reproducible (no RNG anywhere).
fn deterministic_family() -> FrozenLayeredMonitor {
    FrozenLayeredMonitor::try_from_monitors(
        vec![
            FrozenMonitor::freeze(&deterministic_monitor(1, 6, 4)),
            FrozenMonitor::freeze(&deterministic_monitor(3, 6, 4)),
        ],
        CombinePolicy::Majority,
    )
    .expect("valid family")
    .with_epoch(7)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("naps_serve_layered_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn layered_container_roundtrips() {
    let a = deterministic_monitor(1, 6, 4);
    let b = deterministic_monitor(3, 6, 4);
    let layered = FrozenLayeredMonitor::try_from_monitors(
        vec![FrozenMonitor::freeze(&a), FrozenMonitor::freeze(&b)],
        CombinePolicy::Majority,
    )
    .expect("valid family")
    .with_epoch(9);
    let path = temp_path("layered_roundtrip.json");
    layered.save(&path).expect("save");
    let restored = FrozenLayeredMonitor::load(&path).expect("load");
    assert_eq!(restored, layered);
    assert_eq!(restored.epoch(), 9);
    assert_eq!(restored.policy(), CombinePolicy::Majority);
    assert_eq!(restored.num_layers(), 2);
    // Per-layer monitors carry the container epoch.
    assert!(restored.layers().iter().all(|l| l.epoch() == 9));
    // Every per-layer record is written as one shard.
    let text = std::fs::read_to_string(&path).expect("read");
    assert_eq!(text.matches("\"num_shards\":1").count(), 2, "{text}");
    let _ = std::fs::remove_file(&path);
}

/// The pre-layered (format 1) golden fixture must load through the
/// layered path forever.  Nothing writes format 1 any more, so the
/// fixture is never re-blessed; it records two class shards, which
/// loading ignores.
#[test]
fn pre_layered_golden_file_still_loads() {
    let path = golden_path();
    let via_layered = FrozenLayeredMonitor::load(&path).expect("v1 file lifts to N = 1");
    assert_eq!(via_layered.num_layers(), 1);
    assert_eq!(via_layered.epoch(), 5);
    let via_single = FrozenMonitor::freeze(&deterministic_monitor(1, 6, 4)).with_epoch(5);
    assert_eq!(via_layered.layers()[0].as_ref(), &via_single);
    // Behavioural equality over the whole pattern space.
    for m in 0..64u32 {
        let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
        let pat = Pattern::from_bools(&bits);
        for c in 0..4 {
            let lifted = via_layered.report(c, std::slice::from_ref(&pat));
            let single = via_single.report(c, &pat);
            assert_eq!(lifted.per_layer, vec![single.clone()]);
            assert_eq!(lifted.combined, single.verdict);
        }
    }
}

/// Compiled evaluators are **derived, never serialized**: both golden
/// containers (format 1 single-monitor and format 2 layered) must hold
/// snapshots only, and loading them must recompile evaluators
/// bit-identical (`==`, including every fast-path decision) to freshly
/// frozen monitors built from the same deterministic zones.  Re-bless
/// the format-2 fixture with
/// `GOLDEN_BLESS=1 cargo test -p naps-serve layered`; re-blessing
/// rewrites its per-layer `num_shards` (2 and 3) to 1.
#[test]
fn golden_files_recompile_to_identical_evaluators() {
    use naps_bdd::CompiledZone;
    let v2 = golden_v2_path();
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(v2.parent().expect("parent")).expect("mkdir");
        deterministic_family().save(&v2).expect("bless v2 golden");
        return;
    }

    // Neither golden may carry compiled artifacts — snapshots only.
    for path in [golden_path(), v2.clone()] {
        let text = std::fs::read_to_string(&path).expect("golden readable");
        for key in ["zone_eval", "seed_eval", "compiled", "small_index"] {
            assert!(
                !text.contains(key),
                "{} leaks compiled artifact key {key:?} into the wire format",
                path.display()
            );
        }
    }

    // Format 1: the restored monitor equals a freshly frozen one —
    // `PartialEq` covers the compiled evaluators, so this pins that
    // load-time recompilation reproduces freeze-time compilation
    // exactly.
    let v1 = FrozenLayeredMonitor::load(&golden_path()).expect("v1 golden loads");
    let fresh_v1 = FrozenMonitor::freeze(&deterministic_monitor(1, 6, 4)).with_epoch(5);
    assert_eq!(
        v1,
        FrozenLayeredMonitor::from(fresh_v1),
        "v1 recompiled ≠ freshly frozen"
    );

    // Format 2: same invariant through the layered container.
    let restored = FrozenLayeredMonitor::load(&v2).unwrap_or_else(|e| {
        panic!(
            "golden v2 fixture {} failed to load ({e}); re-bless with GOLDEN_BLESS=1",
            v2.display()
        )
    });
    assert_eq!(
        restored,
        deterministic_family(),
        "v2 recompiled ≠ freshly frozen"
    );

    // And zone-for-zone: the restored evaluators equal a from-scratch
    // compile of the restored snapshots (compilation is deterministic).
    for monitor in restored.layers().iter().chain(v1.layers()) {
        for c in 0..monitor.num_classes() {
            let Some(zone) = monitor.zone(c) else {
                continue;
            };
            assert_eq!(
                zone.zone_eval(),
                &CompiledZone::compile(zone.zone_snapshot())
            );
            assert_eq!(
                zone.seed_eval(),
                &CompiledZone::compile(zone.seed_snapshot())
            );
        }
    }
}

#[test]
fn corrupt_layered_containers_error_never_panic() {
    assert!(matches!(
        FrozenLayeredMonitor::load(std::path::Path::new("/nonexistent/naps_layered.json")),
        Err(PersistError::Io(_))
    ));

    let path = temp_path("layered_garbage.json");
    std::fs::write(&path, "{not json").expect("write");
    assert!(matches!(
        FrozenLayeredMonitor::load(&path),
        Err(PersistError::Format(_))
    ));

    let layered = FrozenLayeredMonitor::try_from_monitors(
        vec![FrozenMonitor::freeze(&deterministic_monitor(1, 6, 4))],
        CombinePolicy::Any,
    )
    .expect("valid family");
    layered.save(&path).expect("save");
    let text = std::fs::read_to_string(&path).expect("read");
    assert!(
        FrozenLayeredMonitor::load(&path).is_ok(),
        "sane before tampering"
    );

    // Truncation anywhere inside the container must be a Format error.
    for frac in [4usize, 2] {
        std::fs::write(&path, &text[..text.len() / frac]).expect("write");
        assert!(matches!(
            FrozenLayeredMonitor::load(&path),
            Err(PersistError::Format(_))
        ));
    }

    // An unknown per-layer record version in a pre-layered (format 1)
    // file is Incompatible.
    let v1 = std::fs::read_to_string(golden_path()).expect("golden readable");
    assert!(
        v1.starts_with("{\"format\":1,"),
        "golden v1 is compact JSON"
    );
    std::fs::write(&path, v1.replacen("\"format\":1", "\"format\":99", 1)).expect("write");
    assert!(matches!(
        FrozenLayeredMonitor::load(&path),
        Err(PersistError::Incompatible("unknown format version"))
    ));

    // An unknown container version is Incompatible.
    std::fs::write(
        &path,
        text.replacen("\"format\":2", "\"format\":99", 1).replacen(
            "\"format\": 2",
            "\"format\": 99",
            1,
        ),
    )
    .expect("write");
    assert!(matches!(
        FrozenLayeredMonitor::load(&path),
        Err(PersistError::Incompatible(_))
    ));

    // A structurally broken per-layer record (zero shards) is rejected by
    // the shared per-layer validation.
    std::fs::write(
        &path,
        text.replacen("\"num_shards\":1", "\"num_shards\":0", 1)
            .replacen("\"num_shards\": 1", "\"num_shards\": 0", 1),
    )
    .expect("write");
    assert!(matches!(
        FrozenLayeredMonitor::load(&path),
        Err(PersistError::Incompatible("zero shards"))
    ));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Property suite: a single wrapped monitor is bit-identical to the bare
// monitor — binary and graded, live and frozen, across gammas and hot
// swaps.
// ---------------------------------------------------------------------

const IN_DIM: usize = 2;

fn input() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, IN_DIM)
}

fn batch() -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(input(), 1..8)
}

fn labelled() -> impl Strategy<Value = Vec<(Vec<f32>, usize)>> {
    proptest::collection::vec((input(), 0usize..CLASSES), 4..12)
}

fn tensors(rows: &[Vec<f32>]) -> Vec<Tensor> {
    rows.iter()
        .map(|r| Tensor::from_vec(vec![r.len()], r.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `LayeredMonitor([m])` / the N = 1 engine ≡ bare `m`, binary and
    /// graded, for random (untrained — determinism is what matters)
    /// networks, random gammas, random probes, and across a hot swap to
    /// a larger gamma.
    #[test]
    fn n1_layered_is_bit_identical_to_bare_monitor(
        seed in 0u64..500,
        data in labelled(),
        probes in batch(),
        gamma in 0u32..3,
        swap_gamma in 3u32..5,
        budget in 0u32..4,
    ) {
        let mut model = naps_nn::mlp(&[IN_DIM, 8, 6, CLASSES], &mut StdRng::seed_from_u64(seed));
        let xs = tensors(&data.iter().map(|(x, _)| x.clone()).collect::<Vec<_>>());
        let ys: Vec<usize> = data.iter().map(|(_, y)| *y).collect();
        let probes = tensors(&probes);
        let query = GradedQuery::new(budget, 2);

        let bare = MonitorBuilder::new(1, gamma).build::<BddZone>(&mut model, &xs, &ys, CLASSES);
        let wrapped = LayeredMonitor::new(
            vec![MonitorBuilder::new(1, gamma).build::<BddZone>(&mut model, &xs, &ys, CLASSES)],
            CombinePolicy::Majority,
        );

        // Live: binary and graded.
        let bare_binary = bare.check_batch(&mut model, &probes);
        let layered_binary = wrapped.check_batch(&mut model, &probes);
        let bare_graded = bare.check_graded_batch(&mut model, &probes, query);
        let layered_graded = wrapped.check_graded_batch(&mut model, &probes, query);
        for (((b, l), (bg, lg)), _x) in bare_binary.iter().zip(&layered_binary)
            .zip(bare_graded.iter().zip(&layered_graded))
            .zip(&probes)
        {
            prop_assert_eq!(l.predicted, b.predicted);
            prop_assert_eq!(l.combined, b.verdict);
            prop_assert_eq!(&l.per_layer, &vec![b.verdict]);
            prop_assert_eq!(&lg.per_layer, std::slice::from_ref(bg));
            prop_assert_eq!(lg.combined, bg.report.verdict);
        }

        // Served N = 1 engine ≡ bare monitor, across a hot swap.
        let engine = MonitorEngine::new(&bare, &model, EngineConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 64,
        }).expect("MLP replicates");
        let served = engine.check_batch(&probes).expect("engine up");
        for (s, b) in served.iter().zip(&bare_binary) {
            prop_assert_eq!(s.epoch, 0);
            prop_assert_eq!(&s.report, b);
        }
        let served_graded = check_graded_batch(&engine, &probes, query);
        for (s, bg) in served_graded.iter().zip(&bare_graded) {
            prop_assert_eq!(s.graded.as_ref(), Some(bg));
        }

        // Hot swap to a grown zone set: verdicts at epoch 1 equal the
        // grown bare monitor's.
        let mut grown = Monitor::<BddZone>::from_snapshot(&bare.snapshot()).expect("restore");
        grown.enlarge_to(swap_gamma);
        engine.publish(FrozenMonitor::freeze(&grown)).expect("compatible");
        let grown_binary = grown.check_batch(&mut model, &probes);
        let grown_graded = grown.check_graded_batch(&mut model, &probes, query);
        let served = check_graded_batch(&engine, &probes, query);
        for (i, s) in served.iter().enumerate() {
            let (want_b, want_g) = match s.epoch {
                0 => (&bare_binary[i], &bare_graded[i]),
                1 => (&grown_binary[i], &grown_graded[i]),
                e => panic!("unexpected epoch {e}"),
            };
            prop_assert_eq!(&s.report, want_b);
            prop_assert_eq!(s.graded.as_ref(), Some(want_g));
        }
        engine.shutdown();
    }
}
