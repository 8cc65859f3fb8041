//! Live-update acceptance suite (ISSUE 3): swapping an enriched zone
//! snapshot into a **running** engine under load must be non-disruptive
//! and exact —
//!
//! (a) no submission is lost or errored by the swap,
//! (b) every verdict is bit-identical to the sequential monitor **for
//!     the epoch stamped on it**, and
//! (c) `FrozenLayeredMonitor::save` → `load` round-trips to an equal
//!     monitor, snapshot for snapshot.
//!
//! Run in release too (CI does): the swap window is timing-sensitive.

use naps_core::{
    ActivationMonitor, BddZone, Monitor, MonitorBuilder, MonitorReport, Pattern, Verdict,
};
use naps_nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use naps_serve::{EngineConfig, EngineError, FrozenLayeredMonitor, FrozenMonitor, MonitorEngine};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::CLASSES;

/// The shared serve fixture with this suite's probe count.
fn fixture(seed: u64) -> (Monitor<BddZone>, Sequential, Vec<Tensor>) {
    common::fixture(seed, 160)
}

/// Enriches `monitor` with the observed patterns of every probe the
/// engine would currently flag out-of-pattern ("the operator confirmed
/// them all benign"), returning how many patterns were admitted.
fn confirm_all_warnings(
    monitor: &mut Monitor<BddZone>,
    net: &mut Sequential,
    probes: &[Tensor],
) -> usize {
    let mut confirmed: Vec<(usize, Pattern)> = Vec::new();
    for x in probes {
        let (class, pattern) = monitor.observe(net, x);
        if monitor.check_pattern(class, &pattern) == Verdict::OutOfPattern {
            confirmed.push((class, pattern));
        }
    }
    let mut admitted = 0;
    for (class, pattern) in confirmed {
        admitted += monitor
            .enrich(class, std::slice::from_ref(&pattern))
            .expect("confirmed classes are monitored");
    }
    admitted
}

/// Deadline-polls `cond` with yields (no sleeps — nothing here assumes
/// how fast a loaded CI box schedules threads).
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}
#[test]
fn hot_swap_under_load_is_non_disruptive_and_exact() {
    let (mut monitor, mut net, probes) = fixture(21);

    // Epoch-0 oracle: the sequential monitor as built.
    let oracle0: Vec<MonitorReport> = probes.iter().map(|x| monitor.check(&mut net, x)).collect();
    let frozen0 = FrozenMonitor::freeze(&monitor);

    // The enriched monitor (epoch 1): every current warning confirmed
    // benign, compacted, re-frozen.
    let admitted = confirm_all_warnings(&mut monitor, &mut net, &probes);
    assert!(admitted > 0, "fixture produced no out-of-pattern probes");
    monitor.compact_dirty();
    assert!(!monitor.take_dirty().is_empty());
    let oracle1: Vec<MonitorReport> = probes.iter().map(|x| monitor.check(&mut net, x)).collect();
    assert_ne!(oracle0, oracle1, "enrichment changed no verdict");
    let frozen1 = FrozenMonitor::freeze(&monitor);

    // The engine starts on the pre-enrichment (epoch 0) snapshot.
    let snap = naps_nn::ModelSnapshot::capture(&net).expect("mlp");
    let replicas: Vec<Sequential> = (0..4).map(|_| snap.restore().expect("restores")).collect();
    let engine = Arc::new(
        MonitorEngine::with_replicas(
            frozen0,
            replicas,
            EngineConfig {
                workers: 4,
                max_batch: 8,
                queue_capacity: 64,
            },
        )
        .expect("engine"),
    );
    assert_eq!(engine.epoch(), 0);

    // Submitters hammer the engine from several threads while the main
    // thread swaps in the enriched snapshot mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let oracle0 = Arc::new(oracle0);
    let oracle1 = Arc::new(oracle1);
    let probes = Arc::new(probes);
    let mut handles = Vec::new();
    for t in 0..4usize {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let probes = Arc::clone(&probes);
        let (oracle0, oracle1) = (Arc::clone(&oracle0), Arc::clone(&oracle1));
        handles.push(std::thread::spawn(move || {
            let n = probes.len();
            let mut submitted = 0u64;
            let mut answered = 0u64;
            let mut epochs_seen = [0u64; 2];
            let mut round = 0usize;
            // ordering: relaxed — quiescent stop flag; no data rides on
            // it, threads just exit at their next check.
            while !stop.load(Ordering::Relaxed) || round == 0 {
                let indices: Vec<usize> = (0..n).map(|k| (t + 3 * k) % n).collect();
                let tickets: Vec<_> = indices
                    .iter()
                    .map(|&i| (i, engine.submit(probes[i].clone(), None).expect("submit")))
                    .collect();
                submitted += tickets.len() as u64;
                for (i, ticket) in tickets {
                    // (a) every submission is answered, none errored...
                    let got = ticket.wait().expect("worker alive").into_single();
                    answered += 1;
                    // (b) ...and matches the oracle of its stamped epoch.
                    let want = match got.epoch {
                        0 => &oracle0[i],
                        1 => &oracle1[i],
                        e => panic!("unknown epoch {e}"),
                    };
                    assert_eq!(
                        &got.report, want,
                        "probe {i} diverged from the epoch-{} oracle",
                        got.epoch
                    );
                    epochs_seen[got.epoch as usize] += 1;
                }
                round += 1;
            }
            assert_eq!(submitted, answered, "submissions lost");
            epochs_seen
        }));
    }

    // Let verdicts flow under epoch 0, then hot-swap.  Deadline-polled
    // on the processed counter — no wall-clock assumption.
    wait_until(
        || engine.stats().processed > 0,
        "no epoch-0 verdict was served",
    );
    let new_epoch = engine
        .publish(frozen1.clone())
        .expect("compatible snapshot");
    assert_eq!(new_epoch, 1);
    assert_eq!(engine.epoch(), 1);
    // Keep the load running until rows submitted *after* the publish
    // have been judged: anything enqueued once publish() returned is
    // served by the new snapshot, so two more probe-set's worth of rows
    // guarantees epoch-1 verdicts in the threads' tallies.
    let goal = engine.stats().processed + 2 * probes.len() as u64;
    wait_until(
        || engine.stats().processed >= goal,
        "no post-swap rows were processed",
    );
    // ordering: relaxed — quiescent stop flag (see the load loop)
    stop.store(true, Ordering::Relaxed);

    let mut seen = [0u64; 2];
    for h in handles {
        let s = h.join().expect("submitter thread panicked");
        seen[0] += s[0];
        seen[1] += s[1];
    }
    // The swap really happened mid-stream: verdicts from both epochs.
    assert!(
        seen[1] > 0,
        "no verdict was served by the enriched snapshot"
    );

    // After the swap the engine serves the enriched zones exclusively.
    let after: Vec<MonitorReport> = engine
        .check_batch(&probes)
        .expect("engine is up")
        .into_iter()
        .map(|r| {
            assert_eq!(r.epoch, 1);
            r.report
        })
        .collect();
    assert_eq!(&after, &*oracle1);

    let stats = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("all submitters joined"))
        .shutdown();
    assert_eq!(stats.swaps, 1);
    assert!(stats.processed > 0);
}

#[test]
fn save_load_roundtrip_equals_the_served_snapshot() {
    let (mut monitor, mut net, probes) = fixture(22);
    confirm_all_warnings(&mut monitor, &mut net, &probes);
    monitor.compact_dirty();
    let frozen = FrozenLayeredMonitor::from(FrozenMonitor::freeze(&monitor)).with_epoch(5);

    let dir = std::env::temp_dir().join("naps_hot_swap_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("monitor.json");
    frozen.save(&path).expect("save");
    let restored = FrozenLayeredMonitor::load(&path).expect("load");
    // (c) snapshot-for-snapshot equality, epoch included...
    assert_eq!(restored, frozen);
    // ...and the restored monitor serves identically through an engine.
    let engine = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine");
    let served = engine.check_batch(&probes).expect("engine is up");
    for (x, got) in probes.iter().zip(served) {
        let (class, pattern) = monitor.observe(&mut net, x);
        assert_eq!(
            restored.primary().report(class, &pattern),
            got.report,
            "warm-restarted monitor diverged"
        );
    }
    engine.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn incompatible_publish_is_rejected_and_service_continues() {
    let (monitor, net, probes) = fixture(23);
    let engine = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine");
    let before = engine.check_batch(&probes).expect("engine is up");

    // A monitor over a different geometry must bounce...
    let (other, _, _) = {
        let mut rng = StdRng::seed_from_u64(99);
        let mut other_net = mlp(&[2, 16, CLASSES], &mut rng);
        let xs: Vec<Tensor> = (0..CLASSES * 8)
            .map(|i| Tensor::from_vec(vec![2], vec![i as f32 * 0.1, -(i as f32) * 0.1]))
            .collect();
        let ys: Vec<usize> = (0..CLASSES * 8).map(|i| i % CLASSES).collect();
        Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 8,
            verbose: false,
        })
        .fit(&mut other_net, &xs, &ys, &mut Adam::new(0.02), &mut rng);
        (
            MonitorBuilder::new(1, 1).build::<BddZone>(&mut other_net, &xs, &ys, CLASSES),
            other_net,
            xs,
        )
    };
    let incompatible = FrozenMonitor::freeze(&other);
    let err = engine.publish(incompatible).expect_err("must be rejected");
    assert!(matches!(err, EngineError::IncompatibleMonitor(_)));

    // ...without disturbing the served snapshot or its epoch.
    assert_eq!(engine.epoch(), 0);
    assert_eq!(engine.check_batch(&probes).expect("engine is up"), before);
    assert_eq!(engine.shutdown().swaps, 0);
}
