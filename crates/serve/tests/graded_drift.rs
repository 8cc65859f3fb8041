//! Acceptance tests for the graded-verdict and drift paths of the
//! engine: graded verdicts must be **bit-identical** to sequential
//! `check_graded` — per stamped epoch, across a hot swap, under
//! concurrency — batch submission must be all-or-nothing on width
//! errors, and per-class drift detectors must raise (and re-arm on
//! publish) with the right epoch stamps.

mod common;

use common::{fixture, CLASSES};
use naps_core::{
    ActivationMonitor, DriftConfig, DriftStatus, GradedQuery, Monitor, Pattern, Verdict,
};
use naps_serve::{
    EngineConfig, EpochReport, FrozenMonitor, LayeredEpochReport, MonitorEngine, SubmitError,
};
use naps_tensor::Tensor;

fn engine_over(
    monitor: &Monitor<naps_core::BddZone>,
    model: &naps_nn::Sequential,
    workers: usize,
) -> MonitorEngine {
    MonitorEngine::new(
        monitor,
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
fn engine_graded_verdicts_are_bit_identical_to_sequential() {
    let (monitor, mut model, probes) = fixture(11, 60);
    let engine = engine_over(&monitor, &model, 3);
    for budget in [0u32, 1, 3] {
        let query = GradedQuery::new(budget, 2);
        let sequential = monitor.check_graded_batch(&mut model, &probes, query);
        let served = check_graded_batch(&engine, &probes, query);
        assert_eq!(served.len(), sequential.len());
        for (i, (s, want)) in served.iter().zip(&sequential).enumerate() {
            assert_eq!(s.epoch, 0);
            let graded = s.graded.as_ref().expect("graded submission");
            assert_eq!(graded, want, "probe {i} budget {budget}");
            // The binary column is the graded report's embedded one.
            assert_eq!(s.report, graded.report);
        }
    }
    // Plain submissions still carry no graded payload.
    let plain = engine.check(&probes[0]).expect("engine up");
    assert!(plain.graded.is_none());
    engine.shutdown();
}

#[test]
fn graded_verdicts_stay_attributable_across_hot_swap() {
    let (mut monitor, mut model, probes) = fixture(12, 40);
    let query = GradedQuery::new(3, CLASSES);
    let engine = engine_over(&monitor, &model, 2);

    // Sequential oracles for both epochs.
    let oracle0 = monitor.check_graded_batch(&mut model, &probes, query);
    // Epoch 1: enrich a class with a far-out pattern, re-freeze.
    let all_on = vec![true; monitor.selection().len()];
    let confirmed = Pattern::from_bools(&all_on);
    monitor
        .enrich(0, std::slice::from_ref(&confirmed))
        .expect("class 0 is monitored");
    let oracle1 = monitor.check_graded_batch(&mut model, &probes, query);
    let frozen1 = FrozenMonitor::freeze(&monitor);

    // Submit the whole stream, swap while it is in flight.
    let tickets: Vec<_> = probes
        .iter()
        .map(|x| engine.submit(x.clone(), Some(query)).expect("engine up"))
        .collect();
    let epoch = engine.publish(frozen1).expect("compatible");
    assert_eq!(epoch, 1);
    for (i, t) in tickets.into_iter().enumerate() {
        let report = t.wait().expect("worker alive").into_single();
        let graded = report.graded.as_ref().expect("graded submission");
        let want = match report.epoch {
            0 => &oracle0[i],
            1 => &oracle1[i],
            e => panic!("unexpected epoch {e}"),
        };
        assert_eq!(graded, want, "probe {i} epoch {}", report.epoch);
    }
    // Post-swap, the graded verdicts match the enriched oracle only.
    let after = check_graded_batch(&engine, &probes, query);
    for (i, r) in after.iter().enumerate() {
        assert_eq!(r.epoch, 1);
        assert_eq!(r.graded.as_ref().expect("graded"), &oracle1[i]);
    }
    engine.shutdown();
}

#[test]
fn malformed_batch_enqueues_no_work() {
    let (monitor, model, probes) = fixture(13, 0);
    let engine = engine_over(&monitor, &model, 2);
    // A bad width in the middle of the batch: the whole submission must
    // be rejected before anything is queued.
    let mut batch: Vec<Tensor> = probes[..6].to_vec();
    batch.insert(3, Tensor::from_vec(vec![5], vec![0.0; 5]));
    assert!(matches!(
        engine.check_batch(&batch),
        Err(SubmitError::WidthMismatch {
            expected: 2,
            actual: 5
        })
    ));
    assert!(matches!(
        engine.check_layered_batch(&batch, Some(GradedQuery::default())),
        Err(SubmitError::WidthMismatch { .. })
    ));
    // Nothing was enqueued, so after a full drain nothing was processed.
    let stats = engine.shutdown();
    assert_eq!(
        stats.processed, 0,
        "a rejected batch must not leave requests in flight"
    );
}

#[test]
fn drift_detectors_alarm_and_rearm_on_publish() {
    let (mut monitor, mut model, probes) = fixture(14, 0);
    let engine = engine_over(&monitor, &model, 2);
    assert!(engine.drift_status().is_none(), "disarmed by default");
    engine.enable_drift(DriftConfig {
        baseline_rate: 0.01,
        alarm_rate: 0.5,
        window: 8,
        ewma_alpha: 0.3,
        patience: 4,
    });
    let armed = engine.drift_status().expect("armed");
    assert_eq!(armed.len(), CLASSES);
    assert!(armed.iter().all(|c| c.status == DriftStatus::Warmup));
    assert!(armed.iter().all(|c| c.epoch == 0));

    // A stream of inputs the sequential monitor already judges
    // out-of-pattern (selected from a ring sweep), so every predicted
    // class's detector sees a 100% out-of-pattern rate and must alarm
    // once its window fills.
    let wild: Vec<Tensor> = (0..2000)
        .map(|i| {
            let a = i as f32 * 0.39;
            let r = 3.0 + (i % 23) as f32;
            Tensor::from_vec(vec![2], vec![r * a.cos(), r * a.sin()])
        })
        .filter(|x| monitor.check(&mut model, x).verdict == Verdict::OutOfPattern)
        .take(160)
        .collect();
    assert!(
        wild.len() >= 100,
        "ring sweep found too few out-of-pattern inputs ({})",
        wild.len()
    );
    let reports = engine.check_batch(&wild).expect("engine up");
    assert!(
        reports
            .iter()
            .all(|r| r.report.verdict == Verdict::OutOfPattern),
        "engine and sequential monitor must agree on the wild stream"
    );
    let status = engine.drift_status().expect("armed");
    let drifting: Vec<_> = status
        .iter()
        .filter(|c| c.status == DriftStatus::Drifting)
        .collect();
    assert!(
        !drifting.is_empty(),
        "sustained out-of-pattern stream raised no drift alarm: {status:?}"
    );
    for c in &drifting {
        assert_eq!(c.epoch, 0, "evidence was gathered under epoch 0");
        assert!(c.windowed_rate >= 0.5);
        assert!(c.alarms >= 1);
        assert!(c.mean_distance.is_some());
    }
    // Observation counts follow the predicted classes.
    let total: usize = status.iter().map(|c| c.observed).sum();
    assert_eq!(total, wild.len());

    // The operator enriches and publishes: detectors re-arm at epoch 1.
    let (class, pattern) = monitor.observe(&mut model, &wild[0]);
    monitor
        .enrich(class, std::slice::from_ref(&pattern))
        .expect("monitored class");
    let epoch = engine
        .publish(FrozenMonitor::freeze(&monitor))
        .expect("compatible");
    let rearmed = engine.drift_status().expect("still armed");
    assert!(rearmed.iter().all(|c| c.epoch == epoch));
    assert!(rearmed.iter().all(|c| c.status == DriftStatus::Warmup));
    assert!(rearmed.iter().all(|c| c.observed == 0 && c.alarms == 0));

    // reset_drift clears evidence without a publish, keeping the epoch.
    let _ = engine.check_batch(&wild[..16]).expect("engine up");
    engine.reset_drift();
    let cleared = engine.drift_status().expect("still armed");
    assert!(cleared.iter().all(|c| c.observed == 0 && c.epoch == epoch));
    let _ = probes;
    engine.shutdown();
}
