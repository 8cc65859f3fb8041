//! Concurrency smoke tests for [`MonitorEngine`]: many threads submitting
//! overlapping batches must produce verdicts **bit-identical** to
//! sequential checking, no matter how requests interleave or batch, and
//! the one queue must serve requests in submission order.
//!
//! Run these under `cargo test --release -p naps-serve` too (CI does):
//! release reordering and the absence of debug asserts surface timing
//! windows that debug builds hide.

use naps_core::{ActivationMonitor, BddZone, Monitor, MonitorReport};
use naps_nn::Sequential;
use naps_serve::{EngineConfig, EpochReport, MonitorEngine, SubmitError};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};

mod common;

/// The shared serve fixture with this suite's probe count.
fn fixture(seed: u64) -> (Monitor<BddZone>, Sequential, Vec<Tensor>) {
    common::fixture(seed, 120)
}

fn sequential_reports(
    monitor: &Monitor<BddZone>,
    model: &mut Sequential,
    probes: &[Tensor],
) -> Vec<MonitorReport> {
    probes.iter().map(|x| monitor.check(model, x)).collect()
}

/// Serves `probes` through the engine and strips the epoch stamps, for
/// comparison against a sequential oracle.
fn served(engine: &MonitorEngine, probes: &[Tensor]) -> Vec<MonitorReport> {
    engine
        .check_batch(probes)
        .expect("engine is up")
        .into_iter()
        .map(|r| r.report)
        .collect()
}

/// Submits through the non-blocking callback path, yielding and retrying
/// while the bounded queue is full — a caller-side stand-in for a
/// blocking callback submission.
fn submit_with_retry<F>(engine: &MonitorEngine, x: &Tensor, complete: F)
where
    F: FnOnce(EpochReport) + Clone + Send + 'static,
{
    loop {
        let complete = complete.clone();
        match engine.try_submit_with(x.clone(), None, move |r| complete(r.into_single())) {
            Ok(()) => return,
            Err(SubmitError::Saturated) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

#[test]
fn engine_verdicts_are_bit_identical_to_sequential() {
    let (monitor, mut net, probes) = fixture(7);
    let want = sequential_reports(&monitor, &mut net, &probes);
    for workers in [1, 2, 4] {
        for max_batch in [1, 16, 128] {
            let engine = MonitorEngine::new(
                &monitor,
                &net,
                EngineConfig {
                    workers,
                    max_batch,
                    queue_capacity: 64,
                },
            )
            .expect("engine");
            let got = served(&engine, &probes);
            assert_eq!(
                got, want,
                "divergence at workers={workers} max_batch={max_batch}"
            );
            let stats = engine.shutdown();
            assert_eq!(stats.processed, probes.len() as u64);
            assert!(stats.batches > 0);
        }
    }
}

#[test]
fn overlapping_submissions_from_many_threads_match_sequential() {
    let (monitor, mut net, probes) = fixture(8);
    let want = Arc::new(sequential_reports(&monitor, &mut net, &probes));
    let engine = Arc::new(
        MonitorEngine::new(
            &monitor,
            &net,
            EngineConfig {
                workers: 4,
                max_batch: 8,
                queue_capacity: 32,
            },
        )
        .expect("engine"),
    );
    let probes = Arc::new(probes);

    // 6 submitter threads, each hammering an overlapping slice of the
    // workload in its own order, twice over.
    let mut handles = Vec::new();
    for t in 0..6usize {
        let engine = Arc::clone(&engine);
        let probes = Arc::clone(&probes);
        let want = Arc::clone(&want);
        handles.push(std::thread::spawn(move || {
            let n = probes.len();
            let start = t * n / 6;
            for round in 0..2 {
                // A different overlapping window each round.
                let indices: Vec<usize> = (0..(2 * n / 3))
                    .map(|k| (start + k * (t + round + 1)) % n)
                    .collect();
                let tickets: Vec<_> = indices
                    .iter()
                    .map(|&i| (i, engine.submit(probes[i].clone(), None).expect("submit")))
                    .collect();
                for (i, ticket) in tickets {
                    let got = ticket.wait().expect("worker alive").into_single();
                    assert_eq!(got.report, want[i], "thread {t} round {round} probe {i}");
                    assert_eq!(got.epoch, 0, "nothing was republished");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("submitter thread panicked");
    }
    let stats = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("all submitters joined"))
        .shutdown();
    assert!(stats.processed > 0);
}

#[test]
fn callback_submissions_deliver_every_verdict() {
    let (monitor, mut net, probes) = fixture(9);
    let want = sequential_reports(&monitor, &mut net, &probes);
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 16,
        },
    )
    .expect("engine");
    let (tx, rx) = mpsc::channel();
    for (i, x) in probes.iter().enumerate() {
        let tx = tx.clone();
        submit_with_retry(&engine, x, move |report| {
            let _ = tx.send((i, report.report));
        });
    }
    drop(tx);
    let mut got: Vec<Option<MonitorReport>> = vec![None; probes.len()];
    for (i, report) in rx {
        assert!(got[i].is_none(), "verdict {i} delivered twice");
        got[i] = Some(report);
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.as_ref(), Some(w), "probe {i}");
    }
    engine.shutdown();
}

#[test]
fn wrong_width_inputs_are_rejected_at_submission() {
    // A malformed request must bounce at submit time — never reach a
    // worker, panic it mid-batch and take co-batched requests down.
    let (monitor, net, probes) = fixture(15);
    let engine = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine");
    let bad = Tensor::from_vec(vec![3], vec![0.0, 1.0, 2.0]);
    assert_eq!(
        engine.submit(bad.clone(), None).err(),
        Some(SubmitError::WidthMismatch {
            expected: 2,
            actual: 3
        })
    );
    assert!(engine.try_submit_with(bad.clone(), None, |_| {}).is_err());
    assert!(engine.check(&bad).is_err());
    // The pool is unharmed: valid traffic still serves on all workers.
    let mut net = net;
    let want: Vec<_> = probes.iter().map(|x| monitor.check(&mut net, x)).collect();
    assert_eq!(served(&engine, &probes), want);
    let stats = engine.shutdown();
    assert_eq!(stats.processed, probes.len() as u64);
}

#[test]
fn backpressure_saturates_then_drains() {
    let (monitor, net, probes) = fixture(10);
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 1,
            max_batch: 4,
            queue_capacity: 2,
        },
    )
    .expect("engine");
    // Flood with non-blocking submissions: some must bounce with
    // Saturated (capacity 2), none may be lost or answered twice.
    let (tx, rx) = mpsc::channel();
    let mut accepted = 0usize;
    let mut saturated = 0usize;
    for x in probes.iter().cycle().take(400) {
        let tx = tx.clone();
        match engine.try_submit_with(x.clone(), None, move |r| {
            let _ = tx.send(r);
        }) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Saturated) => saturated += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    drop(tx);
    assert_eq!(
        rx.iter().count(),
        accepted,
        "accepted requests are answered"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.processed, accepted as u64);
    assert!(
        saturated > 0,
        "queue of capacity 2 never saturated under a 400-request flood"
    );
}

#[test]
fn shutdown_rejects_new_work_but_serves_queued_work() {
    let (monitor, net, probes) = fixture(11);
    let engine = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine");
    let tickets: Vec<_> = probes
        .iter()
        .take(32)
        .map(|x| engine.submit(x.clone(), None).expect("submit"))
        .collect();
    let stats = engine.shutdown();
    assert_eq!(stats.processed, 32);
    for t in tickets {
        t.wait().expect("every queued request was answered");
    }
}

#[test]
fn queued_requests_are_served_in_submission_order() {
    // Two workers, micro-batches of one.  Both workers are parked, eight
    // callbacks queue behind them, then one worker is released: draining
    // the one FIFO alone, it must run them in submission order.
    let (monitor, net, probes) = fixture(12);
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 2,
            max_batch: 1,
            queue_capacity: 64,
        },
    )
    .expect("engine");
    let first = common::park(&engine, probes[0].clone(), || {});
    let second = common::park(&engine, probes[0].clone(), || {});
    let (tx, rx) = mpsc::channel();
    for (i, x) in probes.iter().take(8).enumerate() {
        let tx = tx.clone();
        engine
            .try_submit_with(x.clone(), None, move |_| {
                let _ = tx.send(i);
            })
            .expect("the queue has room");
    }
    drop(tx);
    drop(first);
    let order: Vec<usize> = rx.iter().collect();
    assert_eq!(order, (0..8).collect::<Vec<_>>());
    drop(second);
    let stats = engine.shutdown();
    assert_eq!(stats.processed, 10);
    assert_eq!(stats.largest_batch, 1);
}

#[test]
fn deterministic_across_runs_and_rngs() {
    // Two engines over independently-restored replicas of the same model
    // agree with each other and with sequential checking: replication is
    // exact, not approximate.
    let (monitor, net, probes) = fixture(13);
    let a = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine a");
    let b = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 3,
            max_batch: 64,
            queue_capacity: 128,
        },
    )
    .expect("engine b");
    assert_eq!(
        a.check_batch(&probes).expect("a is up"),
        b.check_batch(&probes).expect("b is up")
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn random_interleaving_fuzz() {
    // A light fuzz: random interleavings of sync tickets and callbacks
    // from two threads, verified against the sequential oracle.
    let (monitor, mut net, probes) = fixture(14);
    let want = Arc::new(sequential_reports(&monitor, &mut net, &probes));
    let engine = Arc::new(
        MonitorEngine::new(
            &monitor,
            &net,
            EngineConfig {
                workers: 2,
                max_batch: 8,
                queue_capacity: 8,
            },
        )
        .expect("engine"),
    );
    let probes = Arc::new(probes);
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let engine = Arc::clone(&engine);
        let probes = Arc::clone(&probes);
        let want = Arc::clone(&want);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            let (tx, rx) = mpsc::channel();
            let mut expected = 0usize;
            for _ in 0..150 {
                let i = rng.gen_range(0..probes.len());
                if rng.gen::<bool>() {
                    let got = engine
                        .submit(probes[i].clone(), None)
                        .expect("submit")
                        .wait()
                        .expect("worker alive")
                        .into_single();
                    assert_eq!(got.report, want[i]);
                } else {
                    let tx = tx.clone();
                    let want = Arc::clone(&want);
                    submit_with_retry(&engine, &probes[i], move |r| {
                        assert_eq!(r.report, want[i]);
                        let _ = tx.send(());
                    });
                    expected += 1;
                }
            }
            drop(tx);
            assert_eq!(rx.iter().count(), expected, "callbacks lost");
        }));
    }
    for h in handles {
        h.join().expect("fuzz thread panicked");
    }
}

#[test]
fn submitting_to_a_stopped_engine_errors_instead_of_panicking() {
    // Satellite of ISSUE 3: submit/check/check_batch on a shut-down
    // engine must be a first-class error — never a panic, never a
    // deadlock, and never silently dropped queued work.
    let (monitor, net, probes) = fixture(16);
    let engine = MonitorEngine::new(&monitor, &net, EngineConfig::default()).expect("engine");

    // Work queued before the stop is still answered...
    let tickets: Vec<_> = probes
        .iter()
        .take(16)
        .map(|x| engine.submit(x.clone(), None).expect("submit"))
        .collect();
    engine.stop();
    for t in tickets {
        t.wait().expect("queued work drained after stop");
    }
    // ...and every submission path afterwards reports ShutDown.
    assert_eq!(
        engine.submit(probes[0].clone(), None).err(),
        Some(SubmitError::ShutDown)
    );
    assert_eq!(
        engine
            .try_submit_with(probes[0].clone(), None, |_| {})
            .err(),
        Some(SubmitError::ShutDown)
    );
    assert_eq!(engine.check(&probes[0]).err(), Some(SubmitError::ShutDown));
    assert_eq!(
        engine.check_batch(&probes).err(),
        Some(SubmitError::ShutDown)
    );
    assert_eq!(
        engine.check_layered_batch(&probes, None).err(),
        Some(SubmitError::ShutDown)
    );
    // stop() is idempotent and shutdown() still joins cleanly.
    engine.stop();
    let stats = engine.shutdown();
    assert_eq!(stats.processed, 16);
}

#[test]
fn blocked_submitters_are_released_by_stop() {
    // A submitter blocked on a full queue must be woken by a concurrent
    // stop() and handed ShutDown — not left waiting forever.
    let (monitor, net, probes) = fixture(17);
    let engine = Arc::new(
        MonitorEngine::with_replicas(
            naps_serve::FrozenMonitor::freeze(&monitor),
            vec![naps_nn::ModelSnapshot::capture(&net)
                .expect("mlp")
                .restore()
                .expect("restores")],
            EngineConfig {
                workers: 1,
                max_batch: 1,
                queue_capacity: 1,
            },
        )
        .expect("engine"),
    );
    let flooder = {
        let engine = Arc::clone(&engine);
        let probes = probes.clone();
        std::thread::spawn(move || {
            // Tickets are dropped unwaited: the queue stays full, so
            // most submissions genuinely block on the space condvar.
            // The flood is unbounded — it can only end by observing
            // ShutDown, so termination *is* the wake-up property under
            // test (a stop() that fails to wake a blocked submitter
            // hangs the join below).
            for x in probes.iter().cycle() {
                match engine.submit(x.clone(), None) {
                    Ok(_ticket) => {}
                    Err(SubmitError::ShutDown) => return 1usize,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            unreachable!("cycle() never ends")
        })
    };
    // The flood is established once a verdict has flowed and the
    // one-slot queue is full again — from there the flooder is blocking
    // (or about to block) on the space condvar.  Deadline-polled; the
    // property under test holds for current *and* future submitters
    // either way.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !(engine.stats().processed > 0 && engine.queue_depth() == 1) {
        assert!(
            std::time::Instant::now() < deadline,
            "flood never established"
        );
        std::thread::yield_now();
    }
    engine.stop();
    let shutdowns = flooder.join().expect("flooder must terminate");
    assert_eq!(shutdowns, 1, "flooder ended without observing ShutDown");
    let stats = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("flooder joined"))
        .shutdown();
    assert!(stats.processed > 0);
}
