//! Regression suite for the engine's worker-death and shutdown-drain
//! error paths (ISSUE 7 satellites): a dead worker must surface as the
//! typed [`SubmitError::WorkerLost`] — on the in-flight ticket, on every
//! request still queued behind it, and on later submissions to a failed
//! engine — and an orderly shutdown must answer every accepted request.
//! Nothing on this surface may panic or hang.

mod common;

use naps_core::MonitorBuilder;
use naps_nn::{Dense, Relu, Sequential};
use naps_serve::{EngineConfig, MonitorEngine, SubmitError};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CLASSES: usize = 3;

/// `[Dense(2→12), ReLU, Dense(12→CLASSES)]` with seeded weights.
fn model() -> Sequential {
    let mut rng = StdRng::seed_from_u64(9);
    Sequential::new(vec![
        Box::new(Dense::new(2, 12, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(12, CLASSES, &mut rng)),
    ])
}

fn clean_inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let a = i as f32 * 0.61;
            Tensor::from_vec(vec![2], vec![a.cos(), a.sin()])
        })
        .collect()
}

/// An engine over the model: untrained (verdict quality is irrelevant
/// here), monitored at the ReLU (layer 1).
fn engine(workers: usize, max_batch: usize, queue_capacity: usize) -> MonitorEngine {
    let mut net = model();
    let xs = clean_inputs(24);
    let ys: Vec<usize> = (0..24).map(|i| i % CLASSES).collect();
    let monitor = MonitorBuilder::new(1, 1).build(&mut net, &xs, &ys, CLASSES);
    MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers,
            max_batch,
            queue_capacity,
        },
    )
    .expect("engine over an MLP")
}

/// [`common::park`] with a clean input: parking makes worker death
/// deterministic.
fn park(engine: &MonitorEngine, then: impl FnOnce() + Send + 'static) -> mpsc::Sender<()> {
    common::park(engine, clean_inputs(1)[0].clone(), then)
}

/// The deliberate worker-killer: a parked request whose completion
/// callback panics once released.  Every model is served through the
/// prepared forward pass and input widths are checked at submission, so
/// user code run on a worker thread is what can still take one down
/// mid-batch.
struct Poison {
    release: mpsc::Sender<()>,
    unwound: mpsc::Receiver<()>,
}

impl Poison {
    /// Submits the poison and returns once a worker is parked in it.
    fn park(engine: &MonitorEngine) -> Self {
        let (unwound_tx, unwound) = mpsc::channel::<()>();
        let release = park(engine, move || {
            // Dropped while the panic unwinds this callback.
            let _unwound = unwound_tx;
            panic!("poison callback kills its worker");
        });
        Poison { release, unwound }
    }

    /// Releases the parked worker and returns once it is unwinding: it
    /// will never pop another request.
    fn kill(self) {
        drop(self.release);
        assert!(self.unwound.recv().is_err(), "the poison only unwinds");
    }
}

/// Retries `f` for up to two seconds — the worker-death guard runs
/// asynchronously on the dying thread, so flag-dependent assertions poll
/// instead of racing it.
fn eventually<F: FnMut() -> bool>(mut f: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        // naps-lint: allow(test_flakiness, "5ms pacing inside a 2s deadline poll; the deadline, not the sleep, is the synchronization point")
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn killed_worker_resolves_ticket_with_worker_lost() {
    // One worker, micro-batches of two.
    let engine = engine(1, 2, 64);
    // A clean request round-trips first: the engine works.
    let ok = engine
        .check(&clean_inputs(1)[0])
        .expect("clean request is answered");
    assert!(ok.report.predicted < CLASSES);

    // While the lone worker is parked, queue a request whose completion
    // panics at once, then a ticket: the worker pops both into its next
    // micro-batch, so the ticket is in flight when the worker dies.  It
    // resolves with the typed error — no panic, no hang.
    let release = park(&engine, || {});
    engine
        .try_submit_with(clean_inputs(1)[0].clone(), None, |_| {
            panic!("poison callback kills its worker")
        })
        .expect("submit the poison");
    let ticket = engine
        .submit(clean_inputs(1)[0].clone(), None)
        .expect("submit");
    drop(release);
    assert_eq!(ticket.wait(), Err(SubmitError::WorkerLost));
    assert_eq!(
        engine.stats().largest_batch,
        2,
        "the ticket died in the poison's micro-batch, not queued behind it"
    );

    // Once the guard has marked the engine failed, submissions are
    // rejected with the same typed error (never queued forever).
    eventually(
        || {
            matches!(
                engine.submit(clean_inputs(1)[0].clone(), None),
                Err(SubmitError::WorkerLost)
            )
        },
        "failed engine rejects new submissions with WorkerLost",
    );
    // The synchronous wrappers see it too.
    assert_eq!(
        engine.check(&clean_inputs(1)[0]).unwrap_err(),
        SubmitError::WorkerLost
    );
    assert_eq!(
        engine.check_batch(&clean_inputs(2)).unwrap_err(),
        SubmitError::WorkerLost
    );
}

#[test]
fn try_wait_reports_worker_lost_instead_of_not_ready() {
    let engine = engine(1, 1, 64);
    let poison = Poison::park(&engine);
    let ticket = engine
        .submit(clean_inputs(1)[0].clone(), None)
        .expect("submit");
    poison.kill();
    eventually(
        || matches!(ticket.try_wait(), Err(SubmitError::WorkerLost)),
        "try_wait surfaces the dead worker",
    );
}

#[test]
fn requests_queued_behind_the_poison_never_hang() {
    // One worker, micro-batches of one: everything queued behind the
    // poison is orphaned by the worker's death.
    let engine = engine(1, 1, 256);
    let poison = Poison::park(&engine);
    let tickets: Vec<_> = clean_inputs(20)
        .into_iter()
        .map(|x| {
            engine
                .submit(x, None)
                .expect("the parked engine still accepts")
        })
        .collect();
    poison.kill();
    for t in tickets {
        // The deadline is the test harness's own timeout: wait() must
        // return (Err), not block forever on a hung ticket.
        assert_eq!(t.wait(), Err(SubmitError::WorkerLost));
    }
}

#[test]
fn surviving_workers_keep_a_degraded_engine_serving() {
    let engine = engine(2, 1, 256);
    let xs = clean_inputs(8);
    let reference: Vec<_> = xs
        .iter()
        .map(|x| engine.check(x).expect("healthy engine").report)
        .collect();

    // Kill one of the two workers.
    Poison::park(&engine).kill();

    // The survivor drains the one queue alone: every clean request is
    // still answered, bit-identically to the healthy engine.
    for (x, want) in xs.iter().zip(&reference) {
        let got = engine.check(x).expect("degraded engine still serves");
        assert_eq!(&got.report, want);
    }
}

#[test]
fn shutdown_with_backlog_answers_every_accepted_request() {
    // Satellite check: `shutdown` documents that queued requests are
    // drained — verify it with a backlog that outnumbers the workers.
    let (monitor, net, probes) = common::fixture(23, 8);
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 1024,
        },
    )
    .expect("engine");
    let tickets: Vec<_> = probes
        .iter()
        .cycle()
        .take(96)
        .map(|x| engine.submit(x.clone(), None).expect("submit"))
        .collect();
    engine.stop(); // the queue still holds a backlog
    let mut answered = 0u64;
    for t in tickets {
        t.wait().expect("accepted-before-stop request is judged");
        answered += 1;
    }
    let stats = engine.shutdown();
    assert_eq!(answered, 96);
    assert_eq!(stats.processed, 96);
}
