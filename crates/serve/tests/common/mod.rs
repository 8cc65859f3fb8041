//! Shared fixture for the `naps-serve` integration suites.
//!
//! Lives here, not in `naps-bench` (the evals' and the benchmark's
//! shared fixtures), because only these suites use this geometry: a
//! four-class 2-D classifier whose probes make all three verdicts occur.
//! Both the concurrency and the hot-swap suite must exercise the *same*
//! trained geometry; keeping one definition means any retuning for the
//! vendored RNG stream (see PR 1's fixture history) happens once.

use naps_core::{BddZone, CombinePolicy, LayeredMonitor, Monitor, MonitorBuilder};
use naps_nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use naps_serve::MonitorEngine;
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;

/// Class count of the fixture classifier.
pub const CLASSES: usize = 4;

/// A small trained classifier + γ=1 monitor + probe workload mixing the
/// training inputs with `extra_probes` ring-shaped points, so all three
/// verdicts occur.
pub fn fixture(seed: u64, extra_probes: usize) -> (Monitor<BddZone>, Sequential, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = mlp(&[2, 24, CLASSES], &mut rng);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..CLASSES {
        let angle = c as f32 * std::f32::consts::TAU / CLASSES as f32;
        for k in 0..30 {
            let jitter = (k as f32 * 0.41).sin() * 0.25;
            xs.push(Tensor::from_vec(
                vec![2],
                vec![2.0 * angle.cos() + jitter, 2.0 * angle.sin() - jitter],
            ));
            ys.push(c);
        }
    }
    let trainer = Trainer::new(TrainConfig {
        epochs: 25,
        batch_size: 16,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.02), &mut rng);
    let monitor = MonitorBuilder::new(1, 1).build::<BddZone>(&mut net, &xs, &ys, CLASSES);
    let mut probes = xs;
    for i in 0..extra_probes {
        let r = 0.3 + (i % 7) as f32;
        let a = i as f32 * 0.7;
        probes.push(Tensor::from_vec(vec![2], vec![r * a.cos(), r * a.sin()]));
    }
    (monitor, net, probes)
}

/// A deeper trained classifier (`[2, 20, 12, CLASSES]`, two ReLU taps at
/// layers 1 and 3) with one monitor per ReLU, wrapped as a
/// [`LayeredMonitor`] under `policy` — the multi-layer counterpart of
/// [`fixture`], sharing its probe-workload shape.
#[allow(dead_code)] // not every suite uses the layered fixture
pub fn layered_fixture(
    seed: u64,
    extra_probes: usize,
    policy: CombinePolicy,
) -> (LayeredMonitor<BddZone>, Sequential, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = mlp(&[2, 20, 12, CLASSES], &mut rng);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..CLASSES {
        let angle = c as f32 * std::f32::consts::TAU / CLASSES as f32;
        for k in 0..30 {
            let jitter = (k as f32 * 0.41).sin() * 0.25;
            xs.push(Tensor::from_vec(
                vec![2],
                vec![2.0 * angle.cos() + jitter, 2.0 * angle.sin() - jitter],
            ));
            ys.push(c);
        }
    }
    let trainer = Trainer::new(TrainConfig {
        epochs: 25,
        batch_size: 16,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.02), &mut rng);
    // Deep (close-to-output) monitor first: it is the primary layer the
    // single-layer projection reads.
    let deep = MonitorBuilder::new(3, 1).build::<BddZone>(&mut net, &xs, &ys, CLASSES);
    let shallow = MonitorBuilder::new(1, 1).build::<BddZone>(&mut net, &xs, &ys, CLASSES);
    let layered = LayeredMonitor::new(vec![deep, shallow], policy);
    let mut probes = xs;
    for i in 0..extra_probes {
        let r = 0.3 + (i % 7) as f32;
        let a = i as f32 * 0.7;
        probes.push(Tensor::from_vec(vec![2], vec![r * a.cos(), r * a.sin()]));
    }
    (layered, net, probes)
}

/// Submits `input` with a completion callback that parks the worker
/// that judged it, then runs `then` once released (the returned sender
/// is dropped).  Returns once a worker is parked.  Parking makes
/// schedules deterministic: while the worker is parked the test queues
/// whatever must be in flight, orphaned or ordered, then releases it.
#[allow(dead_code)] // not every suite parks workers
pub fn park(
    engine: &MonitorEngine,
    input: Tensor,
    then: impl FnOnce() + Send + 'static,
) -> mpsc::Sender<()> {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    engine
        .try_submit_with(input, None, move |_| {
            let _ = parked_tx.send(());
            let _ = release_rx.recv();
            then();
        })
        .expect("submit the parking request");
    parked_rx.recv().expect("a worker parks");
    release
}
