//! The paper's convolutional Network 1 served by the engine: it runs on
//! the prepared forward pass like any other built-in model, its input
//! width is known, so a wrong-width request is rejected at submission
//! instead of panicking a worker, and a model with a custom layer is
//! refused at construction (and cannot be observed in-process).

use naps_core::{ActivationMonitor, BddZone, Monitor, MonitorBuilder};
use naps_nn::{mnist_net, Dense, Layer, Sequential, SnapshotError, MNIST_MONITOR_LAYER};
use naps_serve::{EngineConfig, EngineError, FrozenMonitor, MonitorEngine, SubmitError};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 10;
const WIDTH: usize = 28 * 28;

/// `n` random 28×28 images, about half their pixels exact zeros.
fn images(n: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|_| {
            let data = (0..WIDTH)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        rng.gen_range(0.0f32..1.0)
                    }
                })
                .collect();
            Tensor::from_vec(vec![WIDTH], data)
        })
        .collect()
}

/// An untrained Network 1 and a γ=1 monitor at fc(40) built from its own
/// predictions, so every class that occurs has a non-empty zone.
fn fixture(rng: &mut StdRng) -> (Sequential, Monitor<BddZone>) {
    let mut net = mnist_net(rng);
    let xs = images(12, rng);
    let ys: Vec<usize> = xs
        .iter()
        .map(|x| net.predict(&x.clone().reshape(vec![1, WIDTH]))[0])
        .collect();
    let monitor = MonitorBuilder::new(MNIST_MONITOR_LAYER, 1).build(&mut net, &xs, &ys, CLASSES);
    (net, monitor)
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        max_batch: 4,
        queue_capacity: 64,
    }
}

#[test]
fn wrong_width_is_rejected_and_the_conv_engine_keeps_serving() {
    let mut rng = StdRng::seed_from_u64(4);
    let (mut net, monitor) = fixture(&mut rng);
    let engine = MonitorEngine::new(&monitor, &net, config(1)).expect("Network 1 is served");
    let bad = Tensor::from_vec(vec![100], vec![0.5; 100]);
    assert_eq!(
        engine.check(&bad).unwrap_err(),
        SubmitError::WidthMismatch {
            expected: WIDTH,
            actual: 100
        }
    );
    // The lone worker is alive: a valid image is still answered, with
    // the sequential verdict.
    let x = &images(1, &mut rng)[0];
    let served = engine.check(x).expect("the engine still serves");
    assert_eq!(served.report, monitor.check(&mut net, x));
}

#[test]
fn conv_engine_verdicts_match_sequential_checking() {
    let mut rng = StdRng::seed_from_u64(6);
    let (mut net, monitor) = fixture(&mut rng);
    let probes = images(9, &mut rng);
    let want = monitor.check_batch(&mut net, &probes);
    let engine = MonitorEngine::new(&monitor, &net, config(2)).expect("Network 1 is served");
    let served: Vec<_> = engine
        .check_batch(&probes)
        .expect("served")
        .into_iter()
        .map(|r| r.report)
        .collect();
    assert_eq!(served, want);

    // Caller-made replicas take the same prepared path.
    let frozen = FrozenMonitor::freeze(&monitor);
    let snapshot = naps_nn::ModelSnapshot::capture(&net).expect("captures");
    let engine = MonitorEngine::with_replicas(
        frozen,
        vec![snapshot.restore().expect("restores")],
        config(1),
    )
    .expect("Network 1 replicas are served");
    let served: Vec<_> = engine
        .check_batch(&probes)
        .expect("served")
        .into_iter()
        .map(|r| r.report)
        .collect();
    assert_eq!(served, want);
}

/// A layer from outside `naps-nn`: the engine cannot prepare it.
#[derive(Debug)]
struct Scale;

impl Layer for Scale {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        x.map(|v| 2.0 * v)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.map(|g| 2.0 * g)
    }

    fn output_len(&self) -> usize {
        2
    }

    fn label(&self) -> String {
        "scale".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A `Dense(2, 3) → Scale` net, and a monitor at its dense layer built on
/// the built-in `Dense` prefix alone: the custom layer cannot be
/// observed in-process either.
fn custom_layer_fixture() -> (Sequential, Monitor<BddZone>, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(2);
    let dense = Dense::new(2, 3, &mut rng);
    let mut prefix = Sequential::new(vec![Box::new(dense.clone())]);
    let xs: Vec<Tensor> = (0..6)
        .map(|i| Tensor::from_vec(vec![2], vec![i as f32, 1.0 - i as f32]))
        .collect();
    let ys: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let monitor = MonitorBuilder::new(0, 1).build::<BddZone>(&mut prefix, &xs, &ys, 3);
    let net = Sequential::new(vec![Box::new(dense), Box::new(Scale)]);
    (net, monitor, xs)
}

#[test]
fn custom_layer_models_are_refused_at_construction() {
    let (net, monitor, _) = custom_layer_fixture();
    match MonitorEngine::new(&monitor, &net, config(1)) {
        Err(EngineError::UnsupportedModel(SnapshotError::UnsupportedLayer { label, index })) => {
            assert_eq!((label.as_str(), index), ("scale", 1));
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("a custom layer must not be served"),
    }
}

#[test]
#[should_panic(expected = "in-process observation needs a model of naps-nn's built-in layers")]
fn custom_layer_models_cannot_be_observed_in_process() {
    let (mut net, monitor, xs) = custom_layer_fixture();
    let _ = monitor.check_batch(&mut net, &xs);
}
