//! Table I benchmark: the cost of producing the paper's networks and
//! accuracies — dataset rendering throughput, inference latency of both
//! architectures, and one training step.

use criterion::{criterion_group, criterion_main, Criterion};
use naps_data::{digits, signs};
use naps_nn::{gtsrb_net, mnist_net, softmax_cross_entropy, Adam, Optimizer};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn dataset_rendering(c: &mut Criterion) {
    c.bench_function("render_digit_28x28", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| black_box(digits::render(7, digits::DigitStyle::clean(), &mut rng)));
    });
    c.bench_function("render_sign_32x32_rgb", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| black_box(signs::render(14, signs::SignStyle::clean(), &mut rng)));
    });
}

fn inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net1 = mnist_net(&mut rng);
    let x1 = Tensor::zeros(vec![1, 28 * 28]);
    c.bench_function("mnist_net_forward_1", |b| {
        b.iter(|| black_box(net1.forward(&x1, false)));
    });
    let mut net2 = gtsrb_net(&mut rng);
    let x2 = Tensor::zeros(vec![1, 3 * 32 * 32]);
    c.bench_function("gtsrb_net_forward_1", |b| {
        b.iter(|| black_box(net2.forward(&x2, false)));
    });
}

fn training_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut net = mnist_net(&mut rng);
    let batch = Tensor::randn(vec![8, 28 * 28], 0.5, &mut rng);
    let labels = [0usize, 1, 2, 3, 4, 5, 6, 7];
    let mut opt = Adam::new(1e-3);
    c.bench_function("mnist_net_train_step_b8", |b| {
        b.iter(|| {
            let logits = net.forward(&batch, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
        });
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = dataset_rendering, inference, training_step
}
criterion_main!(benches);
