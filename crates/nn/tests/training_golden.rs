//! Training-trajectory goldens: a few optimiser steps of the paper's two
//! conv nets and of a small MLP, at fixed seeds on procedural images, must
//! land on exactly the same `f32` parameters every time.
//!
//! Each test hashes every parameter bit of the trained model's
//! [`ModelSnapshot`] (FNV-1a over `f32::to_bits`) and compares it with a
//! constant recorded once.  A change to any layer's forward or backward
//! arithmetic that reorders a sum, flips the sign of a zero or turns a
//! value into NaN moves the hash, so a refactor of the training path that
//! must keep every trained weight (and with it every monitor verdict
//! downstream) bit-identical is checked here end to end.  The hashes hold
//! in both the dev and the release profile: `cargo test -p naps-nn --test
//! training_golden` and the same with `--release`.

use naps_nn::{
    gtsrb_net, mlp, mnist_net, Adam, LayerSnapshot, ModelSnapshot, Optimizer, Sequential, Sgd,
    TrainConfig, Trainer,
};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The FNV-1a hash of every `f32` in the snapshot of `model`, layer by
/// layer in order.
fn snapshot_hash(model: &Sequential) -> u64 {
    let snap = ModelSnapshot::capture(model).expect("crate layers only");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for layer in &snap.layers {
        h = match layer {
            LayerSnapshot::Dense { w, b } | LayerSnapshot::Conv2d { w, b, .. } => {
                fnv1a(fnv1a(h, bits(w)), bits(b))
            }
            LayerSnapshot::BatchNorm2d {
                eps,
                gamma,
                beta,
                running_mean,
                running_var,
                ..
            } => {
                let h = fnv1a(h, [eps.to_bits()]);
                let h = fnv1a(fnv1a(h, bits(gamma)), bits(beta));
                let h = fnv1a(h, running_mean.iter().map(|v| v.to_bits()));
                fnv1a(h, running_var.iter().map(|v| v.to_bits()))
            }
            _ => h,
        };
    }
    h
}

/// `n` procedural `[c, side, side]` images over `classes` classes: a
/// zero background with a class-dependent bright bar (row for even
/// classes, column for odd ones) and a sprinkle of noise, so that ReLU
/// and max pooling see exact zeros, ties and signed values alike.
fn images(
    n: usize,
    c: usize,
    side: usize,
    classes: usize,
    rng: &mut StdRng,
) -> (Vec<Tensor>, Vec<usize>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let mut data = vec![0.0f32; c * side * side];
        let line = 2 + (class * 5) % (side - 4);
        for ch in 0..c {
            for t in 1..side - 1 {
                let (y, x) = if class.is_multiple_of(2) {
                    (line, t)
                } else {
                    (t, line)
                };
                data[ch * side * side + y * side + x] = 1.0 - 0.1 * ch as f32;
            }
        }
        for v in data.iter_mut() {
            if rng.gen_bool(0.15) {
                *v += rng.gen_range(-0.5f32..0.5);
            }
        }
        xs.push(Tensor::from_vec(vec![c * side * side], data));
        ys.push(class);
    }
    (xs, ys)
}

/// Trains `model` for `epochs` epochs of batch `batch` on `(xs, ys)`
/// with a trainer seeded by `seed`, and returns the snapshot hash.
fn train_and_hash(
    model: &mut Sequential,
    (xs, ys): &(Vec<Tensor>, Vec<usize>),
    opt: &mut dyn Optimizer,
    epochs: usize,
    batch: usize,
    seed: u64,
) -> u64 {
    let trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: batch,
        verbose: false,
    });
    let report = trainer.fit(model, xs, ys, opt, &mut StdRng::seed_from_u64(seed));
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    snapshot_hash(model)
}

/// Asserts `got == want`, printing both in hex.
fn assert_hash(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: trained parameters hash to {got:#018x}, golden is {want:#018x}"
    );
}

/// Network 1 (conv → ReLU → max pool twice, then the fc stack), six SGD
/// steps with momentum on 24 digit-sized images.
#[test]
fn mnist_net_sgd_trajectory_is_pinned() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = mnist_net(&mut rng);
    let data = images(24, 1, 28, 10, &mut rng);
    let got = train_and_hash(&mut net, &data, &mut Sgd::new(0.05, 0.9), 2, 8, 12);
    assert_hash("mnist_net", got, 0x9c8e_f09e_e010_9041);
}

/// Network 2 (conv → batch norm → ReLU → max pool twice, then fc), three
/// Adam steps on 24 sign-sized RGB images.
#[test]
fn gtsrb_net_adam_trajectory_is_pinned() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = gtsrb_net(&mut rng);
    let data = images(24, 3, 32, 43, &mut rng);
    let got = train_and_hash(&mut net, &data, &mut Adam::new(1e-3), 1, 8, 22);
    assert_hash("gtsrb_net", got, 0x3de3_0fe8_0d35_2de4);
}

/// A small ReLU MLP, twelve Adam steps on 48 flattened 8×8 images.
#[test]
fn mlp_adam_trajectory_is_pinned() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut net = mlp(&[64, 32, 16, 4], &mut rng);
    let data = images(48, 1, 8, 4, &mut rng);
    let got = train_and_hash(&mut net, &data, &mut Adam::new(1e-2), 2, 8, 32);
    assert_hash("mlp", got, 0x069f_3741_5d03_9c98);
}
