//! The deployment-time digit streams the `graded`, `layered` and
//! `online_adaptation` evals replay: corrupted validation digits and
//! novelties the network never saw.

use naps_data::corrupt::{apply, Corruption};
use naps_data::novelty::{render_gray, Novelty};
use naps_data::Dataset;
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The corruption mix of the `graded` and `layered` evals.
pub const SHIFTS: [Corruption; 3] = [
    Corruption::GaussianNoise(0.35),
    Corruption::Fog(0.45),
    Corruption::Brightness(0.6),
];

/// Corrupts `val`'s 28×28 digits, cycling `shifts` per sample, from a
/// generator seeded with `seed`: one fixed tensor per sample, so every
/// replay of the stream is identical.
pub fn corrupted_stream(val: &Dataset, shifts: &[Corruption], seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    val.samples
        .iter()
        .enumerate()
        .map(|(i, s)| apply(s, 1, 28, shifts[i % shifts.len()], &mut rng))
        .collect()
}

/// `n` 28×28 renders of novelties (classes the network never saw),
/// cycling four kinds.
pub fn novelty_stream(n: usize, seed: u64) -> Vec<Tensor> {
    let kinds = [
        Novelty::Scooter,
        Novelty::Asterisk,
        Novelty::Spiral,
        Novelty::Static,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| render_gray(kinds[i % kinds.len()], 28, &mut rng))
        .collect()
}
