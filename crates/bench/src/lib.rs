//! Shared fixtures.
//!
//! The evals and the benchmark (`perfbench/`) need clustered activation
//! patterns, zones built from them, and a small trained serving MLP;
//! building them here keeps every eval and the benchmark on the same
//! inputs.

use naps_core::{BddZone, Monitor, MonitorBuilder, Pattern, Zone};
use naps_nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use naps_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `n` random activation patterns of `width` bits with class
/// structure: bits are biased by `class` so per-class pattern sets cluster
/// (as trained networks produce).
pub fn clustered_patterns(n: usize, width: usize, class: u64, seed: u64) -> Vec<Pattern> {
    let mut rng = StdRng::seed_from_u64(seed ^ class.wrapping_mul(0x9e37_79b9));
    let bias: Vec<f32> = (0..width)
        .map(|i| {
            if (i as u64).wrapping_mul(class + 1).is_multiple_of(3) {
                0.85
            } else {
                0.15
            }
        })
        .collect();
    (0..n)
        .map(|_| {
            let bits: Vec<bool> = bias.iter().map(|&p| rng.gen::<f32>() < p).collect();
            Pattern::from_bools(&bits)
        })
        .collect()
}

/// Builds a zone of the requested backend from patterns, enlarged to γ.
pub fn zone_from_patterns<Z: Zone>(patterns: &[Pattern], gamma: u32) -> Z {
    let width = patterns.first().map_or(0, Pattern::len);
    let mut z = Z::empty(width);
    for p in patterns {
        z.insert(p);
    }
    z.enlarge_to(gamma);
    z
}

/// The serving-throughput fixture shared by the serving evals, the
/// gateway soak test and `perfbench`'s `wire_small` workload: a classifier wide
/// enough that the forward pass dominates per-query cost (so parallel
/// speedup is measurable rather than drowned in queueing overhead), its
/// monitor, and a mixed in/out-of-distribution probe workload.
///
/// Returns `(monitor, model, probes)`; the monitor watches the second
/// ReLU (layer 3) of a `[16, 96, 48, classes]` MLP at γ = 1.
pub fn serving_fixture(
    classes: usize,
    probes: usize,
    seed: u64,
) -> (Monitor<BddZone>, Sequential, Vec<Tensor>) {
    let in_dim = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = mlp(&[in_dim, 96, 48, classes], &mut rng);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..classes {
        let phase = c as f32 * std::f32::consts::TAU / classes as f32;
        for k in 0..40 {
            let data: Vec<f32> = (0..in_dim)
                .map(|i| {
                    let centre = (phase + i as f32 * 0.6).sin() * 2.0;
                    centre + 0.25 * ((k * in_dim + i) as f32 * 0.77).sin()
                })
                .collect();
            xs.push(Tensor::from_vec(vec![in_dim], data));
            ys.push(c);
        }
    }
    let trainer = Trainer::new(TrainConfig {
        epochs: 20,
        batch_size: 32,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.01), &mut rng);
    let monitor = MonitorBuilder::new(3, 1).build::<BddZone>(&mut net, &xs, &ys, classes);
    let workload: Vec<Tensor> = (0..probes)
        .map(|p| {
            let base = &xs[p % xs.len()];
            let scale = match p % 3 {
                0 => 0.0, // exact training input
                1 => 0.2, // jittered in-distribution
                _ => 3.0, // far out: exercises out-of-pattern
            };
            let data: Vec<f32> = base
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| v + scale * ((p * 31 + i) as f32 * 1.3).sin())
                .collect();
            Tensor::from_vec(vec![in_dim], data)
        })
        .collect();
    (monitor, net, workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_patterns_have_requested_shape() {
        let ps = clustered_patterns(10, 24, 3, 0);
        assert_eq!(ps.len(), 10);
        assert!(ps.iter().all(|p| p.len() == 24));
    }

    #[test]
    fn zone_from_patterns_contains_seeds() {
        let ps = clustered_patterns(5, 16, 0, 1);
        let z: BddZone = zone_from_patterns(&ps, 0);
        for p in &ps {
            assert!(z.contains(p));
        }
    }
}
