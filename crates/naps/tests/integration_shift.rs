//! Integration: the monitor as a distribution-shift and novelty detector
//! (the paper's introduction and Figure 1 scooter scenario).

use naps::data::corrupt::{shift_dataset, Corruption};
use naps::data::{digits, novelty};
use naps::monitor::ActivationMonitor;
use naps::monitor::{evaluate, BddZone, IntervalZone, MonitorBuilder, Verdict};
use naps::nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use naps::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MONITORED_LAYER: usize = 3;

/// Seed of the discriminativeness-sensitive fixture below.
///
/// This value is coupled to the **vendored** `rand` stream (see
/// `vendor/rand`): under it, the γ=1 comfort zone built from 25
/// digits/class is tight enough to warn on shifted inputs.  When PR 1
/// swapped crates.io `rand` for the offline stand-in, the old seed 10
/// produced a degenerate zone covering the whole pattern space — both
/// clean and shifted warning rates were exactly zero, and the test passed
/// while testing nothing.  `heavy_corruption_raises_the_warning_rate`
/// now guards against that degeneracy explicitly; if a future RNG
/// retuning trips the guard, pick a new seed here (any one that makes
/// the monitor discriminative) rather than weakening the assertion.
const DISCRIMINATIVE_FIXTURE_SEED: u64 = 30;

fn fixture(seed: u64) -> (Sequential, naps::data::Dataset, naps::data::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = digits::generate(25, digits::DigitStyle::clean(), &mut rng);
    let val = digits::generate(12, digits::DigitStyle::clean(), &mut rng);
    let mut net = mlp(&[784, 48, 24, 10], &mut rng);
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 32,
        verbose: false,
    });
    trainer.fit(
        &mut net,
        &train.samples,
        &train.labels,
        &mut Adam::new(2e-3),
        &mut rng,
    );
    (net, train, val)
}

#[test]
fn heavy_corruption_raises_the_warning_rate() {
    let (mut net, train, val) = fixture(DISCRIMINATIVE_FIXTURE_SEED);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let mut rng = StdRng::seed_from_u64(11);
    let clean = evaluate(&monitor, &mut net, &val.samples, &val.labels);
    let noisy = shift_dataset(&val, 1, 28, Corruption::GaussianNoise(0.35), &mut rng);
    let shifted = evaluate(&monitor, &mut net, &noisy.samples, &noisy.labels);
    // Degeneracy guard (see DISCRIMINATIVE_FIXTURE_SEED): a comfort zone
    // that covers everything makes both rates 0.0 and the comparison
    // below vacuous.  Fail loudly instead of passing silently.
    assert!(
        shifted.out_of_pattern_rate() > 0.0,
        "degenerate fixture: the γ=1 zone admits even heavily corrupted \
         inputs, so this test is vacuous — the vendored RNG stream \
         changed; retune DISCRIMINATIVE_FIXTURE_SEED"
    );
    assert!(
        shifted.out_of_pattern_rate() > clean.out_of_pattern_rate(),
        "shifted {:.3} <= clean {:.3}",
        shifted.out_of_pattern_rate(),
        clean.out_of_pattern_rate()
    );
}

#[test]
fn novelty_inputs_warn_more_often_than_in_distribution_inputs() {
    let (mut net, train, val) = fixture(12);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let mut rng = StdRng::seed_from_u64(13);
    let warn_rate = |reports: &[naps::monitor::MonitorReport]| {
        reports
            .iter()
            .filter(|r| r.verdict == Verdict::OutOfPattern)
            .count() as f64
            / reports.len() as f64
    };
    let in_dist = monitor.check_batch(&mut net, &val.samples);
    let novelties: Vec<Tensor> = (0..60)
        .map(|i| {
            let kind = match i % 3 {
                0 => novelty::Novelty::Scooter,
                1 => novelty::Novelty::Asterisk,
                _ => novelty::Novelty::Spiral,
            };
            novelty::render_gray(kind, 28, &mut rng)
        })
        .collect();
    let novel = monitor.check_batch(&mut net, &novelties);
    assert!(
        warn_rate(&novel) > warn_rate(&in_dist),
        "novelty warn rate {:.3} <= in-distribution {:.3}",
        warn_rate(&novel),
        warn_rate(&in_dist)
    );
}

#[test]
fn interval_refinement_catches_magnitude_outliers_binary_monitor_misses() {
    // A pattern can be binary-identical while the activation magnitudes
    // are far outside anything seen in training (Section V item 2): the
    // interval envelope must flag scaled-up activations even though the
    // on/off pattern is unchanged.
    let (mut net, train, _) = fixture(14);
    let mut envelope = IntervalZone::empty(24);
    let mut sample_acts: Option<Vec<f32>> = None;
    for s in &train.samples {
        let batch = Tensor::from_vec(vec![1, s.len()], s.data().to_vec());
        let acts = net.forward_all(&batch, false);
        let row = acts[MONITORED_LAYER + 1].row(0).to_vec();
        envelope.insert(&row);
        sample_acts.get_or_insert(row);
    }
    let acts = sample_acts.expect("nonempty training set");
    // In-envelope vector passes.
    assert!(envelope.contains(&acts, 1e-4));
    // Same on/off pattern, 10x magnitude: binary pattern unchanged,
    // envelope violated.
    let scaled: Vec<f32> = acts.iter().map(|v| v * 10.0).collect();
    let p1 = naps::monitor::Pattern::from_activations(&acts);
    let p2 = naps::monitor::Pattern::from_activations(&scaled);
    assert_eq!(p1, p2, "scaling must not change the binary pattern");
    assert!(
        !envelope.contains(&scaled, 0.0),
        "envelope failed to flag a 10x activation blow-up"
    );
}

#[test]
fn static_noise_inputs_are_reliably_flagged() {
    let (mut net, train, _) = fixture(15);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let mut rng = StdRng::seed_from_u64(16);
    let noise: Vec<Tensor> = (0..40)
        .map(|_| novelty::render_gray(novelty::Novelty::Static, 28, &mut rng))
        .collect();
    let reports = monitor.check_batch(&mut net, &noise);
    let warned = reports
        .iter()
        .filter(|r| r.verdict == Verdict::OutOfPattern)
        .count();
    // Pure noise is about as far from the training manifold as inputs
    // get; expect a majority to warn.
    assert!(
        warned * 2 > reports.len(),
        "only {warned}/40 noise inputs warned"
    );
}
