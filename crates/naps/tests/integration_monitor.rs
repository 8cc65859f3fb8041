//! End-to-end integration: data generation → training → Algorithm 1 →
//! deployment queries, across crates.

use naps::data::digits;
use naps::monitor::ActivationMonitor;
use naps::monitor::{evaluate, BddZone, ExactZone, Monitor, MonitorBuilder, Verdict};
use naps::nn::{mlp, Adam, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MONITORED_LAYER: usize = 3; // fc, relu, fc, relu <- monitored, fc

fn trained_digit_mlp(seed: u64) -> (Sequential, naps::data::Dataset, naps::data::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = digits::generate(25, digits::DigitStyle::clean(), &mut rng);
    let val = digits::generate(10, digits::DigitStyle::hard(), &mut rng);
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
fn classifier_learns_the_synthetic_digits() {
    let (mut net, train, _) = trained_digit_mlp(0);
    let trainer = Trainer::new(TrainConfig::default());
    let acc = trainer.evaluate(&mut net, &train.samples, &train.labels);
    assert!(acc > 0.9, "train accuracy {acc}");
}

#[test]
fn soundness_no_correct_training_input_warns() {
    // The paper's central guarantee (Section IV): the comfort zone is a
    // sound over-approximation of the visited patterns, so a warning on a
    // correctly classified training input is impossible at any γ.
    let (mut net, train, _) = trained_digit_mlp(1);
    for gamma in [0u32, 1] {
        let monitor = MonitorBuilder::new(MONITORED_LAYER, gamma).build::<BddZone>(
            &mut net,
            &train.samples,
            &train.labels,
            10,
        );
        let reports = monitor.check_batch(&mut net, &train.samples);
        for (rep, &label) in reports.iter().zip(&train.labels) {
            if rep.predicted == label {
                assert_eq!(
                    rep.verdict,
                    Verdict::InPattern,
                    "gamma={gamma}: correct training input flagged"
                );
            }
        }
    }
}

#[test]
fn gamma_monotonicity_on_validation_data() {
    let (mut net, train, val) = trained_digit_mlp(2);
    let mut monitor = MonitorBuilder::new(MONITORED_LAYER, 0).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let mut prev_oop = usize::MAX;
    for gamma in 0..4 {
        monitor.enlarge_to(gamma);
        let stats = evaluate(&monitor, &mut net, &val.samples, &val.labels);
        assert!(
            stats.out_of_pattern <= prev_oop,
            "gamma {gamma}: warnings grew from {prev_oop} to {}",
            stats.out_of_pattern
        );
        prev_oop = stats.out_of_pattern;
    }
}

#[test]
fn bdd_and_exact_backends_agree_end_to_end() {
    let (mut net, train, val) = trained_digit_mlp(3);
    let builder = MonitorBuilder::new(MONITORED_LAYER, 1);
    let bdd = builder.build::<BddZone>(&mut net, &train.samples, &train.labels, 10);
    let exact = builder.build::<ExactZone>(&mut net, &train.samples, &train.labels, 10);
    let ra = bdd.check_batch(&mut net, &val.samples);
    let rb = exact.check_batch(&mut net, &val.samples);
    for (a, b) in ra.iter().zip(&rb) {
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.distance_to_seeds, b.distance_to_seeds);
    }
}

#[test]
fn verdict_agrees_with_reported_distance() {
    // OutOfPattern <=> distance to seeds exceeds gamma (for in-gamma
    // verdicts the distance is at most gamma... strictly: contains <=>
    // dist <= gamma, because the zone is exactly the gamma-ball union).
    let (mut net, train, val) = trained_digit_mlp(4);
    let gamma = 1u32;
    let monitor = MonitorBuilder::new(MONITORED_LAYER, gamma).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    for rep in monitor.check_batch(&mut net, &val.samples) {
        match (rep.verdict, rep.distance_to_seeds) {
            (Verdict::InPattern, Some(d)) => assert!(d <= gamma, "in-pattern at distance {d}"),
            (Verdict::OutOfPattern, Some(d)) => {
                assert!(d > gamma, "out-of-pattern at distance {d}")
            }
            (Verdict::OutOfPattern, None) => {} // empty zone for that class
            (v, d) => panic!("inconsistent report: {v:?} with distance {d:?}"),
        }
    }
}

#[test]
fn snapshot_survives_json_roundtrip_end_to_end() {
    let (mut net, train, val) = trained_digit_mlp(5);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let json = serde_json::to_string(&monitor.snapshot()).expect("serialize");
    let snap = serde_json::from_str(&json).expect("deserialize");
    let restored = Monitor::from_snapshot(&snap).expect("restore");
    let before = monitor.check_batch(&mut net, &val.samples);
    let after = restored.check_batch(&mut net, &val.samples);
    assert_eq!(before, after);
}

#[test]
fn harder_validation_data_warns_more_than_training_data() {
    let (mut net, train, val) = trained_digit_mlp(6);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 0).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );
    let on_train = evaluate(&monitor, &mut net, &train.samples, &train.labels);
    let on_val = evaluate(&monitor, &mut net, &val.samples, &val.labels);
    assert!(
        on_val.out_of_pattern_rate() >= on_train.out_of_pattern_rate(),
        "validation ({}) should warn at least as often as training ({})",
        on_val.out_of_pattern_rate(),
        on_train.out_of_pattern_rate()
    );
}
