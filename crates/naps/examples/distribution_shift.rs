//! Distribution-shift detection: the monitor as a drift indicator.
//!
//! The paper's introduction argues that "the frequent appearance of unseen
//! patterns provides an indicator of data distribution shift to the
//! development team".  This example quantifies that: a digit classifier's
//! monitor is exposed to increasingly corrupted deployment data and the
//! out-of-pattern rate is reported per severity, alongside an
//! [`naps::monitor::IntervalZone`] numeric refinement (Section V item 2).
//!
//! Run with `cargo run --release --example distribution_shift`.

use naps::data::corrupt::{shift_dataset, Corruption};
use naps::data::digits;
use naps::monitor::{evaluate, BddZone, IntervalZone, MonitorBuilder};
use naps::nn::{mlp, Adam, ObservationPlan, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);

    println!("[training a digit classifier]");
    let train = digits::generate(60, digits::DigitStyle::clean(), &mut rng);
    let val = digits::generate(25, digits::DigitStyle::clean(), &mut rng);
    let mut net = mlp(&[784, 64, 32, 10], &mut rng);
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

    let monitored_layer = 3;
    let monitor = MonitorBuilder::new(monitored_layer, 1).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        10,
    );

    // Numeric refinement: record the real-valued envelope of the monitored
    // activations over the training set.  The observation plan keeps only
    // the monitored layer's activations from each forward pass.
    let plan = ObservationPlan::single(monitored_layer);
    let mut envelope = IntervalZone::empty(32);
    net.observe_rows(&train.samples, &plan, |_, _, row| {
        envelope.insert(row.layer(0));
    });

    println!("[exposing the monitor to shifted deployment distributions]");
    let shifts: [(&str, Corruption); 5] = [
        ("clean", Corruption::GaussianNoise(0.0)),
        ("noise σ=0.1", Corruption::GaussianNoise(0.1)),
        ("noise σ=0.25", Corruption::GaussianNoise(0.25)),
        ("occlusion 10px", Corruption::Occlusion(10)),
        ("fog 0.5", Corruption::Fog(0.5)),
    ];
    println!(
        "  {:<16} {:>14} {:>14} {:>18}",
        "shift", "miscls", "oop rate", "interval violations"
    );
    for (name, corruption) in shifts {
        let shifted = shift_dataset(&val, 1, 28, corruption, &mut rng);
        let stats = evaluate(&monitor, &mut net, &shifted.samples, &shifted.labels);
        // Interval-zone violations on the same data.
        let mut violations = 0usize;
        net.observe_rows(&shifted.samples, &plan, |_, _, row| {
            if !envelope.contains(row.layer(0), 0.5) {
                violations += 1;
            }
        });
        println!(
            "  {:<16} {:>13.1}% {:>13.1}% {:>17.1}%",
            name,
            100.0 * stats.misclassification_rate(),
            100.0 * stats.out_of_pattern_rate(),
            100.0 * violations as f64 / shifted.len() as f64
        );
    }
    println!("\nrising out-of-pattern rates flag the shift before labels exist.");
}
