//! Single-class monitoring with gradient-based neuron selection — the
//! paper's GTSRB configuration in miniature.
//!
//! An MLP classifies the 43 synthetic sign classes; only the stop sign
//! (class 14) is monitored, on the 25 % most decision-relevant neurons of
//! its 84-wide penultimate ReLU layer (saliency = |output weight|, the
//! special case of Section II).
//!
//! Run with `cargo run --release --example gtsrb_stop_sign`.

use naps::data::corrupt::{apply, Corruption};
use naps::data::signs::{self, STOP_SIGN_CLASS};
use naps::monitor::{
    evaluate_with_mode, BddZone, EvalMode, GammaSweep, MonitorBuilder, NeuronSelection, Zone,
};
use naps::nn::{mlp, saliency_from_output_weights, Adam, Dense, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(14);

    println!("[training a 3072-160-84-43 sign classifier]");
    let train = signs::generate(25, signs::SignStyle::clean(), &mut rng);
    let mut val = signs::generate(6, signs::SignStyle::hard(), &mut rng);
    // The single-class monitor needs a rich stop-sign pool: add extra hard
    // stop signs, an eighth of them corrupted (occlusion / fog), modelling
    // the difficult captures real benchmarks contain.
    for i in 0..80 {
        let img = signs::render(STOP_SIGN_CLASS, signs::SignStyle::hard(), &mut rng);
        let img = match i % 8 {
            0 => apply(&img, 3, 32, Corruption::Occlusion(12), &mut rng),
            1 => apply(&img, 3, 32, Corruption::Fog(0.5), &mut rng),
            _ => img,
        };
        val.push(img, STOP_SIGN_CLASS);
    }
    let mut net = mlp(&[3 * 32 * 32, 160, 84, 43], &mut rng);
    let trainer = Trainer::new(TrainConfig {
        epochs: 10,
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
    println!(
        "  train {:.1}% / val {:.1}%",
        100.0 * trainer.evaluate(&mut net, &train.samples, &train.labels),
        100.0 * trainer.evaluate(&mut net, &val.samples, &val.labels)
    );

    // Gradient saliency toward the stop-sign logit: the monitored layer
    // feeds the linear output layer, so ∂n_c/∂n_i = W[i, c].
    let out_layer = net.len() - 1;
    let dense = net
        .layer(out_layer)
        .as_any()
        .downcast_ref::<Dense>()
        .expect("output layer is dense");
    let saliency = saliency_from_output_weights(dense, STOP_SIGN_CLASS);
    let selection = NeuronSelection::top_fraction_by_saliency(&saliency, 0.25);
    println!(
        "[monitoring {} of 84 neurons for class {STOP_SIGN_CLASS} (stop sign)]",
        selection.len()
    );

    let monitored_layer = 3; // fc, relu, fc(84), relu <- monitored
    let mut monitor = MonitorBuilder::new(monitored_layer, 0)
        .with_selection(selection)
        .with_classes(vec![STOP_SIGN_CLASS])
        .build::<BddZone>(&mut net, &train.samples, &train.labels, 43);

    if let Some(zone) = monitor.zone(STOP_SIGN_CLASS) {
        println!(
            "  stop-sign zone: {} visited patterns over {} monitored neurons",
            zone.seed_count(),
            zone.width()
        );
    }
    println!("[γ sweep over stop-sign validation data (class-conditioned, as in the paper)]");
    let sweep = GammaSweep::up_to(3).with_mode(EvalMode::ByLabel).run(
        &mut monitor,
        &mut net,
        &val.samples,
        &val.labels,
    );
    println!("  γ   #oop/#total           precision");
    for g in &sweep {
        println!(
            "  {}   {:>5}/{:<5} ({:>6.2}%)   {:>6.2}%",
            g.gamma,
            g.stats.out_of_pattern,
            g.stats.total,
            100.0 * g.stats.out_of_pattern_rate(),
            100.0 * g.stats.warning_precision()
        );
    }

    // Cross-check: a single final evaluation at the last γ.
    let final_stats = evaluate_with_mode(
        &monitor,
        &mut net,
        &val.samples,
        &val.labels,
        EvalMode::ByLabel,
    );
    println!("[final] {final_stats}");
}
