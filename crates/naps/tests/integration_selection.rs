//! Integration: gradient-based neuron selection and abstraction control
//! (Sections II and III) on a trained classifier.

use naps::data::signs::{self, STOP_SIGN_CLASS};
use naps::monitor::ActivationMonitor;
use naps::monitor::{
    choose_gamma, evaluate, BddZone, GammaPolicy, GammaSweep, MonitorBuilder, NeuronSelection,
    Verdict,
};
use naps::nn::{
    mlp, saliency_by_backward, saliency_from_output_weights, Adam, Dense, Sequential, TrainConfig,
    Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MONITORED_LAYER: usize = 3; // fc, relu, fc(84), relu <- here, fc(43)

fn fixture(seed: u64) -> (Sequential, naps::data::Dataset, naps::data::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = signs::generate(12, signs::SignStyle::clean(), &mut rng);
    let val = signs::generate(6, signs::SignStyle::hard(), &mut rng);
    let mut net = mlp(&[3 * 32 * 32, 120, 84, 43], &mut rng);
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
    (net, train, val)
}

fn stop_sign_selection(net: &Sequential) -> NeuronSelection {
    let dense = net
        .layer(net.len() - 1)
        .as_any()
        .downcast_ref::<Dense>()
        .expect("output layer is dense");
    let saliency = saliency_from_output_weights(dense, STOP_SIGN_CLASS);
    NeuronSelection::top_fraction_by_saliency(&saliency, 0.25)
}

#[test]
fn quarter_selection_monitors_21_of_84_neurons() {
    let (net, _, _) = fixture(20);
    let sel = stop_sign_selection(&net);
    assert_eq!(sel.len(), 21, "paper: 25% of 84 neurons");
    assert_eq!(sel.layer_width(), 84);
    assert!(sel.indices().iter().all(|&i| i < 84));
}

#[test]
fn selected_monitor_is_sound_on_training_data() {
    let (mut net, train, _) = fixture(21);
    let sel = stop_sign_selection(&net);
    let monitor = MonitorBuilder::new(MONITORED_LAYER, 0)
        .with_selection(sel)
        .with_classes(vec![STOP_SIGN_CLASS])
        .build::<BddZone>(&mut net, &train.samples, &train.labels, 43);
    let reports = monitor.check_batch(&mut net, &train.samples);
    for (rep, &label) in reports.iter().zip(&train.labels) {
        if rep.predicted == STOP_SIGN_CLASS && rep.predicted == label {
            assert_eq!(rep.verdict, Verdict::InPattern);
        }
        if rep.predicted != STOP_SIGN_CLASS {
            assert_eq!(rep.verdict, Verdict::Unmonitored);
        }
    }
}

#[test]
fn fewer_monitored_neurons_coarsen_the_abstraction() {
    // Monitoring a subset of neurons lets unmonitored neurons take any
    // value (the paper's scaling argument): warnings can only decrease
    // relative to monitoring every neuron at the same γ.
    let (mut net, train, val) = fixture(22);
    let all = MonitorBuilder::new(MONITORED_LAYER, 0)
        .with_classes(vec![STOP_SIGN_CLASS])
        .build::<BddZone>(&mut net, &train.samples, &train.labels, 43);
    let sel = stop_sign_selection(&net);
    let quarter = MonitorBuilder::new(MONITORED_LAYER, 0)
        .with_selection(sel)
        .with_classes(vec![STOP_SIGN_CLASS])
        .build::<BddZone>(&mut net, &train.samples, &train.labels, 43);
    let stats_all = evaluate(&all, &mut net, &val.samples, &val.labels);
    let stats_quarter = evaluate(&quarter, &mut net, &val.samples, &val.labels);
    assert!(
        stats_quarter.out_of_pattern <= stats_all.out_of_pattern,
        "projection must not add warnings: {} > {}",
        stats_quarter.out_of_pattern,
        stats_all.out_of_pattern
    );
}

#[test]
fn backward_saliency_agrees_with_weight_saliency_in_ranking() {
    let (mut net, train, _) = fixture(23);
    let dense = net
        .layer(net.len() - 1)
        .as_any()
        .downcast_ref::<Dense>()
        .expect("dense");
    let by_weight = saliency_from_output_weights(dense, STOP_SIGN_CLASS);
    // Probe with a few stop-sign training images.
    let idx = train.indices_of_class(STOP_SIGN_CLASS);
    let probes = naps::nn::Trainer::make_batch(&train.samples, &idx[..4.min(idx.len())]);
    let by_backward = saliency_by_backward(&mut net, &probes, MONITORED_LAYER, STOP_SIGN_CLASS);
    assert_eq!(by_weight.len(), by_backward.len());
    // The backward route masks gradients through inactive ReLUs, so exact
    // equality is not expected — but every neuron the backward route rates
    // positive must also have nonzero weight saliency.
    for (i, (&bw, &ww)) in by_backward.iter().zip(&by_weight).enumerate() {
        if bw > 1e-6 {
            assert!(ww > 0.0, "neuron {i}: backward {bw} but weight 0");
        }
    }
}

#[test]
fn gamma_selection_policies_pick_usable_abstractions() {
    let (mut net, train, val) = fixture(24);
    let mut monitor = MonitorBuilder::new(MONITORED_LAYER, 0).build::<BddZone>(
        &mut net,
        &train.samples,
        &train.labels,
        43,
    );
    let sweep = GammaSweep::up_to(4).run(&mut monitor, &mut net, &val.samples, &val.labels);
    // Rates are monotone, so if any policy fires it returns the first
    // satisfying gamma.
    if let Some(g) = choose_gamma(&sweep, GammaPolicy::MaxOutOfPatternRate(0.5)) {
        let entry = sweep.iter().find(|s| s.gamma == g).expect("swept");
        assert!(entry.stats.out_of_pattern_rate() <= 0.5);
        if g > 0 {
            let prev = sweep.iter().find(|s| s.gamma == g - 1).expect("swept");
            assert!(
                prev.stats.out_of_pattern_rate() > 0.5,
                "not the first satisfying γ"
            );
        }
    }
}
