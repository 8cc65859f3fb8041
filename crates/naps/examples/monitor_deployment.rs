//! Deployment round-trip: ship a trained network **and** its activation
//! pattern monitor as two JSON artifacts, restore them in a fresh process,
//! and verify the restored pair reproduces every verdict.
//!
//! This is the workflow the paper implies for certification: the monitor
//! is built once in engineering time, frozen, and deployed next to the
//! network on the vehicle.
//!
//! Run with `cargo run --release --example monitor_deployment`.

use naps::data::digits;
use naps::monitor::ActivationMonitor;
use naps::monitor::{BddZone, Monitor, MonitorBuilder, MonitorSnapshot};
use naps::nn::{mlp, Adam, ModelSnapshot, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(21);

    // Engineering time: train and build.
    println!("[engineering] training and building the monitor");
    let train = digits::generate(40, digits::DigitStyle::clean(), &mut rng);
    let val = digits::generate(15, digits::DigitStyle::hard(), &mut rng);
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
    let monitor =
        MonitorBuilder::new(3, 1).build::<BddZone>(&mut net, &train.samples, &train.labels, 10);

    // Freeze both artifacts.
    let dir = std::env::temp_dir().join("naps_deployment_demo");
    std::fs::create_dir_all(&dir)?;
    let model_path = dir.join("model.json");
    let monitor_path = dir.join("monitor.json");
    std::fs::write(
        &model_path,
        serde_json::to_string(&ModelSnapshot::capture(&net)?)?,
    )?;
    std::fs::write(&monitor_path, serde_json::to_string(&monitor.snapshot())?)?;
    println!(
        "[engineering] wrote {} ({} bytes) and {} ({} bytes)",
        model_path.display(),
        std::fs::metadata(&model_path)?.len(),
        monitor_path.display(),
        std::fs::metadata(&monitor_path)?.len()
    );

    // Deployment: a "fresh process" restores both.
    println!("[deployment] restoring model + monitor from disk");
    let model_snap: ModelSnapshot = serde_json::from_str(&std::fs::read_to_string(&model_path)?)?;
    let monitor_snap: MonitorSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&monitor_path)?)?;
    let mut deployed_net = model_snap.restore()?;
    let deployed_monitor = Monitor::from_snapshot(&monitor_snap)?;

    // Verify the deployed pair agrees with the engineering pair.
    let mut agreements = 0usize;
    for x in &val.samples {
        let a = monitor.check(&mut net, x);
        let b = deployed_monitor.check(&mut deployed_net, x);
        assert_eq!(a, b, "deployed verdict diverged");
        agreements += 1;
    }
    println!(
        "[deployment] {agreements}/{} validation verdicts identical after the round-trip",
        val.samples.len()
    );
    println!(
        "[deployment] monitor: γ={}, {} monitored classes, {} monitored neurons",
        deployed_monitor.gamma(),
        deployed_monitor.monitored_classes().len(),
        deployed_monitor.selection().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
