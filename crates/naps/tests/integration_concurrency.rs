//! Concurrency integration: a deployed monitor is queried from the
//! perception loop while other threads (diagnostics, logging) hold
//! references — the monitor must be shareable for reads.

use naps::monitor::ActivationMonitor;
use naps::monitor::{BddZone, MonitorBuilder, Pattern, Zone};
use naps::nn::{mlp, Adam, TrainConfig, Trainer};
use naps::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, RwLock};

#[test]
fn monitor_pattern_queries_are_shareable_across_threads() {
    // Train a small model and build a monitor.
    let mut rng = StdRng::seed_from_u64(50);
    let mut net = mlp(&[4, 16, 3], &mut rng);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..90 {
        let c = i % 3;
        let base = c as f32 - 1.0;
        xs.push(Tensor::from_vec(
            vec![4],
            (0..4)
                .map(|k| base + 0.1 * (k as f32 + i as f32).sin())
                .collect(),
        ));
        ys.push(c);
    }
    let trainer = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 16,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.02), &mut rng);
    let monitor = Arc::new(MonitorBuilder::new(1, 1).build::<BddZone>(&mut net, &xs, &ys, 3));

    // Fan out read-only pattern queries from several threads.
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let m = Arc::clone(&monitor);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            let mut hits = 0usize;
            for _ in 0..200 {
                let bits: Vec<bool> = (0..16).map(|_| rng.gen()).collect();
                let p = Pattern::from_bools(&bits);
                for c in 0..3 {
                    if m.check_pattern(c, &p) == naps::monitor::Verdict::InPattern {
                        hits += 1;
                    }
                }
            }
            hits
        }));
    }
    for h in handles {
        let _ = h.join().expect("query thread panicked");
    }
}

#[test]
fn model_behind_rwlock_serves_monitored_checks() {
    let mut rng = StdRng::seed_from_u64(51);
    let mut net = mlp(&[2, 8, 2], &mut rng);
    let xs: Vec<Tensor> = (0..20)
        .map(|i| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            Tensor::from_vec(vec![2], vec![s, s])
        })
        .collect();
    let ys: Vec<usize> = (0..20).map(|i| i % 2).collect();
    let trainer = Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 4,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
    let monitor = Arc::new(MonitorBuilder::new(1, 0).build::<BddZone>(&mut net, &xs, &ys, 2));
    let model = Arc::new(RwLock::new(net));

    let mut handles = Vec::new();
    for probe in xs.iter().take(3) {
        let m = Arc::clone(&monitor);
        let net = Arc::clone(&model);
        let probe = probe.clone();
        handles.push(std::thread::spawn(move || {
            // Forward passes mutate layer caches, so take the write lock —
            // the monitor itself stays shared.
            let mut guard = net.write().expect("model lock poisoned");
            m.check(&mut guard, &probe)
        }));
    }
    for h in handles {
        let rep = h.join().expect("check thread panicked");
        assert!(rep.predicted < 2);
    }
}

#[test]
fn serve_engine_replaces_the_rwlock_deployment() {
    // The RwLock deployment above serialises every forward pass; the
    // naps-serve engine replicates the model per worker instead and
    // shares the monitor as immutable frozen zones — same verdicts, no
    // lock on the query path.
    let mut rng = StdRng::seed_from_u64(52);
    let mut net = mlp(&[4, 16, 3], &mut rng);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..90 {
        let c = i % 3;
        let base = c as f32 - 1.0;
        xs.push(Tensor::from_vec(
            vec![4],
            (0..4)
                .map(|k| base + 0.1 * (k as f32 + i as f32).sin())
                .collect(),
        ));
        ys.push(c);
    }
    let trainer = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 16,
        verbose: false,
    });
    trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.02), &mut rng);
    let monitor = MonitorBuilder::new(1, 1).build::<BddZone>(&mut net, &xs, &ys, 3);

    let engine = naps::serve::MonitorEngine::new(
        &monitor,
        &net,
        naps::serve::EngineConfig {
            workers: 3,
            max_batch: 8,
            queue_capacity: 64,
        },
    )
    .expect("mlp replicates");
    let served = engine.check_batch(&xs).expect("engine is up");
    for (x, served) in xs.iter().zip(&served) {
        assert_eq!(monitor.check(&mut net, x), served.report);
    }
    let stats = engine.shutdown();
    assert_eq!(stats.processed, xs.len() as u64);
}

#[test]
fn zone_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<BddZone>();
    assert_send::<naps::monitor::ExactZone>();
    assert_send::<naps::monitor::Monitor<BddZone>>();
    // Zone construction on a worker thread.
    let handle = std::thread::spawn(|| {
        let mut z = BddZone::empty(8);
        z.insert(&Pattern::from_bools(&[true; 8]));
        z.enlarge_to(1);
        z.seed_count()
    });
    assert_eq!(handle.join().expect("worker"), 1);
}
