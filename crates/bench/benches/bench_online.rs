//! Live-update path latencies: enrichment, re-freeze, hot swap into a
//! running engine, and snapshot persistence.
//!
//! These are the costs the online-adaptation loop pays per operator
//! confirmation cycle (`results/online.json`, written by the `naps-eval`
//! `online_adaptation` binary, records the end-to-end trajectory; this
//! bench isolates each step).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use naps_bench::{clustered_patterns, serving_fixture, small_monitor};
use naps_serve::{EngineConfig, FrozenLayeredMonitor, FrozenMonitor, MonitorEngine};

const CLASSES: usize = 6;

/// `Monitor::enrich` of a confirmed-pattern batch into built, enlarged
/// zones (the post-enlargement insert path), including the pre-publish
/// `compact_dirty`.
fn bench_enrich(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/enrich");
    for batch in [1usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter_batched(
                || {
                    let (monitor, _, _) = small_monitor(CLASSES, 2, 7);
                    // Confirmed patterns unlikely to be seeds already.
                    let fresh = clustered_patterns(batch, 32, 3, 0xfeed);
                    (monitor, fresh)
                },
                |(mut monitor, fresh)| {
                    let n = monitor.enrich(0, &fresh).expect("class 0 is monitored");
                    monitor.compact_dirty();
                    n
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Re-freezing an updated monitor into a servable snapshot.
fn bench_freeze(c: &mut Criterion) {
    let (monitor, _, _) = small_monitor(CLASSES, 2, 7);
    c.bench_function("online/freeze", |b| {
        b.iter(|| FrozenMonitor::freeze(&monitor));
    });
}

/// The hot swap itself: publishing a snapshot into a running engine
/// (workers pick it up at their next micro-batch boundary).
fn bench_publish(c: &mut Criterion) {
    let (monitor, model, _) = serving_fixture(CLASSES, 8, 42);
    let engine = MonitorEngine::new(
        &monitor,
        &model,
        EngineConfig {
            workers: 2,
            max_batch: 16,
            queue_capacity: 64,
        },
    )
    .expect("serving fixture is an MLP");
    let snapshot = FrozenMonitor::freeze(&monitor);
    c.bench_function("online/publish_hot_swap", |b| {
        b.iter(|| engine.publish(snapshot.clone()).expect("compatible"));
    });
    engine.shutdown();
}

/// Persistence round trip of a frozen monitor (warm-restart cost).
fn bench_persist(c: &mut Criterion) {
    let (monitor, _, _) = small_monitor(CLASSES, 2, 7);
    let frozen = FrozenLayeredMonitor::from(FrozenMonitor::freeze(&monitor));
    let dir = std::env::temp_dir().join("naps_bench_online");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("monitor.json");
    c.bench_function("online/save_load_roundtrip", |b| {
        b.iter(|| {
            frozen.save(&path).expect("save");
            FrozenLayeredMonitor::load(&path).expect("load")
        });
    });
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    benches,
    bench_enrich,
    bench_freeze,
    bench_publish,
    bench_persist
);
criterion_main!(benches);
