//! BDD ablation benchmarks backing the paper's complexity claims:
//!
//! * the membership query is linear in the number of monitored neurons
//!   (sweep the pattern width);
//! * BDD queries are insensitive to the number of stored patterns, while
//!   the explicit-set baseline degrades with the seed count;
//! * γ-dilation cost per radius step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use naps_bench::{clustered_patterns, zone_from_patterns, BddBackend, ExactBackend};
use naps_core::Zone;
use std::hint::black_box;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

/// Query latency vs pattern width (the "linear in neurons" claim).
fn query_vs_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_query_vs_width");
    for width in [16usize, 32, 64, 128, 200] {
        let seeds = clustered_patterns(200, width, 1, 7);
        let zone: BddBackend = zone_from_patterns(&seeds, 1);
        let probes = clustered_patterns(64, width, 2, 99);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(zone.contains(&probes[i]))
            });
        });
    }
    group.finish();
}

/// BDD vs explicit set: query latency as the seed count grows.
fn query_vs_seed_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_vs_seed_count");
    for n in [100usize, 400, 1600] {
        let seeds = clustered_patterns(n, 40, 1, 3);
        let probes = clustered_patterns(64, 40, 2, 55);
        let bdd: BddBackend = zone_from_patterns(&seeds, 1);
        let exact: ExactBackend = zone_from_patterns(&seeds, 1);
        group.bench_with_input(BenchmarkId::new("bdd", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(bdd.contains(&probes[i]))
            });
        });
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(exact.contains(&probes[i]))
            });
        });
    }
    group.finish();
}

/// Cost of one γ-dilation step (Algorithm 1 line 12) vs width.
fn dilation_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_dilate_step");
    group.sample_size(10);
    for width in [24usize, 40, 84] {
        let seeds = clustered_patterns(300, width, 1, 11);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter_batched(
                || zone_from_patterns::<BddBackend>(&seeds, 0),
                |mut z| {
                    z.enlarge_to(1);
                    black_box(z.gamma())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Distance-to-seeds query (the refinement beyond the paper's binary
/// verdict).
fn distance_query(c: &mut Criterion) {
    let seeds = clustered_patterns(400, 40, 1, 13);
    let zone: BddBackend = zone_from_patterns(&seeds, 0);
    let probes = clustered_patterns(64, 40, 3, 77);
    c.bench_function("bdd_distance_to_seeds", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(zone.distance_to_seeds(&probes[i]))
        });
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = query_vs_width, query_vs_seed_count, dilation_step, distance_query
}
criterion_main!(benches);
