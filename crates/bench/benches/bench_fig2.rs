//! Figure 2 benchmark: the cost of exploring the abstraction spectrum —
//! cumulative dilation to growing γ and the saturation behaviour of the
//! zone (pattern counts approaching the full space).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use naps_bench::{clustered_patterns, zone_from_patterns};
use naps_core::{BddZone, Zone};
use std::hint::black_box;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// Full sweep cost: dilate a 40-bit zone from γ = 0 to the target radius.
/// The zone's diagram grows ~5× per radius step and dilation cost grows
/// with it, roughly 7–10× per step (on a 2-vCPU x86-64 host γ = 3 takes
/// ~0.7 s and γ = 4 ~7 s on this fixture), so the sweep stops at γ = 3 to
/// keep the bench suite tractable.
fn sweep_to_gamma(c: &mut Criterion) {
    let seeds = clustered_patterns(300, 40, 1, 21);
    let mut group = c.benchmark_group("fig2_sweep_to_gamma");
    for gamma in [1u32, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &g| {
            b.iter_batched(
                || zone_from_patterns::<BddZone>(&seeds, 0),
                |mut z| {
                    z.enlarge_to(g);
                    black_box(z.pattern_count())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Membership query cost as the zone saturates (γ grows): the paper's
/// linearity claim implies this stays flat-or-falling (smaller diagrams).
fn query_at_gamma(c: &mut Criterion) {
    let seeds = clustered_patterns(300, 40, 1, 22);
    let probes = clustered_patterns(64, 40, 4, 23);
    let mut group = c.benchmark_group("fig2_query_at_gamma");
    for gamma in [0u32, 1, 2, 3] {
        let zone: BddZone = zone_from_patterns(&seeds, gamma);
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(zone.contains(&probes[i]))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = sweep_to_gamma, query_at_gamma
}
criterion_main!(benches);
