//! The paper's complexity claims, measured and gated.
//!
//! The paper stores comfort zones as BDDs because a membership query
//! walks at most one node per monitored neuron: its cost is linear in the
//! pattern width and does not grow with the number of stored training
//! patterns, while an explicit pattern set slows down as patterns are
//! added.  Section V's numeric refinements pay per query too: the
//! interval box is linear in the width, the difference-bound matrix
//! quadratic.
//!
//! This experiment times `contains` along each of those sweeps on
//! clustered patterns ([`naps_bench::clustered_patterns`], zones built
//! by [`naps_bench::zone_from_patterns`]), fits a least-squares slope to
//! `log(time)` against `log(swept size)` per curve, and writes
//! `results/complexity.json`.  The driving binary exits non-zero when a
//! slope leaves its bound.  The bounds, fixed before the first run:
//!
//! | curve | sweep | bound |
//! |---|---|---|
//! | `BddZone` vs width | widths 16, 32, 64, 128, 200 at 200 seeds, γ = 1 | slope ≤ 1.25 |
//! | `BddZone` vs seeds | 100, 400, 1,600 seeds at width 40, γ = 1 | slope ≤ 0.25 |
//! | `ExactZone` vs seeds | the same zones as an explicit set | slope ≥ 0.75 |
//! | `IntervalZone` vs width | widths 16, 40, 84, 128 over 150 samples | slope ≤ 1.25 |
//! | `DbmZone` vs width | the same samples | slope ≥ 1.5 |
//!
//! Query time against γ = 0…3 (300 seeds, width 40) is reported with the
//! zone's node count but not gated: the walk stays within `width` nodes,
//! but the diagram grows with γ and the time with it.
//!
//! Each point is the median over timed rounds (15, or 41 with `--full`)
//! of the per-query time; a round cycles through 64 probes enough times
//! to last at least a millisecond, and each round visits every size of a
//! curve in turn, so a change in host speed shifts the whole curve
//! rather than tilting it.  The patterns derive from `--seed`.

use crate::config::RunConfig;
use crate::report::{rule, write_json};
use naps_bench::{clustered_patterns, zone_from_patterns};
use naps_core::{BddZone, DbmZone, ExactZone, IntervalZone, Pattern, Zone};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One swept size and its measured query time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Point {
    /// The swept size: pattern width or stored seed count.
    pub size: usize,
    /// Median nanoseconds per `contains` query.
    pub ns_per_query: f64,
}

/// One swept curve, its fitted log-log slope and its bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Zone type queried (`BddZone`, `ExactZone`, …).
    pub zone: String,
    /// What the curve sweeps: `width` or `seeds`.
    pub swept: String,
    /// One point per swept size, ascending.
    pub points: Vec<Point>,
    /// Least-squares slope of `log(ns_per_query)` on `log(size)`.
    pub slope: f64,
    /// Upper bound on the slope, if the curve has one.
    pub max_slope: Option<f64>,
    /// Lower bound on the slope, if the curve has one.
    pub min_slope: Option<f64>,
    /// Whether the slope lies within its bounds.
    pub pass: bool,
}

/// BDD query time at one enlargement radius (reported, not gated).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GammaPoint {
    /// Enlargement radius γ.
    pub gamma: u32,
    /// Median nanoseconds per `contains` query.
    pub ns_per_query: f64,
    /// Decision nodes of the enlarged zone.
    pub zone_nodes: usize,
}

/// The `schema_version` [`run`] stamps on [`Complexity`].
pub const SCHEMA_VERSION: u32 = 1;

/// Every gated curve plus the ungated γ sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Complexity {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// The gated curves, in the order of the module doc's table.
    pub curves: Vec<Curve>,
    /// BDD query time against γ at width 40, 300 seeds.
    pub query_vs_gamma: Vec<GammaPoint>,
    /// Whether every curve passed.
    pub all_pass: bool,
}

/// Least-squares slope of `log(t)` on `log(x)` over `(x, t)` pairs.
///
/// # Panics
///
/// Panics on fewer than two distinct sizes.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, t)| (x.log2(), t.log2())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(sxx > 0.0, "a slope needs two distinct sizes");
    sxy / sxx
}

/// Probes per swept size; one pass queries each once.
const PROBES: usize = 64;

/// One pass of `query` over `probes`, returning the hit count.
fn pass<'a, P>(probes: &'a [P], query: impl Fn(&P) -> bool + 'a) -> impl Fn() -> usize + 'a {
    move || {
        probes
            .iter()
            .filter(|&p| query(std::hint::black_box(p)))
            .count()
    }
}

/// Median nanoseconds per query of each of `passes` (one per swept
/// size).  A round repeats one pass enough times to last at least a
/// millisecond, and every round times each size in turn, so a change in
/// host speed during the sweep touches every size alike.
fn ns_per_query(passes: &[impl Fn() -> usize], rounds: usize) -> Vec<f64> {
    let round = |pass: &dyn Fn() -> usize, reps: usize| {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(pass());
        }
        start.elapsed().as_secs_f64()
    };
    let reps: Vec<usize> = passes
        .iter()
        .map(|pass| {
            let mut reps = 1;
            while round(pass, reps) < 1e-3 {
                reps *= 2;
            }
            reps
        })
        .collect();
    let mut per_query = vec![Vec::with_capacity(rounds); passes.len()];
    for _ in 0..rounds {
        for ((pass, &reps), times) in passes.iter().zip(&reps).zip(&mut per_query) {
            times.push(round(pass, reps) * 1e9 / (reps * PROBES) as f64);
        }
    }
    per_query
        .into_iter()
        .map(|mut times| {
            times.sort_by(f64::total_cmp);
            times[rounds / 2]
        })
        .collect()
}

/// Pairs each swept size with its measured time.
fn points(sizes: &[usize], times: Vec<f64>) -> Vec<Point> {
    sizes
        .iter()
        .zip(times)
        .map(|(&size, ns_per_query)| Point { size, ns_per_query })
        .collect()
}

/// Deterministic pseudo-activation vectors of `width` values each.
fn activations(n: usize, width: usize, phase: f32) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..width)
                .map(|j| ((i * width + j) as f32 * 0.137 + phase).sin() * 2.0)
                .collect()
        })
        .collect()
}

fn curve(
    zone: &str,
    swept: &str,
    points: Vec<Point>,
    max_slope: Option<f64>,
    min_slope: Option<f64>,
) -> Curve {
    let fit: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.size as f64, p.ns_per_query))
        .collect();
    let slope = log_log_slope(&fit);
    let pass = max_slope.is_none_or(|m| slope <= m) && min_slope.is_none_or(|m| slope >= m);
    Curve {
        zone: zone.to_owned(),
        swept: swept.to_owned(),
        points,
        slope,
        max_slope,
        min_slope,
        pass,
    }
}

/// Runs every sweep and writes `results/complexity.json`.
pub fn run(cfg: &RunConfig) -> Complexity {
    println!("== Query cost against width and stored patterns (log-log slopes) ==");
    let rounds = if cfg.full { 41 } else { 15 };
    let seed = cfg.seed;

    let widths = [16, 32, 64, 128, 200];
    let fixtures: Vec<(BddZone, Vec<Pattern>)> = widths
        .iter()
        .map(|&width| {
            let seeds = clustered_patterns(200, width, 1, seed);
            let probes = clustered_patterns(PROBES, width, 2, seed.wrapping_add(1));
            (zone_from_patterns(&seeds, 1), probes)
        })
        .collect();
    let passes: Vec<_> = fixtures
        .iter()
        .map(|(zone, probes)| pass(probes, |p| zone.contains(p)))
        .collect();
    let bdd_width = points(&widths, ns_per_query(&passes, rounds));

    let counts = [100, 400, 1600];
    let probes = clustered_patterns(PROBES, 40, 2, seed.wrapping_add(1));
    let seed_sets: Vec<Vec<Pattern>> = counts
        .iter()
        .map(|&n| clustered_patterns(n, 40, 1, seed))
        .collect();
    let bdds: Vec<BddZone> = seed_sets.iter().map(|s| zone_from_patterns(s, 1)).collect();
    let exacts: Vec<ExactZone> = seed_sets.iter().map(|s| zone_from_patterns(s, 1)).collect();
    let passes: Vec<_> = bdds
        .iter()
        .map(|zone| pass(&probes, |p| zone.contains(p)))
        .collect();
    let bdd_seeds = points(&counts, ns_per_query(&passes, rounds));
    let passes: Vec<_> = exacts
        .iter()
        .map(|zone| pass(&probes, |p| zone.contains(p)))
        .collect();
    let exact_seeds = points(&counts, ns_per_query(&passes, rounds));

    let widths = [16, 40, 84, 128];
    let fixtures: Vec<(IntervalZone, DbmZone, Vec<Vec<f32>>)> = widths
        .iter()
        .map(|&width| {
            let (mut boxz, mut dbm) = (IntervalZone::empty(width), DbmZone::empty(width));
            for v in &activations(150, width, 0.0) {
                boxz.insert(v);
                dbm.insert(v);
            }
            (boxz, dbm, activations(PROBES, width, 1.0))
        })
        .collect();
    let passes: Vec<_> = fixtures
        .iter()
        .map(|(boxz, _, queries)| pass(queries, |q| boxz.contains(q, 0.5)))
        .collect();
    let box_width = points(&widths, ns_per_query(&passes, rounds));
    let passes: Vec<_> = fixtures
        .iter()
        .map(|(_, dbm, queries)| pass(queries, |q| dbm.contains(q, 0.5)))
        .collect();
    let dbm_width = points(&widths, ns_per_query(&passes, rounds));

    let curves = vec![
        curve("BddZone", "width", bdd_width, Some(1.25), None),
        curve("BddZone", "seeds", bdd_seeds, Some(0.25), None),
        curve("ExactZone", "seeds", exact_seeds, None, Some(0.75)),
        curve("IntervalZone", "width", box_width, Some(1.25), None),
        curve("DbmZone", "width", dbm_width, None, Some(1.5)),
    ];

    let seeds = clustered_patterns(300, 40, 1, seed.wrapping_add(2));
    let probes = clustered_patterns(PROBES, 40, 4, seed.wrapping_add(3));
    let zones: Vec<BddZone> = (0..=3).map(|g| zone_from_patterns(&seeds, g)).collect();
    let passes: Vec<_> = zones
        .iter()
        .map(|zone| pass(&probes, |p| zone.contains(p)))
        .collect();
    let query_vs_gamma = zones
        .iter()
        .zip(ns_per_query(&passes, rounds))
        .map(|(zone, ns_per_query)| GammaPoint {
            gamma: zone.gamma(),
            ns_per_query,
            zone_nodes: zone.node_count(),
        })
        .collect();

    let all_pass = curves.iter().all(|c| c.pass);
    let result = Complexity {
        schema_version: SCHEMA_VERSION,
        curves,
        query_vs_gamma,
        all_pass,
    };
    print_table(&result);
    write_json(&cfg.out_dir, "complexity", &result);
    result
}

fn print_table(result: &Complexity) {
    rule(78);
    println!(
        "{:<14} {:<7} {:>7} {:>14} {:>5}  ns/query by size",
        "zone", "swept", "slope", "bound", "pass"
    );
    rule(78);
    for c in &result.curves {
        let bound = match (c.max_slope, c.min_slope) {
            (Some(m), _) => format!("<= {m}"),
            (_, Some(m)) => format!(">= {m}"),
            _ => String::new(),
        };
        let points: Vec<String> = c
            .points
            .iter()
            .map(|p| format!("{}:{:.0}", p.size, p.ns_per_query))
            .collect();
        println!(
            "{:<14} {:<7} {:>7.2} {:>14} {:>5}  {}",
            c.zone,
            c.swept,
            c.slope,
            bound,
            c.pass,
            points.join(" ")
        );
    }
    rule(78);
    for g in &result.query_vs_gamma {
        println!(
            "BddZone γ = {}: {:.0} ns/query, {} nodes (not gated)",
            g.gamma, g.ns_per_query, g.zone_nodes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_fit_recovers_exact_power_laws() {
        let sizes = [16.0, 32.0, 64.0, 128.0];
        let linear: Vec<(f64, f64)> = sizes.iter().map(|&x| (x, 4.0 * x)).collect();
        let quadratic: Vec<(f64, f64)> = sizes.iter().map(|&x| (x, 0.5 * x * x)).collect();
        assert_eq!(log_log_slope(&linear), 1.0);
        assert_eq!(log_log_slope(&quadratic), 2.0);
    }

    #[test]
    fn curves_pass_only_inside_their_bounds() {
        let points = |ts: [f64; 2]| {
            vec![
                Point {
                    size: 10,
                    ns_per_query: ts[0],
                },
                Point {
                    size: 100,
                    ns_per_query: ts[1],
                },
            ]
        };
        assert!(curve("z", "width", points([1.0, 10.0]), Some(1.25), None).pass);
        assert!(!curve("z", "width", points([1.0, 100.0]), Some(1.25), None).pass);
        assert!(curve("z", "width", points([1.0, 100.0]), None, Some(1.5)).pass);
        assert!(!curve("z", "width", points([1.0, 10.0]), None, Some(1.5)).pass);
    }
}
