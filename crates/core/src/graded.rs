//! Graded distance verdicts: *how far* out of pattern, and *whose*
//! pattern is nearest.
//!
//! The paper's monitor answers a binary question — is the activation
//! pattern inside the γ-enlarged comfort zone of the predicted class —
//! yet the Hamming-distance machinery it is built on already computes
//! the quantitative signal operators act on.  A [`GradedReport`] turns
//! every query into a rankable, actionable event:
//!
//! * the **bounded distance** from the observed pattern to the predicted
//!   class's enlarged zone `Z^γ_c` (0 ⇔ the binary verdict is
//!   in-pattern),
//! * a **ranked top-k** of the nearest *other* classes' zones within a
//!   configurable budget — distance 0 to another class means the pattern
//!   sits inside that class's comfort zone: a **misclassification
//!   candidate**,
//! * a [`Triage`] tag: beyond the budget from *every* monitored zone is
//!   a **novelty** (nothing in training was ever close), anything else
//!   out-of-pattern is a near-miss worth ranking by distance.
//!
//! Distances are computed with the budget-bounded early-exit DP, so no
//! query sweeps a whole diagram for a pattern that is far away: on a live
//! zone [`naps_bdd::Bdd::min_hamming_distance_within`], and on the
//! serving path its lowering onto the compiled node array
//! ([`naps_bdd::CompiledZone::min_hamming_distance_within_words`]), with
//! [`naps_bdd::BddSnapshot::min_hamming_distance_within`] as that
//! lowering's oracle.

use crate::activation::MonitorOutcome;
use crate::monitor::{MonitorReport, Verdict};

/// Parameters of a graded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradedQuery {
    /// Largest zone distance the query resolves.  Distances above the
    /// budget are reported as "beyond" (`None` / absent from the
    /// ranking), which is what lets the bounded DP prune.  A practical
    /// choice is `γ + 2`: one or two flips beyond the comfort zone is
    /// still attributable, anything further is novelty.
    pub budget: u32,
    /// How many nearest other-class zones to keep in the ranking.
    pub top_k: usize,
}

impl GradedQuery {
    /// A query resolving distances up to `budget`, keeping the `top_k`
    /// nearest other classes.
    pub fn new(budget: u32, top_k: usize) -> Self {
        GradedQuery { budget, top_k }
    }
}

impl Default for GradedQuery {
    /// Budget 2, top-3 ranking.
    fn default() -> Self {
        GradedQuery {
            budget: 2,
            top_k: 3,
        }
    }
}

/// One entry of the nearest-zone ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearestZone {
    /// The class whose enlarged zone is this close.
    pub class: usize,
    /// Hamming distance from the observed pattern to that zone
    /// (0 = the pattern is inside it).
    pub distance: u32,
}

/// Operator-facing triage of a graded verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triage {
    /// The pattern is inside the predicted class's comfort zone — the
    /// binary in-pattern verdict.
    InPattern,
    /// Out of the predicted class's zone, but within the budget of it or
    /// of some other class's zone: a near-miss, rankable by distance.
    OutOfPattern,
    /// Out of the predicted class's zone **and** inside another class's
    /// zone (distance 0): the activation pattern was visited in training
    /// — by a different class.  The strongest graded signal that the
    /// network's decision, not the input, is the anomaly.
    MisclassificationCandidate,
    /// Beyond the budget from **every** monitored class's zone: nothing
    /// the network was trained on ever produced a nearby pattern.
    Novelty,
    /// The predicted class has no comfort zone; no grading is possible
    /// for it (the ranking over other classes is still reported).
    Unmonitored,
}

/// Full graded report of one monitored classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradedReport {
    /// The binary report (predicted class, verdict, seed distance) —
    /// bit-identical to what [`crate::ActivationMonitor::check`]
    /// returns for the same input.
    pub report: MonitorReport,
    /// Bounded Hamming distance from the observed pattern to the
    /// predicted class's **enlarged** zone `Z^γ_c`: `Some(0)` iff the
    /// binary verdict is in-pattern, `None` when the class is
    /// unmonitored or the distance exceeds the budget.
    pub distance_to_zone: Option<u32>,
    /// Nearest *other* classes whose zones are within the budget, ranked
    /// by `(distance, class)` ascending and truncated to
    /// [`GradedQuery::top_k`].
    pub nearest: Vec<NearestZone>,
    /// The query that produced this report (needed to interpret `None`
    /// and an empty ranking).
    pub query: GradedQuery,
    /// The triage classification (see [`Triage`]).
    pub triage: Triage,
}

impl MonitorOutcome for GradedReport {
    fn out_of_pattern(&self) -> bool {
        self.report.out_of_pattern()
    }
}

/// Assembles a [`GradedReport`] from raw bounded distances.
///
/// This is the **single** ranking/triage implementation shared by the
/// sequential monitor and `naps-serve`'s frozen path: both compute the
/// same distances (pinned by property tests in `naps-bdd`) and feed them
/// here, so graded verdicts are bit-identical across deployments by
/// construction.  `others` holds every *other* monitored class within
/// the budget, in any order; triage is decided **before** the ranking is
/// truncated to `top_k`, so a small `top_k` can never turn a near-miss
/// into a novelty.
pub fn grade(
    report: MonitorReport,
    distance_to_zone: Option<u32>,
    mut others: Vec<NearestZone>,
    query: GradedQuery,
) -> GradedReport {
    others.sort_unstable_by_key(|n| (n.distance, n.class));
    let triage = match report.verdict {
        Verdict::Unmonitored => Triage::Unmonitored,
        Verdict::InPattern => Triage::InPattern,
        Verdict::OutOfPattern => {
            if others.first().is_some_and(|n| n.distance == 0) {
                Triage::MisclassificationCandidate
            } else if distance_to_zone.is_none() && others.is_empty() {
                Triage::Novelty
            } else {
                Triage::OutOfPattern
            }
        }
    };
    others.truncate(query.top_k);
    GradedReport {
        report,
        distance_to_zone,
        nearest: others,
        query,
        triage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary(verdict: Verdict) -> MonitorReport {
        MonitorReport {
            predicted: 1,
            verdict,
            distance_to_seeds: Some(3),
        }
    }

    fn near(class: usize, distance: u32) -> NearestZone {
        NearestZone { class, distance }
    }

    #[test]
    fn grade_ranks_by_distance_then_class() {
        let g = grade(
            binary(Verdict::OutOfPattern),
            Some(2),
            vec![near(4, 1), near(0, 2), near(2, 1)],
            GradedQuery::new(4, 3),
        );
        assert_eq!(g.nearest, vec![near(2, 1), near(4, 1), near(0, 2)]);
        assert_eq!(g.triage, Triage::OutOfPattern);
    }

    #[test]
    fn zero_distance_to_another_class_is_misclassification() {
        let g = grade(
            binary(Verdict::OutOfPattern),
            Some(1),
            vec![near(3, 0), near(0, 1)],
            GradedQuery::new(2, 2),
        );
        assert_eq!(g.triage, Triage::MisclassificationCandidate);
        assert_eq!(g.nearest[0], near(3, 0));
    }

    #[test]
    fn beyond_budget_everywhere_is_novelty() {
        let g = grade(
            binary(Verdict::OutOfPattern),
            None,
            vec![],
            GradedQuery::new(2, 3),
        );
        assert_eq!(g.triage, Triage::Novelty);
        assert!(g.nearest.is_empty());
    }

    #[test]
    fn triage_is_decided_before_truncation() {
        // top_k = 0 still distinguishes a near-miss from a novelty.
        let g = grade(
            binary(Verdict::OutOfPattern),
            None,
            vec![near(0, 2)],
            GradedQuery::new(2, 0),
        );
        assert_eq!(g.triage, Triage::OutOfPattern);
        assert!(g.nearest.is_empty(), "ranking truncated to top_k");
        // ... and a zero-distance hit still reads as misclassification.
        let g = grade(
            binary(Verdict::OutOfPattern),
            None,
            vec![near(0, 0)],
            GradedQuery::new(2, 0),
        );
        assert_eq!(g.triage, Triage::MisclassificationCandidate);
    }

    #[test]
    fn in_pattern_and_unmonitored_take_precedence() {
        let g = grade(
            binary(Verdict::InPattern),
            Some(0),
            vec![near(0, 0)],
            GradedQuery::default(),
        );
        assert_eq!(g.triage, Triage::InPattern);
        let g = grade(
            binary(Verdict::Unmonitored),
            None,
            vec![near(0, 1)],
            GradedQuery::default(),
        );
        assert_eq!(g.triage, Triage::Unmonitored);
    }
}
