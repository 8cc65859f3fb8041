//! Difference-bound-matrix refinement — the numeric abstract domain the
//! paper's Section V item (2) names explicitly ("tools such as difference
//! bound matrices") as a way to capture a more refined representation of
//! the visited activation patterns than the binary on/off abstraction.
//!
//! A [`DbmZone`] tracks, over the monitored neurons' real-valued (pre- or
//! post-ReLU) activations `v_1 … v_d`, the tightest constraints of the
//! forms `v_i ≤ c`, `-v_i ≤ c` and `v_i - v_j ≤ c` satisfied by **every**
//! recorded training activation vector.  Compared to the per-neuron box of
//! [`crate::IntervalZone`], the relational `v_i - v_j` constraints also
//! bound how neurons co-vary, so the zone is never looser and usually
//! strictly tighter.
//!
//! The representation is the classical DBM of Dill / Miné: an
//! `(d+1) × (d+1)` matrix `m` over a pseudo-variable `v_0 = 0`, where
//! `m[i][j]` is an upper bound on `v_i - v_j` (`f32::INFINITY` when
//! unconstrained).  The zone built by [`DbmZone::insert`] is the domain
//! join of point zones and is canonical by construction: a Floyd–Warshall
//! [`DbmZone::close`] pass leaves it unchanged.

use serde::{Deserialize, Serialize};

/// A difference-bound-matrix envelope over `d` monitored neurons.
///
/// Membership is `O(d²)` per query, against the `O(d)` BDD walk of the
/// binary monitor — the refinement trades query cost for a strictly
/// tighter abstraction (see the `refinement` ablation experiment).
///
/// # Example
///
/// ```
/// use naps_core::DbmZone;
///
/// let mut zone = DbmZone::empty(2);
/// zone.insert(&[1.0, 0.5]);
/// zone.insert(&[2.0, 1.5]);
/// // Both samples satisfy v0 - v1 == 0.5, so the relational constraint
/// // rejects a vector the per-neuron box would accept:
/// assert!(zone.contains(&[1.5, 1.0], 0.0));
/// assert!(!zone.contains(&[1.0, 1.5], 0.0)); // v0 - v1 = -0.5 unseen
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbmZone {
    /// Row-major `(dim)²` matrix with `dim = width + 1`; index 0 is the
    /// zero pseudo-variable, neuron `i` lives at index `i + 1`.
    bounds: Vec<f32>,
    dim: usize,
    count: usize,
}

impl DbmZone {
    /// An empty zone over `width` neurons (contains nothing until the
    /// first [`DbmZone::insert`]).
    pub fn empty(width: usize) -> Self {
        let dim = width + 1;
        let mut bounds = vec![f32::NEG_INFINITY; dim * dim];
        for i in 0..dim {
            bounds[i * dim + i] = 0.0;
        }
        DbmZone {
            bounds,
            dim,
            count: 0,
        }
    }

    /// Number of monitored neurons.
    pub fn width(&self) -> usize {
        self.dim - 1
    }

    /// Number of activation vectors recorded via [`DbmZone::insert`].
    pub fn sample_count(&self) -> usize {
        self.count
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.bounds[i * self.dim + j]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        &mut self.bounds[i * self.dim + j]
    }

    /// The recorded range of neuron `i` as `(lo, hi)` — the box projection
    /// of the DBM.  `(-∞, +∞)` before any insertion.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn range(&self, i: usize) -> (f32, f32) {
        assert!(i < self.width(), "neuron index out of range");
        // v_i - v_0 <= hi  and  v_0 - v_i <= -lo.
        (-self.at(0, i + 1), self.at(i + 1, 0))
    }

    /// Joins one activation vector into the zone: every bound becomes the
    /// maximum of its current value and the sample's difference.  The join
    /// of canonical DBMs is canonical, so no closure pass is needed.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width` or any value is non-finite — a
    /// NaN activation would silently satisfy every `<` comparison and
    /// poison the envelope.
    pub fn insert(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.width(), "activation width mismatch");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "activation values must be finite"
        );
        let dim = self.dim;
        for i in 0..dim {
            let vi = if i == 0 { 0.0 } else { values[i - 1] };
            for j in 0..dim {
                if i == j {
                    continue;
                }
                let vj = if j == 0 { 0.0 } else { values[j - 1] };
                let d = vi - vj;
                let cur = self.at_mut(i, j);
                if d > *cur {
                    *cur = d;
                }
            }
        }
        self.count += 1;
    }

    /// Membership with symmetric slack: every constraint is relaxed to
    /// `v_i - v_j ≤ m[i][j] + slack`.  An empty zone contains nothing.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width`.
    pub fn contains(&self, values: &[f32], slack: f32) -> bool {
        assert_eq!(values.len(), self.width(), "activation width mismatch");
        if self.count == 0 {
            return false;
        }
        let dim = self.dim;
        for i in 0..dim {
            let vi = if i == 0 { 0.0 } else { values[i - 1] };
            for j in 0..dim {
                if i == j {
                    continue;
                }
                let vj = if j == 0 { 0.0 } else { values[j - 1] };
                if vi - vj > self.at(i, j) + slack {
                    return false;
                }
            }
        }
        true
    }

    /// Largest constraint violation (0 when inside) — the numeric
    /// counterpart of the binary monitor's Hamming distance, and exactly
    /// the smallest `slack` that would make [`DbmZone::contains`] accept.
    /// `None` for an empty zone.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width`.
    pub fn violation(&self, values: &[f32]) -> Option<f32> {
        assert_eq!(values.len(), self.width(), "activation width mismatch");
        if self.count == 0 {
            return None;
        }
        let dim = self.dim;
        let mut worst = 0.0f32;
        for i in 0..dim {
            let vi = if i == 0 { 0.0 } else { values[i - 1] };
            for j in 0..dim {
                if i == j {
                    continue;
                }
                let vj = if j == 0 { 0.0 } else { values[j - 1] };
                let excess = (vi - vj) - self.at(i, j);
                if excess > worst {
                    worst = excess;
                }
            }
        }
        Some(worst)
    }

    /// Floyd–Warshall shortest-path closure: tightens every bound through
    /// every intermediate variable, producing the canonical form.  Zones
    /// grown by [`DbmZone::insert`] and [`DbmZone::join`] are already
    /// canonical, so on them this changes nothing.
    pub fn close(&mut self) {
        let dim = self.dim;
        for k in 0..dim {
            for i in 0..dim {
                let ik = self.at(i, k);
                if ik == f32::INFINITY {
                    continue;
                }
                for j in 0..dim {
                    let kj = self.at(k, j);
                    if kj == f32::INFINITY {
                        continue;
                    }
                    let via = ik + kj;
                    let cur = self.at_mut(i, j);
                    if via < *cur {
                        *cur = via;
                    }
                }
            }
        }
    }

    /// `true` when every point of `other` satisfies this zone's
    /// constraints, i.e. `other ⊆ self`.  Both zones must be canonical
    /// (insert-built zones are).  An empty zone is included in anything;
    /// nothing but an empty zone is included in an empty zone.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn includes(&self, other: &DbmZone) -> bool {
        assert_eq!(self.width(), other.width(), "zone width mismatch");
        if other.count == 0 {
            return true;
        }
        if self.count == 0 {
            return false;
        }
        self.bounds
            .iter()
            .zip(&other.bounds)
            .all(|(mine, theirs)| *theirs <= *mine)
    }

    /// Domain join: the tightest DBM containing both zones (pointwise
    /// bound maximum).  The result is canonical when both inputs are.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn join(&mut self, other: &DbmZone) {
        assert_eq!(self.width(), other.width(), "zone width mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (mine, &theirs) in self.bounds.iter_mut().zip(&other.bounds) {
            if theirs > *mine {
                *mine = theirs;
            }
        }
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalZone;

    #[test]
    fn empty_zone_contains_nothing() {
        let z = DbmZone::empty(3);
        assert!(!z.contains(&[0.0, 0.0, 0.0], 1e6));
        assert_eq!(z.violation(&[0.0, 0.0, 0.0]), None);
        assert_eq!(z.sample_count(), 0);
    }

    #[test]
    fn inserted_samples_are_members() {
        let mut z = DbmZone::empty(3);
        let samples = [[1.0f32, -0.5, 2.0], [0.5, 0.0, 1.5], [2.0, -1.0, 3.0]];
        for s in &samples {
            z.insert(s);
        }
        for s in &samples {
            assert!(z.contains(s, 0.0), "training sample rejected: {s:?}");
            assert_eq!(z.violation(s), Some(0.0));
        }
    }

    #[test]
    fn relational_constraints_reject_what_the_box_accepts() {
        let mut dbm = DbmZone::empty(2);
        let mut boxz = IntervalZone::empty(2);
        // All samples satisfy v0 - v1 = 0.5 exactly.
        for base in [0.0f32, 1.0, 2.0] {
            dbm.insert(&[base + 0.5, base]);
            boxz.insert(&[base + 0.5, base]);
        }
        // Inside the box (each coordinate in range) but violating the
        // relation.
        let probe = [0.5f32, 2.0];
        assert!(boxz.contains(&probe, 0.0));
        assert!(!dbm.contains(&probe, 0.0));
    }

    #[test]
    fn dbm_membership_implies_box_membership() {
        // The DBM is a refinement: it never accepts a vector the box
        // rejects (given the same training data).
        let mut dbm = DbmZone::empty(3);
        let mut boxz = IntervalZone::empty(3);
        let samples = [
            [0.1f32, 1.0, -2.0],
            [0.4, 0.2, -1.0],
            [-0.3, 2.0, 0.0],
            [0.0, 0.5, -0.5],
        ];
        for s in &samples {
            dbm.insert(s);
            boxz.insert(s);
        }
        for trial in 0..200 {
            let t = trial as f32;
            let probe = [
                (t * 0.37).sin() * 2.0,
                (t * 0.11).cos() * 3.0,
                (t * 0.73).sin() * 4.0 - 1.0,
            ];
            if dbm.contains(&probe, 0.0) {
                assert!(
                    boxz.contains(&probe, 0.0),
                    "dbm looser than box at {probe:?}"
                );
            }
        }
    }

    #[test]
    fn range_is_the_box_projection() {
        let mut z = DbmZone::empty(2);
        z.insert(&[1.0, -2.0]);
        z.insert(&[3.0, 0.0]);
        assert_eq!(z.range(0), (1.0, 3.0));
        assert_eq!(z.range(1), (-2.0, 0.0));
    }

    #[test]
    fn violation_is_minimal_admitting_slack() {
        let mut z = DbmZone::empty(2);
        z.insert(&[0.0, 0.0]);
        z.insert(&[1.0, 1.0]);
        let probe = [2.0f32, 0.0]; // v0 - v1 = 2, seen at most 1
        let v = z.violation(&probe).expect("non-empty");
        assert!(v > 0.0);
        assert!(!z.contains(&probe, v - 1e-4));
        assert!(z.contains(&probe, v + 1e-4));
    }

    #[test]
    fn slack_relaxes_membership() {
        let mut z = DbmZone::empty(1);
        z.insert(&[1.0]);
        assert!(!z.contains(&[1.5], 0.2));
        assert!(z.contains(&[1.5], 0.6));
        assert!(z.contains(&[0.6], 0.6));
    }

    #[test]
    fn close_is_idempotent() {
        let mut z = DbmZone::empty(3);
        for s in [[1.0f32, 2.0, 3.0], [0.0, 1.0, -1.0], [2.0, 2.0, 2.0]] {
            z.insert(&s);
        }
        let before = z.clone();
        z.close();
        assert_eq!(z, before, "insert-built zones are already canonical");
        z.close();
        assert_eq!(z, before);
    }

    #[test]
    fn join_is_an_upper_bound_of_both() {
        let mut a = DbmZone::empty(2);
        a.insert(&[0.0, 0.0]);
        a.insert(&[1.0, 0.5]);
        let mut b = DbmZone::empty(2);
        b.insert(&[-1.0, 2.0]);
        let mut j = a.clone();
        j.join(&b);
        assert!(j.includes(&a));
        assert!(j.includes(&b));
        assert!(j.contains(&[1.0, 0.5], 0.0));
        assert!(j.contains(&[-1.0, 2.0], 0.0));
    }

    #[test]
    fn join_with_empty_is_identity_both_ways() {
        let mut a = DbmZone::empty(2);
        a.insert(&[1.0, 2.0]);
        let e = DbmZone::empty(2);
        let mut a2 = a.clone();
        a2.join(&e);
        assert_eq!(a2, a);
        let mut e2 = e.clone();
        e2.join(&a);
        assert!(e2.contains(&[1.0, 2.0], 0.0));
    }

    #[test]
    fn includes_is_reflexive_and_ordered() {
        let mut small = DbmZone::empty(2);
        small.insert(&[0.0, 0.0]);
        let mut big = small.clone();
        big.insert(&[5.0, -5.0]);
        assert!(small.includes(&small));
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        // Empty-zone corner cases.
        let empty = DbmZone::empty(2);
        assert!(small.includes(&empty));
        assert!(!empty.includes(&small));
        assert!(empty.includes(&empty));
    }

    #[test]
    fn serde_roundtrip() {
        let mut z = DbmZone::empty(2);
        z.insert(&[1.5, -0.5]);
        z.insert(&[2.0, 0.0]);
        let json = serde_json::to_string(&z).expect("serialize");
        let back: DbmZone = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(z, back);
        assert!(back.contains(&[1.75, -0.25], 0.0));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_is_checked() {
        let mut z = DbmZone::empty(2);
        z.insert(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_insert_is_rejected() {
        let mut z = DbmZone::empty(1);
        z.insert(&[f32::INFINITY]);
    }
}
