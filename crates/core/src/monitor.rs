//! The runtime monitor (Definition 3 + the deployment query of Figure 1).

use crate::activation::{ActivationMonitor, MonitorOutcome};
use crate::batch::observe_single_layer_batch;
use crate::error::MonitorError;
use crate::graded::{grade, GradedQuery, GradedReport, NearestZone};
use crate::pattern::Pattern;
use crate::selection::NeuronSelection;
use crate::zone::{BddZone, Zone};
use naps_bdd::BddSnapshot;
use naps_nn::Sequential;
use naps_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Outcome of one monitored classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The activation pattern lies inside the comfort zone of the predicted
    /// class: the decision is supported by prior similarity in training.
    InPattern,
    /// The pattern is **not** in the comfort zone — the paper's warning
    /// that the decision is not based on the training data.
    OutOfPattern,
    /// The predicted class has no monitor (single-class deployments, e.g.
    /// the paper's GTSRB stop-sign monitor).
    Unmonitored,
}

/// Full report of one monitored classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// The network's decision `dec(in)`.
    pub predicted: usize,
    /// Whether the decision is inside its class's comfort zone.
    pub verdict: Verdict,
    /// Minimum Hamming distance from the observed pattern to the visited
    /// (γ = 0) patterns of the predicted class, when that class is
    /// monitored and non-empty.  `Some(0)` means the exact pattern was
    /// seen in training.
    pub distance_to_seeds: Option<u32>,
}

impl MonitorOutcome for MonitorReport {
    fn out_of_pattern(&self) -> bool {
        self.verdict == Verdict::OutOfPattern
    }
}

/// A neuron activation pattern monitor `⟨Z^γ_1, …, Z^γ_C⟩`.
///
/// Built by [`crate::MonitorBuilder`] (Algorithm 1).  Queries run in time
/// linear in the number of monitored neurons when `Z` is [`BddZone`].
#[derive(Debug)]
pub struct Monitor<Z: Zone = BddZone> {
    zones: Vec<Option<Z>>,
    layer: usize,
    selection: NeuronSelection,
    gamma: u32,
    /// Per-class "changed since the last [`Monitor::take_dirty`]" flags,
    /// driving incremental republish of the online-enrichment loop.
    dirty: Vec<bool>,
}

impl<Z: Zone> Monitor<Z> {
    /// Assembles a monitor from per-class zones.  Intended for
    /// [`crate::MonitorBuilder`]; exposed for custom pattern sources (e.g.
    /// the YOLO-style grid monitoring sketched in the paper's Section V).
    ///
    /// # Panics
    ///
    /// Panics if any zone's width differs from the selection width.
    pub fn from_zones(
        zones: Vec<Option<Z>>,
        layer: usize,
        selection: NeuronSelection,
        gamma: u32,
    ) -> Self {
        for z in zones.iter().flatten() {
            assert_eq!(
                z.width(),
                selection.len(),
                "zone width does not match selection width"
            );
        }
        let dirty = vec![false; zones.len()];
        Monitor {
            zones,
            layer,
            selection,
            gamma,
            dirty,
        }
    }

    /// Index of the monitored layer in the [`Sequential`] model.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The Hamming-distance budget γ.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// The monitored neuron subset.
    pub fn selection(&self) -> &NeuronSelection {
        &self.selection
    }

    /// Number of classes (monitored or not).
    pub fn num_classes(&self) -> usize {
        self.zones.len()
    }

    /// Classes that have a comfort zone.
    pub fn monitored_classes(&self) -> Vec<usize> {
        self.zones
            .iter()
            .enumerate()
            .filter_map(|(c, z)| z.as_ref().map(|_| c))
            .collect()
    }

    /// The zone of `class`, if monitored.
    pub fn zone(&self, class: usize) -> Option<&Z> {
        self.zones.get(class).and_then(|z| z.as_ref())
    }

    /// Feeds operator-confirmed activation patterns back into the comfort
    /// zone of `class` — the paper's Section IV adaptation loop, where an
    /// out-of-pattern decision a human vets as benign should stop
    /// warning.
    ///
    /// Works **post-enlargement**: each pattern is inserted into the seed
    /// set and immediately dilated to the zone's current γ (the
    /// incremental [`Zone::insert`]-after-[`Zone::enlarge_to`] path), so
    /// no rebuild or re-sweep is needed before redeploying.  The class is
    /// marked dirty (see [`Monitor::dirty_classes`] /
    /// [`Monitor::take_dirty`]) so a serving layer can republish only
    /// what changed.
    ///
    /// Returns the number of patterns that were actually new (outside
    /// the seed set before the call).
    ///
    /// # Errors
    ///
    /// [`MonitorError::UnmonitoredClass`] when `class` has no zone,
    /// [`MonitorError::WidthMismatch`] when a pattern's width differs
    /// from the monitored selection; on error the monitor is unchanged.
    pub fn enrich(&mut self, class: usize, patterns: &[Pattern]) -> Result<usize, MonitorError> {
        let width = self.selection.len();
        if let Some(bad) = patterns.iter().find(|p| p.len() != width) {
            return Err(MonitorError::WidthMismatch {
                expected: width,
                actual: bad.len(),
            });
        }
        let zone = self
            .zones
            .get_mut(class)
            .and_then(|z| z.as_mut())
            .ok_or(MonitorError::UnmonitoredClass { class })?;
        let mut fresh = 0usize;
        for p in patterns {
            if zone.distance_to_seeds(p) == Some(0) {
                continue; // already a seed: nothing to learn
            }
            zone.insert(p);
            fresh += 1;
        }
        if fresh > 0 {
            self.dirty[class] = true;
        }
        Ok(fresh)
    }

    /// Classes whose zones changed since the last [`Monitor::take_dirty`]
    /// (via [`Monitor::enrich`] or [`ActivationMonitor::enlarge_to`]),
    /// ascending.
    pub fn dirty_classes(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .enumerate()
            .filter_map(|(c, &d)| d.then_some(c))
            .collect()
    }

    /// Returns the dirty class set and clears the flags — call when the
    /// changes have been published (frozen, swapped in, persisted).
    pub fn take_dirty(&mut self) -> Vec<usize> {
        let classes = self.dirty_classes();
        self.dirty.fill(false);
        classes
    }

    /// Per-class construction/coverage summary — seeds recorded, current
    /// γ, and (for diagnostics) how much of the pattern space each zone
    /// spans, via [`Zone::seed_count`].
    pub fn seed_counts(&self) -> Vec<Option<usize>> {
        self.zones
            .iter()
            .map(|z| z.as_ref().map(|z| z.seed_count()))
            .collect()
    }

    /// Checks a pattern directly against the zone of `class`.
    pub fn check_pattern(&self, class: usize, pattern: &Pattern) -> Verdict {
        match self.zone(class) {
            None => Verdict::Unmonitored,
            Some(z) => {
                if z.contains(pattern) {
                    Verdict::InPattern
                } else {
                    Verdict::OutOfPattern
                }
            }
        }
    }

    /// Judges an already-extracted `(predicted, pattern)` pair: the
    /// verdict plus the distance to the predicted class's seeds — the
    /// live counterpart of `naps-serve`'s `FrozenMonitor::report`.
    pub(crate) fn report(&self, predicted: usize, pattern: &Pattern) -> MonitorReport {
        MonitorReport {
            predicted,
            verdict: self.check_pattern(predicted, pattern),
            distance_to_seeds: self
                .zone(predicted)
                .and_then(|z| z.distance_to_seeds(pattern)),
        }
    }

    /// Judges an already-extracted `(predicted, pattern)` pair with full
    /// graded detail: the binary report plus the bounded distance to the
    /// predicted class's zone and the ranked nearest other-class zones
    /// within the query budget (see [`crate::GradedReport`]).
    ///
    /// The ranking and triage logic is shared with `naps-serve`'s frozen
    /// path through [`crate::graded::grade`], and the distances come
    /// from the same budget-bounded DP on both sides, so graded verdicts
    /// are bit-identical between sequential and served checking.
    pub fn check_graded_pattern(
        &self,
        predicted: usize,
        pattern: &Pattern,
        query: GradedQuery,
    ) -> GradedReport {
        let report = self.report(predicted, pattern);
        let distance_to_zone = self
            .zone(predicted)
            .and_then(|z| z.distance_to_zone_within(pattern, query.budget));
        let others: Vec<NearestZone> = self
            .zones
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != predicted)
            .filter_map(|(c, z)| {
                let z = z.as_ref()?;
                let distance = z.distance_to_zone_within(pattern, query.budget)?;
                Some(NearestZone { class: c, distance })
            })
            .collect();
        grade(report, distance_to_zone, others, query)
    }

    /// Batched graded judgement sharing the forward passes: the graded
    /// counterpart of [`ActivationMonitor::check_batch`].  Element `i`
    /// equals `check_graded` on input `i`.
    pub fn check_graded_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
        query: GradedQuery,
    ) -> Vec<GradedReport> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(predicted, pattern)| self.check_graded_pattern(predicted, &pattern, query))
            .collect()
    }

    /// Extracts the (predicted class, monitored pattern) pair for one input
    /// without judging it — the diagnostics and enrichment path.
    pub fn observe(&self, model: &mut Sequential, input: &Tensor) -> (usize, Pattern) {
        self.observe_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "observe_batch returns one entry per input row; the slice has exactly one row")
            .expect("one observation per input")
    }

    /// Batched version of [`Monitor::observe`].
    ///
    /// # Panics
    ///
    /// Panics if `model` holds a layer from outside `naps-nn`
    /// ([`Sequential::observe_rows`]).
    pub fn observe_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Vec<(usize, Pattern)> {
        observe_single_layer_batch(model, inputs, self.layer, &self.selection)
    }
}

impl<Z: Zone> ActivationMonitor for Monitor<Z> {
    type Report = MonitorReport;

    /// Runs the network on one flat input, extracts the monitored pattern
    /// and returns the network decision plus the monitor verdict — the
    /// deployment-time flow of Figure 1(b).
    fn check(&self, model: &mut Sequential, input: &Tensor) -> MonitorReport {
        self.check_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "check_batch returns one report per input row; the slice has exactly one row")
            .expect("one report per input")
    }

    /// Batched judgement sharing one forward pass per 64 inputs
    /// ([`Sequential::observe_rows`]).
    fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<MonitorReport> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(predicted, pattern)| self.report(predicted, &pattern))
            .collect()
    }

    /// Graded judgement: distance to the predicted class's zone plus a
    /// ranked nearest-other-class list — always `Some`; see
    /// [`Monitor::check_graded_pattern`].
    fn check_graded(
        &self,
        model: &mut Sequential,
        input: &Tensor,
        query: GradedQuery,
    ) -> Option<GradedReport> {
        self.check_graded_batch(model, std::slice::from_ref(input), query)
            .pop()
    }

    /// Grows every zone to Hamming radius `gamma` (Section III's gradual
    /// enlargement).  Monotone; see [`Zone::enlarge_to`].
    fn enlarge_to(&mut self, gamma: u32) {
        for (c, z) in self.zones.iter_mut().enumerate() {
            if let Some(z) = z {
                // Judged per zone, not against the monitor-level γ: zones
                // assembled via `from_zones` may lag the monitor's γ and
                // still grow here, which must dirty them for republish.
                if gamma > z.gamma() {
                    self.dirty[c] = true;
                }
                z.enlarge_to(gamma);
            }
        }
        self.gamma = gamma;
    }
}

/// Serializable form of a BDD-backed monitor: per-class seed-set snapshots
/// plus the configuration needed to re-dilate and re-attach to a model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Monitored layer index.
    pub layer: usize,
    /// Hamming budget γ.
    pub gamma: u32,
    /// The neuron subset.
    pub selection: NeuronSelection,
    /// Per-class seed snapshots (`None` = class unmonitored).
    pub zones: Vec<Option<BddSnapshot>>,
}

impl Monitor<BddZone> {
    /// Garbage-collects every zone's BDD manager (see
    /// [`BddZone::compact`]); call once after the final
    /// [`Monitor::enlarge_to`] to minimise the deployed footprint.
    pub fn compact(&mut self) {
        for z in self.zones.iter_mut().flatten() {
            z.compact();
        }
    }

    /// Garbage-collects only the zones marked dirty since the last
    /// [`Monitor::take_dirty`] — the cheap pre-republish compaction of
    /// the online-enrichment loop ([`Monitor::enrich`] leaves dead
    /// intermediate diagrams behind in exactly those managers).  Dirty
    /// flags are left set; publishing consumes them.
    pub fn compact_dirty(&mut self) {
        for (z, &dirty) in self.zones.iter_mut().zip(&self.dirty) {
            if dirty {
                if let Some(z) = z {
                    z.compact();
                }
            }
        }
    }

    /// Captures a deployable snapshot (seed sets + γ + selection).
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            layer: self.layer,
            gamma: self.gamma,
            selection: self.selection.clone(),
            zones: self
                .zones
                .iter()
                .map(|z| z.as_ref().map(|z| z.snapshot().0))
                .collect(),
        }
    }

    /// Restores a monitor from a snapshot, re-dilating each zone to the
    /// recorded γ.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError`] if a zone snapshot is corrupt or its width
    /// differs from the selection width.
    pub fn from_snapshot(snapshot: &MonitorSnapshot) -> Result<Self, MonitorError> {
        let width = snapshot.selection.len();
        let mut zones = Vec::with_capacity(snapshot.zones.len());
        for s in &snapshot.zones {
            match s {
                None => zones.push(None),
                Some(snap) => {
                    if snap.num_vars() != width {
                        return Err(MonitorError::WidthMismatch {
                            expected: snap.num_vars(),
                            actual: width,
                        });
                    }
                    zones.push(Some(BddZone::from_snapshot(snap, snapshot.gamma)?));
                }
            }
        }
        Ok(Monitor::from_zones(
            zones,
            snapshot.layer,
            snapshot.selection.clone(),
            snapshot.gamma,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ExactZone;
    use naps_nn::{mlp, Adam, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blob_problem() -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let s = if i % 2 == 0 { 1.0f32 } else { -1.0 };
            let wiggle = (i as f32 * 0.13).sin() * 0.2;
            xs.push(Tensor::from_vec(vec![2], vec![s + wiggle, s - wiggle]));
            ys.push(i % 2);
        }
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 8,
            verbose: false,
        });
        trainer.fit(&mut net, &xs, &ys, &mut Adam::new(0.05), &mut rng);
        (net, xs, ys)
    }

    fn build_manual<Z: Zone>(
        net: &mut Sequential,
        xs: &[Tensor],
        ys: &[usize],
        gamma: u32,
    ) -> Monitor<Z> {
        let selection = NeuronSelection::all(8);
        let mut zones: Vec<Option<Z>> = (0..2).map(|_| Some(Z::empty(8))).collect();
        let probe = Monitor::<Z>::from_zones(
            (0..2).map(|_| Some(Z::empty(8))).collect(),
            1,
            selection.clone(),
            0,
        );
        for (x, &y) in xs.iter().zip(ys) {
            let (pred, pat) = probe.observe(net, x);
            if pred == y {
                zones[y].as_mut().expect("zone").insert(&pat);
            }
        }
        for z in zones.iter_mut().flatten() {
            z.enlarge_to(gamma);
        }
        Monitor::from_zones(zones, 1, selection, gamma)
    }

    #[test]
    fn training_inputs_are_in_pattern() {
        let (mut net, xs, ys) = two_blob_problem();
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 0);
        // Soundness: every correctly classified training input must be
        // inside its own comfort zone.
        for (x, &y) in xs.iter().zip(&ys) {
            let rep = monitor.check(&mut net, x);
            if rep.predicted == y {
                assert_eq!(rep.verdict, Verdict::InPattern);
                assert_eq!(rep.distance_to_seeds, Some(0));
            }
        }
    }

    #[test]
    fn far_out_input_is_out_of_pattern_or_unfamiliar() {
        let (mut net, xs, ys) = two_blob_problem();
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 0);
        // A wild input far outside both blobs.
        let novelty = Tensor::from_vec(vec![2], vec![30.0, -42.0]);
        let rep = monitor.check(&mut net, &novelty);
        // The verdict depends on the learned geometry, but the report must
        // be well-formed and the distance populated for monitored classes.
        assert!(rep.predicted < 2);
        assert!(rep.distance_to_seeds.is_some());
    }

    #[test]
    fn unmonitored_class_reports_unmonitored() {
        let (mut net, xs, ys) = two_blob_problem();
        let selection = NeuronSelection::all(8);
        // Only class 0 gets a zone.
        let mut zones: Vec<Option<ExactZone>> = vec![Some(ExactZone::empty(8)), None];
        let probe = Monitor::<ExactZone>::from_zones(
            vec![Some(ExactZone::empty(8)), None],
            1,
            selection.clone(),
            0,
        );
        for (x, &y) in xs.iter().zip(&ys) {
            let (pred, pat) = probe.observe(&mut net, x);
            if pred == y && y == 0 {
                zones[0].as_mut().expect("zone").insert(&pat);
            }
        }
        let monitor = Monitor::from_zones(zones, 1, selection, 0);
        assert_eq!(monitor.monitored_classes(), vec![0]);
        let mut saw_unmonitored = false;
        for x in &xs {
            let rep = monitor.check(&mut net, x);
            if rep.predicted == 1 {
                assert_eq!(rep.verdict, Verdict::Unmonitored);
                saw_unmonitored = true;
            }
        }
        assert!(saw_unmonitored, "class 1 never predicted");
    }

    #[test]
    fn enlarge_makes_membership_monotone() {
        let (mut net, xs, ys) = two_blob_problem();
        let mut monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 0);
        let probe = Tensor::from_vec(vec![2], vec![1.4, 0.4]);
        let before = monitor.check(&mut net, &probe);
        monitor.enlarge_to(3);
        let after = monitor.check(&mut net, &probe);
        if before.verdict == Verdict::InPattern {
            assert_eq!(
                after.verdict,
                Verdict::InPattern,
                "enlarging must not evict"
            );
        }
        assert_eq!(monitor.gamma(), 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_verdicts() {
        let (mut net, xs, ys) = two_blob_problem();
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        let snap = monitor.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MonitorSnapshot = serde_json::from_str(&json).expect("deserialize");
        let restored = Monitor::from_snapshot(&back).expect("restore");
        assert_eq!(restored.gamma(), 1);
        for x in xs.iter().take(10) {
            let a = monitor.check(&mut net, x);
            let b = restored.check(&mut net, x);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn enrich_admits_confirmed_patterns_post_enlargement() {
        let (mut net, xs, ys) = two_blob_problem();
        let mut monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        assert!(monitor.dirty_classes().is_empty());

        // Find an out-of-pattern probe: flip bits of an observed pattern
        // until the zone rejects it.
        let (class, pattern) = monitor.observe(&mut net, &xs[0]);
        let mut bits = pattern.to_bools();
        let mut confirmed = None;
        for k in 0..bits.len() {
            bits[k] = !bits[k];
            let cand = Pattern::from_bools(&bits);
            if monitor.check_pattern(class, &cand) == Verdict::OutOfPattern {
                confirmed = Some(cand);
                break;
            }
        }
        let confirmed = confirmed.expect("some 1-to-k flip leaves the zone");

        // The operator confirms it benign: enrich and re-check.
        let fresh = monitor
            .enrich(class, std::slice::from_ref(&confirmed))
            .expect("monitored class");
        assert_eq!(fresh, 1);
        assert_eq!(monitor.check_pattern(class, &confirmed), Verdict::InPattern);
        // Distance-to-seeds now sees it as a seed.
        assert_eq!(
            monitor.zone(class).unwrap().distance_to_seeds(&confirmed),
            Some(0)
        );
        // Dirty tracking: exactly that class, consumed by take_dirty.
        assert_eq!(monitor.dirty_classes(), vec![class]);
        assert_eq!(monitor.take_dirty(), vec![class]);
        assert!(monitor.dirty_classes().is_empty());

        // Re-enriching with a known seed is a no-op and stays clean.
        let fresh = monitor
            .enrich(class, std::slice::from_ref(&confirmed))
            .expect("monitored class");
        assert_eq!(fresh, 0);
        assert!(monitor.dirty_classes().is_empty());
    }

    #[test]
    fn enrich_rejects_bad_targets_without_side_effects() {
        let (mut net, xs, ys) = two_blob_problem();
        let mut monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        let pat = Pattern::zeros(8);
        assert_eq!(
            monitor.enrich(7, std::slice::from_ref(&pat)),
            Err(MonitorError::UnmonitoredClass { class: 7 })
        );
        let narrow = Pattern::zeros(3);
        assert_eq!(
            monitor.enrich(0, std::slice::from_ref(&narrow)),
            Err(MonitorError::WidthMismatch {
                expected: 8,
                actual: 3
            })
        );
        assert!(monitor.dirty_classes().is_empty());
    }

    #[test]
    fn compact_dirty_preserves_enriched_semantics() {
        let (mut net, xs, ys) = two_blob_problem();
        let mut monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        let (class, pattern) = monitor.observe(&mut net, &xs[0]);
        let mut bits = pattern.to_bools();
        for b in bits.iter_mut() {
            *b = !*b;
        }
        let far = Pattern::from_bools(&bits);
        monitor.enrich(class, std::slice::from_ref(&far)).unwrap();
        let before: Vec<_> = xs.iter().map(|x| monitor.check(&mut net, x)).collect();
        monitor.compact_dirty();
        // Flags survive compaction (publishing consumes them, not GC)...
        assert_eq!(monitor.dirty_classes(), vec![class]);
        // ...and verdicts are untouched.
        for (x, want) in xs.iter().zip(&before) {
            assert_eq!(&monitor.check(&mut net, x), want);
        }
        assert_eq!(monitor.check_pattern(class, &far), Verdict::InPattern);
    }

    #[test]
    fn enlarge_marks_dirty() {
        let (mut net, xs, ys) = two_blob_problem();
        let mut monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        monitor.enlarge_to(2);
        assert_eq!(monitor.take_dirty(), vec![0, 1]);
        // Re-requesting the same gamma changes nothing.
        monitor.enlarge_to(2);
        assert!(monitor.dirty_classes().is_empty());
    }

    #[test]
    fn enlarge_dirties_zones_lagging_the_monitor_gamma() {
        // from_zones does not force zone gamma == the monitor gamma
        // argument; enlarging must dirty any zone that actually grows,
        // judged per zone.
        let zones: Vec<Option<BddZone>> = (0..2)
            .map(|c| {
                let mut z = BddZone::empty(4);
                z.insert(&p(&[c, 0, c, 0]));
                Some(z) // per-zone gamma stays 0
            })
            .collect();
        let mut monitor = Monitor::from_zones(zones, 1, NeuronSelection::all(4), 1);
        assert_eq!(monitor.gamma(), 1);
        monitor.enlarge_to(1); // no-op at monitor level, but zones grow 0 -> 1
        assert_eq!(monitor.take_dirty(), vec![0, 1]);
    }

    fn p(bits: &[u8]) -> Pattern {
        Pattern::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    #[test]
    fn graded_report_embeds_the_binary_report() {
        use crate::graded::{GradedQuery, Triage};
        let (mut net, xs, ys) = two_blob_problem();
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        let query = GradedQuery::new(3, 2);
        let binary = monitor.check_batch(&mut net, &xs);
        let graded = monitor.check_graded_batch(&mut net, &xs, query);
        for (b, g) in binary.iter().zip(&graded) {
            assert_eq!(&g.report, b, "graded must embed the binary verdict");
            match b.verdict {
                Verdict::InPattern => {
                    assert_eq!(g.distance_to_zone, Some(0));
                    assert_eq!(g.triage, Triage::InPattern);
                }
                Verdict::OutOfPattern => {
                    assert_ne!(g.distance_to_zone, Some(0));
                    assert_ne!(g.triage, Triage::InPattern);
                }
                Verdict::Unmonitored => assert_eq!(g.triage, Triage::Unmonitored),
            }
            // The ranking never includes the predicted class and is
            // sorted ascending within the budget.
            assert!(g.nearest.iter().all(|n| n.class != b.predicted));
            assert!(g.nearest.windows(2).all(|w| w[0].distance <= w[1].distance));
            assert!(g.nearest.iter().all(|n| n.distance <= query.budget));
            assert!(g.nearest.len() <= query.top_k);
        }
        // The trait method agrees with the batched path.
        use crate::activation::ActivationMonitor as _;
        let via_trait = monitor
            .check_graded(&mut net, &xs[0], query)
            .expect("Monitor grades");
        assert_eq!(via_trait, graded[0]);
    }

    #[test]
    fn graded_zone_distance_matches_seed_distance_minus_gamma() {
        use crate::graded::GradedQuery;
        let (mut net, xs, ys) = two_blob_problem();
        let gamma = 1;
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, gamma);
        for x in &xs {
            let (predicted, pattern) = monitor.observe(&mut net, x);
            let g = monitor.check_graded_pattern(predicted, &pattern, GradedQuery::new(8, 2));
            if let (Some(dz), Some(ds)) = (g.distance_to_zone, g.report.distance_to_seeds) {
                assert_eq!(dz, ds.saturating_sub(gamma), "ball-union geometry");
            }
        }
    }

    #[test]
    fn misclassification_candidate_when_pattern_sits_in_another_zone() {
        use crate::graded::{GradedQuery, Triage};
        // Hand-built zones: class 0 owns {0000}, class 1 owns {1100}.
        let mut z0 = BddZone::empty(4);
        z0.insert(&p(&[0, 0, 0, 0]));
        let mut z1 = BddZone::empty(4);
        z1.insert(&p(&[1, 1, 0, 0]));
        let monitor = Monitor::from_zones(vec![Some(z0), Some(z1)], 1, NeuronSelection::all(4), 0);
        // Predicted class 0, but the observed pattern is class 1's seed.
        let g = monitor.check_graded_pattern(0, &p(&[1, 1, 0, 0]), GradedQuery::new(2, 3));
        assert_eq!(g.report.verdict, Verdict::OutOfPattern);
        assert_eq!(g.triage, Triage::MisclassificationCandidate);
        assert_eq!(
            g.nearest,
            vec![crate::NearestZone {
                class: 1,
                distance: 0
            }]
        );
        assert_eq!(g.distance_to_zone, Some(2));
        // A pattern beyond the budget from both zones is a novelty.
        let g = monitor.check_graded_pattern(0, &p(&[1, 1, 1, 1]), GradedQuery::new(1, 3));
        assert_eq!(g.triage, Triage::Novelty);
        assert_eq!(g.distance_to_zone, None);
        assert!(g.nearest.is_empty());
    }

    #[test]
    fn check_batch_matches_single_checks() {
        let (mut net, xs, ys) = two_blob_problem();
        let monitor: Monitor<BddZone> = build_manual(&mut net, &xs, &ys, 1);
        let batch_reports = monitor.check_batch(&mut net, &xs[..8]);
        for (x, want) in xs[..8].iter().zip(&batch_reports) {
            let got = monitor.check(&mut net, x);
            assert_eq!(&got, want);
        }
        assert!(monitor.check_batch(&mut net, &[]).is_empty());
    }
}
