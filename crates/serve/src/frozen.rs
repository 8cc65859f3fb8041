//! Frozen, class-sharded monitors: the immutable data the engine serves.
//!
//! A live [`Monitor`] owns a BDD manager per zone; managers are mutable
//! (hash-consing tables, operation caches) and so cannot be queried from
//! several threads without locks.  Freezing captures each class's
//! **enlarged** comfort zone and its seed set as [`BddSnapshot`]s — plain
//! node arrays with no caches — behind `Arc`s.  Membership becomes a
//! root-to-terminal walk ([`BddSnapshot::eval`]) and distance-to-seeds a
//! bottom-up sweep ([`BddSnapshot::min_hamming_distance`]); both take
//! `&self`, touch nothing mutable, and are therefore lock-free on the
//! serving hot path.
//!
//! [`FrozenMonitor::shard_by_class`] splits the classes round-robin into
//! disjoint [`MonitorShard`]s.  Shards hold `Arc`s onto the same frozen
//! zones — sharding costs no memory — and give each engine worker (or
//! each node of a distributed deployment) ownership of a disjoint class
//! subset while any worker can still resolve any predicted class.

use naps_bdd::{BddError, BddSnapshot, CompiledZone};
use naps_core::batch::{
    forward_observe_plan, observe_layered_batch, pack_batch, ObservationPlan, ObservedBatch,
    PreparedModel,
};
use naps_core::graded::grade;
use naps_core::prepared::PreparedObserver;
use naps_core::{
    BddZone, CombinePolicy, GradedQuery, GradedReport, LayeredMonitor, Monitor, MonitorError,
    MonitorReport, NearestZone, NeuronSelection, Pattern, Verdict,
};
use naps_nn::Sequential;
use naps_sync::Arc;
use naps_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::{fs, io};

/// One class's comfort zone, frozen for lock-free concurrent queries.
///
/// Freezing (and loading) **compiles** each snapshot into a
/// [`CompiledZone`] — the flat/bit-sliced/small-zone evaluators of
/// `naps-bdd` — and every serving query runs on the compiled form.  The
/// snapshots stay the ground truth: they are what persists (see
/// [`FrozenMonitor::save`]; compiled evaluators are derived, never
/// serialized), and the `*_walked` methods run the original
/// interpreted queries as the oracle the compiled path is pinned
/// bit-identical to.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenZone {
    zone: BddSnapshot,
    seeds: BddSnapshot,
    gamma: u32,
    /// Compiled form of `zone` (derived at construction).
    zone_eval: CompiledZone,
    /// Compiled form of `seeds` (derived at construction).
    seed_eval: CompiledZone,
}

impl FrozenZone {
    /// Captures the enlarged zone and seed set of a live [`BddZone`],
    /// compiling both for serving.
    pub fn freeze(zone: &BddZone) -> Self {
        use naps_core::Zone;
        Self::from_snapshots(zone.zone_snapshot(), zone.seed_snapshot(), zone.gamma())
    }

    /// Assembles a frozen zone from already-captured snapshots, running
    /// the compile step.  Compilation is deterministic, so two calls on
    /// equal snapshots produce `==` zones — the invariant that lets
    /// persistence store snapshots only.
    fn from_snapshots(zone: BddSnapshot, seeds: BddSnapshot, gamma: u32) -> Self {
        let zone_eval = CompiledZone::compile(&zone);
        let seed_eval = CompiledZone::compile(&seeds);
        FrozenZone {
            zone,
            seeds,
            gamma,
            zone_eval,
            seed_eval,
        }
    }

    /// Pattern width (number of monitored neurons).
    pub fn width(&self) -> usize {
        self.zone.num_vars()
    }

    /// The Hamming radius the zone was enlarged to when frozen.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// Membership in `Z^γ_c` — the compiled evaluator over the pattern's
    /// packed words (no unpacking), bit-identical to
    /// [`naps_core::Zone::contains`] on the source zone and to
    /// [`FrozenZone::contains_walked`].
    pub fn contains(&self, pattern: &Pattern) -> bool {
        self.zone_eval.eval_words(pattern.words())
    }

    /// Minimum Hamming distance to the seed set `Z^0_c`, `None` when no
    /// pattern was ever inserted — bit-identical to
    /// [`naps_core::Zone::distance_to_seeds`].  Seed sets are small, so
    /// this is almost always a popcount scan over the enumerated seeds.
    pub fn distance_to_seeds(&self, pattern: &Pattern) -> Option<u32> {
        self.seed_eval.min_hamming_distance_words(pattern.words())
    }

    /// Minimum Hamming distance to the **enlarged** zone `Z^γ_c`
    /// (`Some(0)` ⇔ [`FrozenZone::contains`]), `None` for an empty zone
    /// — the unbounded sweep on the compiled structure, kept as the
    /// reference the bounded query is benchmarked and verified against.
    pub fn distance_to_zone(&self, pattern: &Pattern) -> Option<u32> {
        self.zone_eval.min_hamming_distance_words(pattern.words())
    }

    /// Budget-bounded [`FrozenZone::distance_to_zone`]: `None` when the
    /// zone is empty **or** further than `budget`.  Runs the early-exit
    /// DP lowered onto the compiled node array
    /// ([`CompiledZone::min_hamming_distance_within_words`]), so in-zone
    /// patterns cost one walk and far patterns prune without sweeping
    /// the node array — bit-identical to
    /// [`naps_core::Zone::distance_to_zone_within`] on the source zone.
    pub fn distance_to_zone_within(&self, pattern: &Pattern, budget: u32) -> Option<u32> {
        self.zone_eval
            .min_hamming_distance_within_words(pattern.words(), budget)
    }

    /// [`FrozenZone::contains`] on the walked snapshot — the interpreted
    /// oracle the compiled path is verified against.
    pub fn contains_walked(&self, pattern: &Pattern) -> bool {
        self.zone.eval(&pattern.to_bools())
    }

    /// [`FrozenZone::distance_to_seeds`] on the walked snapshot.
    pub fn distance_to_seeds_walked(&self, pattern: &Pattern) -> Option<u32> {
        self.seeds.min_hamming_distance(&pattern.to_bools())
    }

    /// [`FrozenZone::distance_to_zone`] on the walked snapshot.
    pub fn distance_to_zone_walked(&self, pattern: &Pattern) -> Option<u32> {
        self.zone.min_hamming_distance(&pattern.to_bools())
    }

    /// [`FrozenZone::distance_to_zone_within`] on the walked snapshot.
    pub fn distance_to_zone_within_walked(&self, pattern: &Pattern, budget: u32) -> Option<u32> {
        self.zone
            .min_hamming_distance_within(&pattern.to_bools(), budget)
    }

    /// The compiled evaluator of the enlarged zone.
    pub fn zone_eval(&self) -> &CompiledZone {
        &self.zone_eval
    }

    /// The compiled evaluator of the seed set.
    pub fn seed_eval(&self) -> &CompiledZone {
        &self.seed_eval
    }

    /// The walked snapshot of the enlarged zone (the compiled
    /// evaluator's ground truth).
    pub fn zone_snapshot(&self) -> &BddSnapshot {
        &self.zone
    }

    /// The walked snapshot of the seed set.
    pub fn seed_snapshot(&self) -> &BddSnapshot {
        &self.seeds
    }

    /// Decision-node count of the frozen (enlarged) zone.
    pub fn node_count(&self) -> usize {
        self.zone.node_count()
    }

    /// The on-disk record: snapshots and γ only — compiled evaluators
    /// are rebuilt on load, never serialized.
    fn to_persisted(&self) -> PersistedZone {
        PersistedZone {
            zone: self.zone.clone(),
            seeds: self.seeds.clone(),
            gamma: self.gamma,
        }
    }
}

/// On-disk shape of a [`FrozenZone`]: the two snapshots plus γ, in the
/// exact field layout frozen zones serialized as before evaluators were
/// compiled — old files keep loading, and new files are byte-identical
/// to what the pre-compiled code wrote.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PersistedZone {
    zone: BddSnapshot,
    seeds: BddSnapshot,
    gamma: u32,
}

impl PersistedZone {
    /// Recompiles the persisted snapshots into a serving zone.  Callers
    /// must have validated the snapshots first ([`BddSnapshot::validate`])
    /// — the compiled evaluators index them unchecked.
    fn into_frozen(self) -> FrozenZone {
        FrozenZone::from_snapshots(self.zone, self.seeds, self.gamma)
    }
}

/// A disjoint class subset of a [`FrozenMonitor`].
///
/// Shard `i` of `n` owns every class `c` with `c % n == i`.  The zones
/// are shared (`Arc`) with the parent monitor and its other shards.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorShard {
    index: usize,
    num_shards: usize,
    /// Slot `s` holds class `s * num_shards + index`.
    zones: Vec<Option<Arc<FrozenZone>>>,
    num_classes: usize,
}

impl MonitorShard {
    /// Which shard (of `num_shards`) this is.
    pub fn index(&self) -> usize {
        self.index
    }

    /// `true` when this shard owns `class`.
    pub fn owns(&self, class: usize) -> bool {
        class < self.num_classes && class % self.num_shards == self.index
    }

    /// The classes this shard owns, in ascending order.
    ///
    /// Filtered against the monitor's class count: the slot formula
    /// alone would let a tail shard with a padded `zones` vec report a
    /// phantom class `>= num_classes` that [`MonitorShard::owns`]
    /// disclaims (and [`MonitorShard::zone`] would panic on).
    pub fn classes(&self) -> Vec<usize> {
        (0..self.zones.len())
            .map(|s| s * self.num_shards + self.index)
            .filter(|&c| c < self.num_classes)
            .collect()
    }

    /// Bounded distances from `pattern` to every **monitored** zone this
    /// shard owns: one [`NearestZone`] per owned class whose enlarged
    /// zone lies within `budget`, in ascending class order (unranked —
    /// the caller merges shards and sorts).  This is the shard-local
    /// piece of a graded query: each shard resolves its own classes, so
    /// a distributed deployment can fan the ranking out shard-per-node.
    pub fn nearest_within(&self, pattern: &Pattern, budget: u32) -> Vec<NearestZone> {
        self.classes()
            .into_iter()
            .filter_map(|class| {
                let distance = self.zone(class)?.distance_to_zone_within(pattern, budget)?;
                Some(NearestZone { class, distance })
            })
            .collect()
    }

    /// The frozen zone of `class`, `None` when the class is unmonitored.
    ///
    /// # Panics
    ///
    /// Panics if this shard does not own `class` — routing a query to the
    /// wrong shard is a bug in the caller, not a monitoring verdict.
    pub fn zone(&self, class: usize) -> Option<&FrozenZone> {
        assert!(
            self.owns(class),
            "shard {}/{} does not own class {class}",
            self.index,
            self.num_shards
        );
        self.zones[class / self.num_shards].as_deref()
    }

    /// Judges an already-extracted `(predicted, pattern)` pair, exactly
    /// like [`Monitor::check_pattern`] plus the distance column of
    /// [`Monitor`]'s reports.
    pub fn report(&self, predicted: usize, pattern: &Pattern) -> MonitorReport {
        match self.zone(predicted) {
            None => MonitorReport {
                predicted,
                verdict: Verdict::Unmonitored,
                distance_to_seeds: None,
            },
            Some(z) => MonitorReport {
                predicted,
                verdict: if z.contains(pattern) {
                    Verdict::InPattern
                } else {
                    Verdict::OutOfPattern
                },
                distance_to_seeds: z.distance_to_seeds(pattern),
            },
        }
    }
}

/// An immutable, shard-partitioned snapshot of a [`Monitor`] ready for
/// concurrent serving.
///
/// Freezing is the deployment boundary: build and γ-tune a [`Monitor`]
/// offline, then [`FrozenMonitor::freeze`] (or
/// [`FrozenMonitor::shard_by_class`]) it for the engine.  A frozen
/// monitor deliberately does **not** implement
/// [`naps_core::ActivationMonitor`]: that trait includes `enlarge_to`,
/// and a frozen zone cannot grow — enrich the live [`Monitor`]
/// ([`Monitor::enrich`]), re-freeze, and hot-swap the new snapshot in
/// via `MonitorEngine::publish`.
///
/// Every frozen monitor carries an **epoch** — the version stamp of the
/// zone set it was cut from.  The serving engine stamps each verdict
/// with the epoch of the snapshot that judged it, so results stay
/// attributable across live updates, and [`FrozenMonitor::save`] /
/// [`FrozenMonitor::load`] persist the epoch alongside the zones for
/// warm restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenMonitor {
    layer: usize,
    gamma: u32,
    selection: NeuronSelection,
    num_classes: usize,
    shards: Vec<MonitorShard>,
    epoch: u64,
}

/// Why a [`FrozenMonitor::save`] / [`FrozenMonitor::load`] failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The bytes are not the JSON shape this version writes.
    Format(serde_json::Error),
    /// A zone snapshot inside the file is structurally invalid (truncated
    /// or tampered); loading it would make queries walk out of bounds.
    Corrupt(BddError),
    /// The file is well-formed but describes a monitor this build cannot
    /// serve (unknown format version, inconsistent widths, zero shards).
    Incompatible(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "monitor persistence i/o error: {e}"),
            PersistError::Format(e) => write!(f, "monitor file is not valid JSON: {e}"),
            PersistError::Corrupt(e) => write!(f, "monitor file holds a corrupt zone: {e}"),
            PersistError::Incompatible(what) => write!(f, "monitor file incompatible: {what}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            PersistError::Corrupt(e) => Some(e),
            PersistError::Incompatible(_) => None,
        }
    }
}

/// On-disk shape of a [`FrozenMonitor`]: one record per class (shards are
/// re-cut on load), plus the metadata needed to re-attach to a model.
#[derive(Debug, Serialize, Deserialize)]
struct PersistedMonitor {
    format: u32,
    epoch: u64,
    layer: usize,
    gamma: u32,
    selection: NeuronSelection,
    num_shards: usize,
    zones: Vec<Option<PersistedZone>>,
}

/// Version tag of [`PersistedMonitor`]; bump on breaking layout changes.
const PERSIST_FORMAT: u32 = 1;

impl FrozenMonitor {
    /// Freezes a monitor into a single shard (no class partitioning).
    pub fn freeze(monitor: &Monitor<BddZone>) -> Self {
        Self::shard_by_class(monitor, 1)
    }

    /// Freezes a monitor and splits its classes round-robin into
    /// `num_shards` disjoint shards (class `c` goes to shard
    /// `c % num_shards`).  Zones are `Arc`-shared, so this is cheap in
    /// memory no matter how many shards are cut.  The epoch starts at 0;
    /// see [`FrozenMonitor::with_epoch`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn shard_by_class(monitor: &Monitor<BddZone>, num_shards: usize) -> Self {
        let num_classes = monitor.num_classes();
        let frozen: Vec<Option<Arc<FrozenZone>>> = (0..num_classes)
            .map(|c| monitor.zone(c).map(|z| Arc::new(FrozenZone::freeze(z))))
            .collect();
        Self::from_class_zones(
            frozen,
            num_shards,
            monitor.layer(),
            monitor.gamma(),
            monitor.selection().clone(),
            0,
        )
    }

    /// Assembles a monitor from per-class frozen zones (slot `c` = class
    /// `c`), cutting `num_shards` round-robin shards over them.
    fn from_class_zones(
        zones: Vec<Option<Arc<FrozenZone>>>,
        num_shards: usize,
        layer: usize,
        gamma: u32,
        selection: NeuronSelection,
        epoch: u64,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let num_classes = zones.len();
        let shards = (0..num_shards)
            .map(|index| MonitorShard {
                index,
                num_shards,
                zones: zones
                    .iter()
                    .skip(index)
                    .step_by(num_shards)
                    .cloned()
                    .collect(),
                num_classes,
            })
            .collect();
        FrozenMonitor {
            layer,
            gamma,
            selection,
            num_classes,
            shards,
            epoch,
        }
    }

    /// The same monitor stamped with `epoch` (builder style).  Epochs are
    /// ordinarily assigned by the serving engine's publish path; set one
    /// manually only when managing versions yourself.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The zone-set version this snapshot was cut from.  Verdicts served
    /// from this snapshot carry this value.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Persists every class snapshot plus metadata (layer, γ, selection,
    /// shard count, epoch) as JSON through `naps-bdd`'s serializer, for
    /// warm restarts: a restarted service [`FrozenMonitor::load`]s and
    /// serves without retraining, re-observing or re-dilating anything.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let json = serde_json::to_string(&self.to_persisted()).map_err(PersistError::Format)?;
        fs::write(path, json).map_err(PersistError::Io)
    }

    /// The on-disk record of this monitor (shards are re-cut on load).
    fn to_persisted(&self) -> PersistedMonitor {
        PersistedMonitor {
            format: PERSIST_FORMAT,
            epoch: self.epoch,
            layer: self.layer,
            gamma: self.gamma,
            selection: self.selection.clone(),
            num_shards: self.shards.len(),
            zones: (0..self.num_classes)
                .map(|c| self.zone(c).map(FrozenZone::to_persisted))
                .collect(),
        }
    }

    /// Validates and reassembles one persisted per-layer record — the
    /// shared back half of [`FrozenMonitor::load`] and
    /// [`FrozenLayeredMonitor::load`].
    fn from_persisted(persisted: PersistedMonitor) -> Result<Self, PersistError> {
        if persisted.format != PERSIST_FORMAT {
            return Err(PersistError::Incompatible("unknown format version"));
        }
        if persisted.num_shards == 0 {
            return Err(PersistError::Incompatible("zero shards"));
        }
        let width = persisted.selection.len();
        for z in persisted.zones.iter().flatten() {
            z.zone.validate().map_err(PersistError::Corrupt)?;
            z.seeds.validate().map_err(PersistError::Corrupt)?;
            if z.zone.num_vars() != width || z.seeds.num_vars() != width {
                return Err(PersistError::Incompatible(
                    "zone width differs from selection width",
                ));
            }
        }
        Ok(Self::from_class_zones(
            persisted
                .zones
                .into_iter()
                .map(|z| z.map(|z| Arc::new(z.into_frozen())))
                .collect(),
            persisted.num_shards,
            persisted.layer,
            persisted.gamma,
            persisted.selection,
            persisted.epoch,
        ))
    }

    /// Restores a monitor saved by [`FrozenMonitor::save`]: the exact
    /// same snapshots (zone-for-zone, epoch included), re-cut into the
    /// saved shard layout.
    ///
    /// Every zone snapshot is structurally validated
    /// ([`BddSnapshot::validate`]) before it is accepted — the serving
    /// hot path walks snapshots without bounds checks, so corrupt bytes
    /// must be rejected here, not discovered mid-query.
    ///
    /// # Errors
    ///
    /// See [`PersistError`].
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let text = fs::read_to_string(path).map_err(PersistError::Io)?;
        let persisted: PersistedMonitor =
            serde_json::from_str(&text).map_err(PersistError::Format)?;
        Self::from_persisted(persisted)
    }

    /// Index of the monitored layer in the [`Sequential`] model.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The Hamming budget γ the zones were frozen at.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// The monitored neuron subset.
    pub fn selection(&self) -> &NeuronSelection {
        &self.selection
    }

    /// Number of classes (monitored or not).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The disjoint class shards.
    pub fn shards(&self) -> &[MonitorShard] {
        &self.shards
    }

    /// The shard owning `class`.
    pub fn shard_for(&self, class: usize) -> &MonitorShard {
        &self.shards[class % self.shards.len()]
    }

    /// The frozen zone of `class`, if monitored.
    pub fn zone(&self, class: usize) -> Option<&FrozenZone> {
        if class >= self.num_classes {
            return None;
        }
        self.shard_for(class).zone(class)
    }

    /// Checks a pattern against the zone of `class` — the frozen
    /// counterpart of [`Monitor::check_pattern`].
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

    /// Judges an already-extracted `(predicted, pattern)` pair by routing
    /// it to the owning shard.
    pub fn report(&self, predicted: usize, pattern: &Pattern) -> MonitorReport {
        if predicted >= self.num_classes {
            return MonitorReport {
                predicted,
                verdict: Verdict::Unmonitored,
                distance_to_seeds: None,
            };
        }
        self.shard_for(predicted).report(predicted, pattern)
    }

    /// Judges a batch of already-extracted `(predicted, pattern)` pairs —
    /// element `i` equals [`FrozenMonitor::report`] on pair `i`, but rows
    /// are grouped by predicted class so each zone judges all of its rows
    /// in one membership pass, which lets the compiled bit-sliced
    /// evaluator answer up to 64 rows per sweep of the node array.  This
    /// is the engine's micro-batch judging path.
    pub fn report_batch(&self, pairs: &[(usize, &Pattern)]) -> Vec<MonitorReport> {
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        let mut out: Vec<Option<MonitorReport>> = Vec::with_capacity(pairs.len());
        for (row, &(predicted, _)) in pairs.iter().enumerate() {
            if predicted < self.num_classes && self.zone(predicted).is_some() {
                by_class[predicted].push(row);
                out.push(None);
            } else {
                out.push(Some(MonitorReport {
                    predicted,
                    verdict: Verdict::Unmonitored,
                    distance_to_seeds: None,
                }));
            }
        }
        for (class, rows) in by_class.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            // naps-lint: allow(typed_errors, "by_class buckets were filled only for classes this monitor covers, so zone(class) is Some")
            let zone = self.zone(class).expect("grouped rows are monitored");
            let words: Vec<&[u64]> = rows.iter().map(|&r| pairs[r].1.words()).collect();
            let hits = zone.zone_eval().eval_many(&words);
            for (&row, hit) in rows.iter().zip(hits) {
                out[row] = Some(MonitorReport {
                    predicted: class,
                    verdict: if hit {
                        Verdict::InPattern
                    } else {
                        Verdict::OutOfPattern
                    },
                    distance_to_seeds: zone.distance_to_seeds(pairs[row].1),
                });
            }
        }
        out.into_iter()
            // naps-lint: allow(typed_errors, "the loops above wrote a verdict into every slot: each row landed in exactly one class bucket")
            .map(|r| r.expect("every row judged"))
            .collect()
    }

    /// Judges an already-extracted `(predicted, pattern)` pair with full
    /// graded detail: the frozen counterpart of
    /// [`Monitor::check_graded_pattern`], and **bit-identical** to it —
    /// the per-shard bounded distances ([`MonitorShard::nearest_within`])
    /// feed the same shared ranking/triage implementation
    /// ([`naps_core::graded::grade`]), and the snapshot DP agrees with
    /// the manager DP query-for-query (pinned by `naps-bdd`'s property
    /// tests).
    pub fn check_graded_pattern(
        &self,
        predicted: usize,
        pattern: &Pattern,
        query: GradedQuery,
    ) -> GradedReport {
        let report = self.report(predicted, pattern);
        // One bounded DP query per monitored class, total: the predicted
        // class's entry is split out of the per-shard rankings rather
        // than queried a second time.
        let mut distance_to_zone = None;
        let mut others: Vec<NearestZone> = Vec::new();
        for shard in &self.shards {
            for n in shard.nearest_within(pattern, query.budget) {
                if n.class == predicted {
                    distance_to_zone = Some(n.distance);
                } else {
                    others.push(n);
                }
            }
        }
        grade(report, distance_to_zone, others, query)
    }

    /// Extracts `(predicted class, monitored pattern)` pairs for a batch
    /// with one shared forward pass — the frozen counterpart of
    /// [`Monitor::observe_batch`], and the common front half of
    /// [`FrozenMonitor::check_batch`] /
    /// [`FrozenMonitor::check_graded_batch`].
    pub fn observe_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Vec<(usize, Pattern)> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let batch = pack_batch(inputs);
        let ObservedBatch {
            predicted,
            observed,
        } = forward_observe_plan(model, &batch, &ObservationPlan::single(self.layer));
        let monitored = &observed[0];
        predicted
            .into_iter()
            .enumerate()
            .map(|(r, p)| (p, self.selection.pattern_from(monitored.row(r))))
            .collect()
    }

    /// Batched judgement sharing one forward pass — the same packed path
    /// as [`Monitor`]'s
    /// [`check_batch`](naps_core::ActivationMonitor::check_batch) (`pack_batch` →
    /// `forward_observe_plan` → batched verdicts), so verdicts are
    /// bit-identical to the live monitor's.
    pub fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<MonitorReport> {
        let observed = self.observe_batch(model, inputs);
        let pairs: Vec<(usize, &Pattern)> = observed.iter().map(|(p, pat)| (*p, pat)).collect();
        self.report_batch(&pairs)
    }

    /// Batched graded judgement sharing one forward pass — element `i`
    /// equals [`FrozenMonitor::check_graded_pattern`] on row `i`, and is
    /// bit-identical to [`Monitor::check_graded_batch`] on the source
    /// monitor.
    pub fn check_graded_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
        query: GradedQuery,
    ) -> Vec<GradedReport> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(p, pattern)| self.check_graded_pattern(p, &pattern, query))
            .collect()
    }

    /// Single-input judgement (a batch of one).
    pub fn check(&self, model: &mut Sequential, input: &Tensor) -> MonitorReport {
        self.check_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "check_batch returns one report per input row; the slice has exactly one row")
            .expect("one report per input")
    }
}

/// One jointly judged classification from a [`FrozenLayeredMonitor`]:
/// the frozen counterpart of [`naps_core::LayeredReport`], carrying the
/// full per-layer [`MonitorReport`]s (verdict **and** seed distance)
/// rather than bare verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredVerdict {
    /// The network's decision.
    pub predicted: usize,
    /// One report per monitored layer, in the monitor's layer order.
    /// `per_layer[i].verdict` equals the corresponding entry of the live
    /// [`LayeredMonitor`]'s `per_layer`.
    pub per_layer: Vec<MonitorReport>,
    /// The [`CombinePolicy`]-combined verdict.
    pub combined: Verdict,
}

impl naps_core::MonitorOutcome for LayeredVerdict {
    fn out_of_pattern(&self) -> bool {
        self.combined == Verdict::OutOfPattern
    }
}

/// An immutable multi-layer monitor snapshot: one class-sharded
/// [`FrozenMonitor`] per monitored layer plus the [`CombinePolicy`] that
/// folds their verdicts — the deployable form of
/// [`naps_core::LayeredMonitor`], and the **only** shape the serving
/// engine ever holds.  A single-layer deployment is simply the `N = 1`
/// case ([`FrozenLayeredMonitor::from_single`]); there is no separate
/// single-layer serving path.
///
/// One batched forward pass observes every monitored layer: the
/// [`ObservationPlan`] retains exactly the monitored layers' activations,
/// so each additional layer costs shard lookups, never another forward
/// pass.  The container carries the **epoch**; its per-layer monitors are
/// stamped with the same value so a layer extracted via
/// [`FrozenLayeredMonitor::primary`] stays attributable.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenLayeredMonitor {
    /// Per-layer monitors in construction order (`Arc`-shared so the
    /// primary layer can be handed out without copying zones).
    layers: Vec<Arc<FrozenMonitor>>,
    policy: CombinePolicy,
    plan: ObservationPlan,
    epoch: u64,
}

impl From<FrozenMonitor> for FrozenLayeredMonitor {
    /// [`FrozenLayeredMonitor::from_single`]: what lets
    /// `MonitorEngine::publish` and `MonitorEngine::with_replicas` take a
    /// single-layer monitor directly.
    fn from(monitor: FrozenMonitor) -> Self {
        FrozenLayeredMonitor::from_single(monitor)
    }
}

impl FrozenLayeredMonitor {
    /// Lifts a single-layer monitor into the layered family — the
    /// `N = 1` special case.  The policy is irrelevant for one layer
    /// (every policy folds a lone verdict to itself); `Any` is recorded.
    /// The container adopts the monitor's epoch.
    pub fn from_single(monitor: FrozenMonitor) -> Self {
        let plan = ObservationPlan::single(monitor.layer());
        let epoch = monitor.epoch();
        FrozenLayeredMonitor {
            layers: vec![Arc::new(monitor)],
            policy: CombinePolicy::Any,
            plan,
            epoch,
        }
    }

    /// Assembles a layered monitor from per-layer frozen monitors.
    ///
    /// # Errors
    ///
    /// [`MonitorError::EmptyMonitorFamily`] when `monitors` is empty;
    /// [`MonitorError::ClassCountMismatch`] when the monitors disagree on
    /// the class count.  The epoch starts at 0
    /// (see [`FrozenLayeredMonitor::with_epoch`]).
    pub fn try_from_monitors(
        monitors: Vec<FrozenMonitor>,
        policy: CombinePolicy,
    ) -> Result<Self, MonitorError> {
        naps_core::validate_monitor_family(monitors.iter().map(|m| m.num_classes()))?;
        let plan = ObservationPlan::new(monitors.iter().map(|m| m.layer()).collect());
        let mut layered = FrozenLayeredMonitor {
            layers: monitors.into_iter().map(Arc::new).collect(),
            policy,
            plan,
            epoch: 0,
        };
        layered.set_epoch(0);
        Ok(layered)
    }

    /// Freezes a live [`LayeredMonitor`] into a single shard per layer.
    pub fn freeze(layered: &LayeredMonitor<BddZone>) -> Self {
        Self::shard_by_class(layered, 1)
    }

    /// Freezes a live [`LayeredMonitor`], splitting every layer's classes
    /// round-robin into `num_shards` disjoint shards (like
    /// [`FrozenMonitor::shard_by_class`], per layer).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn shard_by_class(layered: &LayeredMonitor<BddZone>, num_shards: usize) -> Self {
        let monitors = layered
            .monitors()
            .iter()
            .map(|m| FrozenMonitor::shard_by_class(m, num_shards))
            .collect();
        Self::try_from_monitors(monitors, layered.policy())
            // naps-lint: allow(typed_errors, "a live LayeredMonitor already passed the same family validation; re-freezing it cannot fail")
            .expect("a live LayeredMonitor is a valid family by construction")
    }

    /// The per-layer monitors, in construction order.
    pub fn layers(&self) -> &[Arc<FrozenMonitor>] {
        &self.layers
    }

    /// Number of monitored layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The **primary** layer: the first monitor in construction order.
    /// Single-layer views of a layered deployment (the engine's
    /// `EpochReport` projection, `MonitorEngine::monitor`) read this
    /// layer; builders put the paper's close-to-output monitor first.
    pub fn primary(&self) -> &Arc<FrozenMonitor> {
        &self.layers[0]
    }

    /// The verdict-combination policy.
    pub fn policy(&self) -> CombinePolicy {
        self.policy
    }

    /// The observation plan: deduplicated ascending monitored layer
    /// indices, the exact set of activations one forward pass retains.
    pub fn plan(&self) -> &ObservationPlan {
        &self.plan
    }

    /// Number of classes (monitored or not).
    pub fn num_classes(&self) -> usize {
        self.layers[0].num_classes()
    }

    /// The zone-set version this snapshot was cut from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The same monitor stamped with `epoch` (builder style); the stamp
    /// propagates to every per-layer monitor.  Epochs are ordinarily
    /// assigned by the serving engine's publish path.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.set_epoch(epoch);
        self
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        for layer in &mut self.layers {
            Arc::make_mut(layer).set_epoch(epoch);
        }
    }

    /// Extracts, for each input, the predicted class plus one observed
    /// pattern per monitored layer — **one** forward pass for the whole
    /// batch retaining only the planned layers' activations, the common
    /// front half of every layered check.
    pub fn observe_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Vec<(usize, Vec<Pattern>)> {
        observe_layered_batch(
            model,
            inputs,
            &self.plan,
            self.layers.iter().map(|m| (m.layer(), m.selection())),
        )
    }

    /// The allocation-free counterpart of
    /// [`FrozenLayeredMonitor::observe_batch`]: runs the pre-packed
    /// forward pass and refills `observer`'s reused storage, returning
    /// the live rows.  Bit-identical to the allocating path — `model`
    /// must have been prepared with this monitor's
    /// [`plan`](FrozenLayeredMonitor::plan) (the engine prepares both
    /// from the same published snapshot).
    ///
    /// # Panics
    ///
    /// Panics if a monitored layer is missing from `model`'s plan.
    pub fn observe_batch_prepared<'a>(
        &self,
        model: &PreparedModel,
        observer: &'a mut PreparedObserver,
        inputs: &[Tensor],
    ) -> &'a [(usize, Vec<Pattern>)] {
        observer.observe(
            model,
            inputs,
            self.layers.iter().map(|m| (m.layer(), m.selection())),
        )
    }

    /// Judges already-extracted per-layer patterns (one per monitored
    /// layer, in layer order): each layer's shard reports, then the
    /// policy fold — per-layer verdicts are bit-identical to the live
    /// [`LayeredMonitor`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len() != self.num_layers()`.
    pub fn report(&self, predicted: usize, patterns: &[Pattern]) -> LayeredVerdict {
        assert_eq!(
            patterns.len(),
            self.layers.len(),
            "one pattern per monitored layer"
        );
        let per_layer: Vec<MonitorReport> = self
            .layers
            .iter()
            .zip(patterns)
            .map(|(m, pattern)| m.report(predicted, pattern))
            .collect();
        let verdicts: Vec<Verdict> = per_layer.iter().map(|r| r.verdict).collect();
        LayeredVerdict {
            predicted,
            per_layer,
            combined: self.policy.combine(&verdicts),
        }
    }

    /// Judges a batch of already-observed rows — element `i` equals
    /// [`FrozenLayeredMonitor::report`] on row `i`, but each layer judges
    /// the whole batch at once ([`FrozenMonitor::report_batch`]) so the
    /// compiled bit-sliced evaluators see full class groups.  This is the
    /// engine's micro-batch judging path.
    ///
    /// # Panics
    ///
    /// Panics if any row does not carry one pattern per monitored layer.
    pub fn report_batch(&self, rows: &[(usize, &[Pattern])]) -> Vec<LayeredVerdict> {
        for &(_, patterns) in rows {
            assert_eq!(
                patterns.len(),
                self.layers.len(),
                "one pattern per monitored layer"
            );
        }
        let layer_reports: Vec<Vec<MonitorReport>> = self
            .layers
            .iter()
            .enumerate()
            .map(|(l, m)| {
                let pairs: Vec<(usize, &Pattern)> =
                    rows.iter().map(|&(p, pats)| (p, &pats[l])).collect();
                m.report_batch(&pairs)
            })
            .collect();
        rows.iter()
            .enumerate()
            .map(|(r, &(predicted, _))| {
                let per_layer: Vec<MonitorReport> =
                    layer_reports.iter().map(|lr| lr[r].clone()).collect();
                let verdicts: Vec<Verdict> = per_layer.iter().map(|x| x.verdict).collect();
                LayeredVerdict {
                    predicted,
                    per_layer,
                    combined: self.policy.combine(&verdicts),
                }
            })
            .collect()
    }

    /// Graded [`FrozenLayeredMonitor::report`]: additionally computes the
    /// full graded ranking per layer ([`FrozenMonitor::check_graded_pattern`],
    /// bit-identical to the live monitor's).  The binary half is
    /// assembled from the reports the graded queries embed, so the two
    /// halves can never disagree.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len() != self.num_layers()`.
    pub fn check_graded_pattern(
        &self,
        predicted: usize,
        patterns: &[Pattern],
        query: GradedQuery,
    ) -> (LayeredVerdict, Vec<GradedReport>) {
        assert_eq!(
            patterns.len(),
            self.layers.len(),
            "one pattern per monitored layer"
        );
        let graded: Vec<GradedReport> = self
            .layers
            .iter()
            .zip(patterns)
            .map(|(m, pattern)| m.check_graded_pattern(predicted, pattern, query))
            .collect();
        let per_layer: Vec<MonitorReport> = graded.iter().map(|g| g.report.clone()).collect();
        let verdicts: Vec<Verdict> = per_layer.iter().map(|r| r.verdict).collect();
        (
            LayeredVerdict {
                predicted,
                per_layer,
                combined: self.policy.combine(&verdicts),
            },
            graded,
        )
    }

    /// Batched joint judgement sharing one plan-observed forward pass.
    pub fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<LayeredVerdict> {
        let observed = self.observe_batch(model, inputs);
        let rows: Vec<(usize, &[Pattern])> = observed
            .iter()
            .map(|(p, patterns)| (*p, patterns.as_slice()))
            .collect();
        self.report_batch(&rows)
    }

    /// Batched graded joint judgement sharing one forward pass; element
    /// `i` equals [`FrozenLayeredMonitor::check_graded_pattern`] on row
    /// `i`'s observation.
    pub fn check_graded_batch(
        &self,
        model: &mut Sequential,
        inputs: &[Tensor],
        query: GradedQuery,
    ) -> Vec<(LayeredVerdict, Vec<GradedReport>)> {
        self.observe_batch(model, inputs)
            .into_iter()
            .map(|(p, patterns)| self.check_graded_pattern(p, &patterns, query))
            .collect()
    }

    /// Single-input judgement (a batch of one).
    pub fn check(&self, model: &mut Sequential, input: &Tensor) -> LayeredVerdict {
        self.check_batch(model, std::slice::from_ref(input))
            .pop()
            // naps-lint: allow(typed_errors, "check_batch returns one report per input row; the slice has exactly one row")
            .expect("one report per input")
    }

    /// Persists the whole family — every layer's class snapshots plus the
    /// combine policy and epoch — as a versioned JSON container
    /// (format 2).  [`FrozenLayeredMonitor::load`] restores it; it also
    /// accepts the pre-layered single-monitor format
    /// ([`FrozenMonitor::save`], format 1), lifted to `N = 1`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let persisted = PersistedLayeredMonitor {
            format: PERSIST_FORMAT_LAYERED,
            epoch: self.epoch,
            policy: self.policy,
            layers: self.layers.iter().map(|m| m.to_persisted()).collect(),
        };
        let json = serde_json::to_string(&persisted).map_err(PersistError::Format)?;
        fs::write(path, json).map_err(PersistError::Io)
    }

    /// Restores a monitor saved by [`FrozenLayeredMonitor::save`]
    /// **or** by the pre-layered [`FrozenMonitor::save`] — old
    /// single-layer files keep loading forever, as the `N = 1` case
    /// (policy `Any`).  Every zone snapshot of every layer is
    /// structurally validated before acceptance, exactly as the
    /// single-layer load does.
    ///
    /// # Errors
    ///
    /// See [`PersistError`]; a file that parses as neither format
    /// reports the layered parse failure.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let text = fs::read_to_string(path).map_err(PersistError::Io)?;
        match serde_json::from_str::<PersistedLayeredMonitor>(&text) {
            Ok(container) => {
                if container.format != PERSIST_FORMAT_LAYERED {
                    return Err(PersistError::Incompatible("unknown format version"));
                }
                let mut monitors = Vec::with_capacity(container.layers.len());
                for layer in container.layers {
                    monitors.push(FrozenMonitor::from_persisted(layer)?);
                }
                let layered = Self::try_from_monitors(monitors, container.policy)
                    .map_err(|_| PersistError::Incompatible("invalid layer family"))?;
                Ok(layered.with_epoch(container.epoch))
            }
            Err(layered_err) => {
                // Not a layered container: the pre-layered single-monitor
                // format parses as one per-layer record.
                let persisted: PersistedMonitor =
                    serde_json::from_str(&text).map_err(|_| PersistError::Format(layered_err))?;
                Ok(Self::from_single(FrozenMonitor::from_persisted(persisted)?))
            }
        }
    }
}

/// On-disk shape of a [`FrozenLayeredMonitor`]: the versioned container
/// around one [`PersistedMonitor`] record per layer.
#[derive(Debug, Serialize, Deserialize)]
struct PersistedLayeredMonitor {
    format: u32,
    epoch: u64,
    policy: CombinePolicy,
    layers: Vec<PersistedMonitor>,
}

/// Version tag of [`PersistedLayeredMonitor`].  Format 1 is the
/// pre-layered [`PersistedMonitor`]; bump past 2 on breaking layout
/// changes.
const PERSIST_FORMAT_LAYERED: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use naps_core::Zone;

    fn p(bits: &[u8]) -> Pattern {
        Pattern::from_bools(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    fn sample_monitor(num_classes: usize) -> Monitor<BddZone> {
        let width = 6;
        let zones: Vec<Option<BddZone>> = (0..num_classes)
            .map(|c| {
                if c == 2 {
                    return None; // one unmonitored class
                }
                let mut z = BddZone::empty(width);
                for k in 0..3u64 {
                    let bits: Vec<u8> = (0..width)
                        .map(|b| (((c as u64 + k) >> (b % 3)) & 1) as u8)
                        .collect();
                    z.insert(&p(&bits));
                }
                z.enlarge_to(1);
                Some(z)
            })
            .collect();
        Monitor::from_zones(zones, 1, NeuronSelection::all(width), 1)
    }

    #[test]
    fn frozen_verdicts_match_live_monitor() {
        let monitor = sample_monitor(5);
        for shards in [1, 2, 3, 5, 8] {
            let frozen = FrozenMonitor::shard_by_class(&monitor, shards);
            assert_eq!(frozen.num_classes(), 5);
            for m in 0..64u32 {
                let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
                let pat = Pattern::from_bools(&bits);
                for c in 0..5 {
                    assert_eq!(
                        frozen.check_pattern(c, &pat),
                        monitor.check_pattern(c, &pat),
                        "class {c} pattern {m:06b} shards {shards}"
                    );
                    let live_dist = monitor.zone(c).and_then(|z| z.distance_to_seeds(&pat));
                    let rep = frozen.report(c, &pat);
                    assert_eq!(rep.distance_to_seeds, live_dist);
                    assert_eq!(rep.predicted, c);
                }
            }
        }
    }

    #[test]
    fn classes_never_report_a_phantom_class() {
        // Non-divisible class/shard combinations, including more shards
        // than classes: every class a shard reports must be one it owns
        // and must exist, and the union across shards must be exactly
        // 0..num_classes.
        for num_classes in 1..=7usize {
            let monitor = sample_monitor(num_classes);
            for shards in 1..=9usize {
                let frozen = FrozenMonitor::shard_by_class(&monitor, shards);
                let mut seen = vec![0usize; num_classes];
                for shard in frozen.shards() {
                    for c in shard.classes() {
                        assert!(
                            c < num_classes,
                            "shard {}/{shards} reported phantom class {c} of {num_classes}",
                            shard.index()
                        );
                        assert!(shard.owns(c));
                        // Owned classes must be resolvable, not panic.
                        let _ = shard.zone(c);
                        seen[c] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "classes not partitioned ({num_classes} classes, {shards} shards): {seen:?}"
                );
            }
        }
    }

    #[test]
    fn frozen_graded_verdicts_match_live_monitor() {
        use naps_core::GradedQuery;
        let monitor = sample_monitor(5);
        for shards in [1, 2, 3, 5, 8] {
            let frozen = FrozenMonitor::shard_by_class(&monitor, shards);
            for budget in 0..4u32 {
                let query = GradedQuery::new(budget, 3);
                for m in 0..64u32 {
                    let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
                    let pat = Pattern::from_bools(&bits);
                    for c in 0..5 {
                        assert_eq!(
                            frozen.check_graded_pattern(c, &pat, query),
                            monitor.check_graded_pattern(c, &pat, query),
                            "class {c} pattern {m:06b} shards {shards} budget {budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_zone_bounded_distance_truncates_unbounded() {
        let monitor = sample_monitor(4);
        let frozen = FrozenMonitor::freeze(&monitor);
        for c in [0usize, 1, 3] {
            let zone = frozen.zone(c).expect("monitored");
            for m in 0..64u32 {
                let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
                let pat = Pattern::from_bools(&bits);
                let exact = zone.distance_to_zone(&pat);
                assert!(exact.is_some(), "non-empty zone");
                for budget in 0..4u32 {
                    assert_eq!(
                        zone.distance_to_zone_within(&pat, budget),
                        exact.filter(|&d| d <= budget)
                    );
                }
                // Zone distance 0 iff membership.
                assert_eq!(zone.contains(&pat), exact == Some(0));
            }
        }
    }

    #[test]
    fn shards_partition_the_classes() {
        let monitor = sample_monitor(7);
        let frozen = FrozenMonitor::shard_by_class(&monitor, 3);
        let mut seen = vec![0usize; 7];
        for shard in frozen.shards() {
            for c in shard.classes() {
                assert!(shard.owns(c));
                seen[c] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "classes not partitioned: {seen:?}"
        );
        // Ownership and routing agree.
        for c in 0..7 {
            assert!(frozen.shard_for(c).owns(c));
        }
    }

    #[test]
    fn unmonitored_class_reports_unmonitored() {
        let frozen = FrozenMonitor::freeze(&sample_monitor(4));
        let rep = frozen.report(2, &p(&[0, 0, 0, 0, 0, 0]));
        assert_eq!(rep.verdict, Verdict::Unmonitored);
        assert_eq!(rep.distance_to_seeds, None);
        // Out-of-range predictions degrade to Unmonitored too.
        let rep = frozen.report(99, &p(&[0, 0, 0, 0, 0, 0]));
        assert_eq!(rep.verdict, Verdict::Unmonitored);
    }

    #[test]
    #[should_panic(expected = "does not own class")]
    fn wrong_shard_routing_panics() {
        let frozen = FrozenMonitor::shard_by_class(&sample_monitor(4), 2);
        let _ = frozen.shards()[0].zone(1);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("naps_serve_persist_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn save_load_roundtrips_snapshot_for_snapshot() {
        let frozen = FrozenMonitor::shard_by_class(&sample_monitor(5), 3).with_epoch(42);
        let path = temp_path("roundtrip.json");
        frozen.save(&path).expect("save");
        let restored = FrozenMonitor::load(&path).expect("load");
        // Structural equality: every shard, every zone, every node array.
        assert_eq!(restored, frozen);
        assert_eq!(restored.epoch(), 42);
        // And behavioural equality on the full query space.
        for m in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let pat = Pattern::from_bools(&bits);
            for c in 0..5 {
                assert_eq!(restored.report(c, &pat), frozen.report(c, &pat));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_corrupt_and_missing_files() {
        assert!(matches!(
            FrozenMonitor::load(std::path::Path::new("/nonexistent/naps.json")),
            Err(PersistError::Io(_))
        ));
        let path = temp_path("garbage.json");
        std::fs::write(&path, "{not json").expect("write");
        assert!(matches!(
            FrozenMonitor::load(&path),
            Err(PersistError::Format(_))
        ));
        // A structurally broken zone snapshot must be caught up front:
        // corrupt a child index in an otherwise valid save.
        let frozen = FrozenMonitor::freeze(&sample_monitor(4));
        frozen.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        // Sanity: saved files load before tampering.
        assert!(FrozenMonitor::load(&path).is_ok());
        let tampered = text
            .replacen("\"format\": 1", "\"format\": 99", 1)
            .replace("\"format\":1", "\"format\":99");
        std::fs::write(&path, tampered).expect("write");
        assert!(matches!(
            FrozenMonitor::load(&path),
            Err(PersistError::Incompatible(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epochs_stamp_and_persist() {
        let monitor = sample_monitor(4);
        let frozen = FrozenMonitor::freeze(&monitor);
        assert_eq!(frozen.epoch(), 0);
        let stamped = frozen.with_epoch(7);
        assert_eq!(stamped.epoch(), 7);
        // Epoch participates in equality: same zones, different version.
        let again = FrozenMonitor::freeze(&monitor);
        assert_ne!(stamped, again);
        assert_eq!(again, FrozenMonitor::freeze(&monitor));
    }

    #[test]
    fn frozen_monitor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenZone>();
        assert_send_sync::<MonitorShard>();
        assert_send_sync::<FrozenMonitor>();
    }
}
