//! Frozen monitors: the immutable data the engine serves.
//!
//! A live [`Monitor`] owns a BDD manager per zone; managers are mutable
//! (hash-consing tables, operation caches) and so cannot be queried from
//! several threads without locks.  Freezing captures each class's
//! **enlarged** comfort zone and its seed set as [`BddSnapshot`]s — plain
//! node arrays with no caches — and compiles each into a
//! [`CompiledZone`], all behind `Arc`s.  Every serving query (membership,
//! distance to the seeds, the bounded graded distance) runs on the
//! compiled form; the snapshots are what persists and the walked
//! snapshot queries ([`BddSnapshot::eval`],
//! [`BddSnapshot::min_hamming_distance`]) are the oracle the compiled
//! path is pinned to.  Every query takes `&self` and touches nothing
//! mutable, so the serving hot path is lock-free.
//!
//! A [`FrozenMonitor`] is one layer's table of frozen zones indexed by
//! class; a [`FrozenLayeredMonitor`] holds one such table per monitored
//! layer and is the one judge every serving path runs.
//!
//! **Persist formats.**  [`FrozenLayeredMonitor::save`] writes a format-2
//! layered container whose per-layer records are format 3: each zone's
//! two snapshots carry the variable order the zone was sealed in.
//! Format-1 records — a bare pre-layered file, or the layers of a
//! container written before zones had their own order — carry none.
//! Loading one re-seals each zone's seed set the way a fresh
//! [`BddZone`] does and re-dilates it to γ (the stored enlarged diagram
//! is not needed), so a legacy file loads `==` to a fresh freeze of the
//! same zones.

use naps_bdd::{BddError, BddSnapshot, CompiledZone};
use naps_core::batch::{
    observe_layered_batch, observe_single_layer_batch, ObservationPlan, PreparedModel,
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
/// [`FrozenLayeredMonitor::save`]; compiled evaluators are derived, never
/// serialized), and the interpreted [`BddSnapshot`] queries are the
/// oracle the compiled path is pinned bit-identical to.
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
    /// [`BddSnapshot::eval`] on [`FrozenZone::zone_snapshot`].
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

/// On-disk shape of a [`FrozenZone`]: the two snapshots plus γ.  Each
/// snapshot carries the zone's variable order (written only when it is
/// not index order); compiled evaluators are rebuilt on load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PersistedZone {
    zone: BddSnapshot,
    seeds: BddSnapshot,
    gamma: u32,
}

/// A legacy (format-1 record) seed set holding more patterns than this
/// is refused instead of re-sealed; re-sealing enumerates every pattern.
const LEGACY_SEED_LIMIT: u64 = 1 << 20;

impl PersistedZone {
    /// Recompiles the persisted snapshots into a serving zone.  Callers
    /// must have validated the snapshots first ([`BddSnapshot::validate`])
    /// — the compiled evaluators index them unchecked.
    fn into_frozen(self) -> FrozenZone {
        FrozenZone::from_snapshots(self.zone, self.seeds, self.gamma)
    }

    /// Re-seals a zone of a format-1 record, written before zones carried
    /// their own variable order: its seed set goes through a fresh
    /// [`BddZone`]'s lifecycle (insert every pattern, enlarge to γ), so
    /// the loaded zone equals a fresh freeze of the same zone.  The
    /// stored enlarged diagram is not needed.  Callers must have
    /// validated the seed snapshot.
    fn reseal(self) -> Result<FrozenZone, PersistError> {
        use naps_core::Zone;
        let width = self.seeds.num_vars();
        let mut zone = BddZone::empty(width);
        if width == 0 {
            // One pattern exists (the empty one); the set holds it or not.
            if self.seeds.eval(&[]) {
                zone.insert(&Pattern::from_bools(&[]));
            }
        } else {
            let keys = self
                .seeds
                .minterms(LEGACY_SEED_LIMIT)
                .ok_or(PersistError::Incompatible(
                    "legacy seed set too large to re-seal",
                ))?;
            for key in keys.chunks_exact(width.div_ceil(64)) {
                let bits: Vec<bool> = (0..width)
                    .map(|i| (key[i / 64] >> (i % 64)) & 1 == 1)
                    .collect();
                zone.insert(&Pattern::from_bools(&bits));
            }
        }
        zone.enlarge_to(self.gamma);
        Ok(FrozenZone::freeze(&zone))
    }
}

/// An immutable snapshot of one layer's [`Monitor`] ready for concurrent
/// serving: the frozen zone of every class, indexed by class.
///
/// Freezing is the deployment boundary: build and γ-tune a [`Monitor`]
/// offline, then [`FrozenMonitor::freeze`] it for the engine.  A frozen
/// monitor deliberately does **not** implement
/// [`naps_core::ActivationMonitor`]: that trait includes `enlarge_to`,
/// and a frozen zone cannot grow — enrich the live [`Monitor`]
/// ([`Monitor::enrich`]), re-freeze, and hot-swap the new snapshot in
/// via `MonitorEngine::publish`.
///
/// Every frozen monitor carries an **epoch** — the version stamp of the
/// zone set it was cut from.  The serving engine stamps each verdict
/// with the epoch of the snapshot that judged it, so results stay
/// attributable across live updates, and [`FrozenLayeredMonitor::save`]
/// / [`FrozenLayeredMonitor::load`] persist the epoch alongside the
/// zones for warm restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenMonitor {
    layer: usize,
    gamma: u32,
    selection: NeuronSelection,
    /// Slot `c` holds class `c`'s zone, `None` when it is unmonitored.
    /// The `Arc`s keep clones (and epoch re-stamps) shallow.
    zones: Vec<Option<Arc<FrozenZone>>>,
    epoch: u64,
}

/// Why a [`FrozenLayeredMonitor::save`] / [`FrozenLayeredMonitor::load`]
/// failed.
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

/// On-disk shape of a [`FrozenMonitor`]: one record per class, plus the
/// metadata needed to re-attach to a model.  It is one layer of a
/// format-2 layered container, and on its own the whole of a pre-layered
/// format-1 file.  Records written today are format 3 (their snapshots
/// carry variable orders); format-1 records predate orders.
#[derive(Debug, Serialize, Deserialize)]
struct PersistedMonitor {
    format: u32,
    epoch: u64,
    layer: usize,
    gamma: u32,
    selection: NeuronSelection,
    /// Written as 1.  Older files record a class-shard count here; any
    /// value ≥ 1 loads the same zones, and 0 is rejected.
    num_shards: usize,
    zones: Vec<Option<PersistedZone>>,
}

/// Version tag of [`PersistedMonitor`] as written today: its zone
/// snapshots carry their variable order.  Bump on breaking layout
/// changes.
const PERSIST_FORMAT: u32 = 3;

/// The tag of records written before zones carried a variable order: a
/// bare pre-layered file (format 1), or each layer of a layered
/// container written then.  Their zones are re-sealed on load.
const LEGACY_RECORD_FORMAT: u32 = 1;

impl FrozenMonitor {
    /// Freezes every class zone of a live monitor.  The epoch starts at
    /// 0; see [`FrozenMonitor::with_epoch`].
    pub fn freeze(monitor: &Monitor<BddZone>) -> Self {
        FrozenMonitor {
            layer: monitor.layer(),
            gamma: monitor.gamma(),
            selection: monitor.selection().clone(),
            zones: (0..monitor.num_classes())
                .map(|c| monitor.zone(c).map(|z| Arc::new(FrozenZone::freeze(z))))
                .collect(),
            epoch: 0,
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

    /// The on-disk record of this monitor.
    fn to_persisted(&self) -> PersistedMonitor {
        PersistedMonitor {
            format: PERSIST_FORMAT,
            epoch: self.epoch,
            layer: self.layer,
            gamma: self.gamma,
            selection: self.selection.clone(),
            num_shards: 1,
            zones: self
                .zones
                .iter()
                .map(|z| z.as_deref().map(FrozenZone::to_persisted))
                .collect(),
        }
    }

    /// Validates ([`BddSnapshot::validate`]) and reassembles one
    /// persisted per-layer record; a legacy record's zones are re-sealed
    /// (see [`PersistedZone::reseal`]).
    fn from_persisted(persisted: PersistedMonitor) -> Result<Self, PersistError> {
        let legacy = match persisted.format {
            PERSIST_FORMAT => false,
            LEGACY_RECORD_FORMAT => true,
            _ => return Err(PersistError::Incompatible("unknown format version")),
        };
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
        let mut zones = Vec::with_capacity(persisted.zones.len());
        for z in persisted.zones {
            zones.push(match z {
                None => None,
                Some(z) if legacy => Some(Arc::new(z.reseal()?)),
                Some(z) => Some(Arc::new(z.into_frozen())),
            });
        }
        Ok(FrozenMonitor {
            layer: persisted.layer,
            gamma: persisted.gamma,
            selection: persisted.selection,
            zones,
            epoch: persisted.epoch,
        })
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
        self.zones.len()
    }

    /// The frozen zone of `class`, if monitored.
    pub fn zone(&self, class: usize) -> Option<&FrozenZone> {
        self.zones.get(class)?.as_deref()
    }

    /// Judges an already-extracted `(predicted, pattern)` pair, exactly
    /// like [`Monitor::check_pattern`] plus the distance column of
    /// [`Monitor`]'s reports.  Unmonitored and out-of-range classes
    /// report [`Verdict::Unmonitored`].
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

    /// Judges a batch of already-extracted `(predicted, pattern)` pairs —
    /// element `i` equals [`FrozenMonitor::report`] on pair `i`, but rows
    /// are grouped by predicted class so each zone judges all of its rows
    /// in one membership pass, which lets the compiled bit-sliced
    /// evaluator answer up to 64 rows per sweep of the node array.  This
    /// is the engine's micro-batch judging path.
    pub fn report_batch(&self, pairs: &[(usize, &Pattern)]) -> Vec<MonitorReport> {
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.zones.len()];
        let mut out: Vec<Option<MonitorReport>> = Vec::with_capacity(pairs.len());
        for (row, &(predicted, _)) in pairs.iter().enumerate() {
            if self.zone(predicted).is_some() {
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
    /// the per-class bounded distances feed the same shared
    /// ranking/triage implementation ([`naps_core::graded::grade`]), and
    /// the compiled bounded DP
    /// ([`CompiledZone::min_hamming_distance_within_words`]) agrees with
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
        // class's distance is split out of the ranking rather than
        // queried a second time.
        let mut distance_to_zone = None;
        let mut others: Vec<NearestZone> = Vec::new();
        for (class, zone) in self.zones.iter().enumerate() {
            let Some(distance) = zone
                .as_deref()
                .and_then(|z| z.distance_to_zone_within(pattern, query.budget))
            else {
                continue;
            };
            if class == predicted {
                distance_to_zone = Some(distance);
            } else {
                others.push(NearestZone { class, distance });
            }
        }
        grade(report, distance_to_zone, others, query)
    }

    /// Extracts `(predicted class, monitored pattern)` pairs for a batch
    /// with one shared forward pass per 64 inputs — the frozen counterpart of
    /// [`Monitor::observe_batch`] (both run
    /// [`observe_single_layer_batch`]), and the front half of
    /// [`FrozenMonitor::check_batch`].
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

    /// Batched judgement — the same chunked observation pass as
    /// [`Monitor`]'s
    /// [`check_batch`](naps_core::ActivationMonitor::check_batch)
    /// (`Sequential::observe_rows` → per-row verdicts), so verdicts are
    /// bit-identical to the live monitor's.
    ///
    /// # Panics
    ///
    /// Panics if `model` holds a layer from outside `naps-nn`
    /// ([`Sequential::observe_rows`]).
    pub fn check_batch(&self, model: &mut Sequential, inputs: &[Tensor]) -> Vec<MonitorReport> {
        let observed = self.observe_batch(model, inputs);
        let pairs: Vec<(usize, &Pattern)> = observed.iter().map(|(p, pat)| (*p, pat)).collect();
        self.report_batch(&pairs)
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

/// An immutable multi-layer monitor snapshot: one [`FrozenMonitor`] per
/// monitored layer plus the [`CombinePolicy`] that folds their verdicts
/// — the deployable form of [`naps_core::LayeredMonitor`], and the
/// **only** shape the serving engine ever holds.  A single-layer deployment is simply the `N = 1`
/// case ([`FrozenLayeredMonitor::from_single`]); there is no separate
/// single-layer serving path.
///
/// One batched forward pass observes every monitored layer: the
/// [`ObservationPlan`] retains exactly the monitored layers' activations,
/// so each additional layer costs zone lookups, never another forward
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

    /// Freezes every layer of a live [`LayeredMonitor`]
    /// ([`FrozenMonitor::freeze`], per layer).
    pub fn freeze(layered: &LayeredMonitor<BddZone>) -> Self {
        let monitors = layered
            .monitors()
            .iter()
            .map(FrozenMonitor::freeze)
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
    /// pattern per monitored layer — **one** forward pass per 64 inputs
    /// retaining only the planned layers' activations, the common
    /// front half of every layered check.
    ///
    /// # Panics
    ///
    /// Panics if `model` holds a layer from outside `naps-nn`
    /// ([`Sequential::observe_rows`]).
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
    /// [`FrozenLayeredMonitor::observe_batch`]: runs a model prepared
    /// once instead of per call and refills `observer`'s reused storage,
    /// returning the live rows.  The same rows as `observe_batch` — `model`
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

    /// Folds one row's per-layer reports into its joint verdict.
    fn verdict(&self, predicted: usize, per_layer: Vec<MonitorReport>) -> LayeredVerdict {
        let verdicts: Vec<Verdict> = per_layer.iter().map(|r| r.verdict).collect();
        LayeredVerdict {
            predicted,
            per_layer,
            combined: self.policy.combine(&verdicts),
        }
    }

    /// Judges already-extracted per-layer patterns (one per monitored
    /// layer, in layer order): each layer's zone reports, then the
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
        let per_layer = self
            .layers
            .iter()
            .zip(patterns)
            .map(|(m, pattern)| m.report(predicted, pattern))
            .collect();
        self.verdict(predicted, per_layer)
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
                let per_layer = layer_reports.iter().map(|lr| lr[r].clone()).collect();
                self.verdict(predicted, per_layer)
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
        let per_layer = graded.iter().map(|g| g.report.clone()).collect();
        (self.verdict(predicted, per_layer), graded)
    }

    /// Persists the whole family — every layer's class snapshots, each
    /// with its zone's variable order, plus the combine policy and epoch
    /// — as a versioned JSON container (format 2, its per-layer records
    /// format 3).  [`FrozenLayeredMonitor::load`] restores it.
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

    /// Restores a monitor saved by [`FrozenLayeredMonitor::save`] **or**
    /// a file written before zones carried their own variable order: a
    /// layered container whose records are format 1, or a pre-layered
    /// single-monitor file (format 1, one bare per-layer record) that
    /// loads as the `N = 1` case (policy `Any`).  Every zone snapshot of every layer is
    /// structurally validated before it is accepted: the serving hot
    /// path walks snapshots without bounds checks, so corrupt bytes must
    /// be rejected here, not discovered mid-query.  The zones of format-1
    /// records are re-sealed from their seed sets and re-dilated to γ, so
    /// such a file loads `==` to a fresh freeze of the same zones.
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
/// pre-layered bare [`PersistedMonitor`]; bump past 2 on breaking
/// container layout changes (the per-layer records carry their own tag).
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
        let frozen = FrozenMonitor::freeze(&monitor);
        assert_eq!(frozen.num_classes(), 5);
        for m in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let pat = Pattern::from_bools(&bits);
            for c in 0..5 {
                let rep = frozen.report(c, &pat);
                assert_eq!(
                    rep.verdict,
                    monitor.check_pattern(c, &pat),
                    "class {c} pattern {m:06b}"
                );
                let live_dist = monitor.zone(c).and_then(|z| z.distance_to_seeds(&pat));
                assert_eq!(rep.distance_to_seeds, live_dist);
                assert_eq!(rep.predicted, c);
            }
        }
    }

    #[test]
    fn frozen_graded_verdicts_match_live_monitor() {
        use naps_core::GradedQuery;
        let monitor = sample_monitor(5);
        let frozen = FrozenMonitor::freeze(&monitor);
        for budget in 0..4u32 {
            let query = GradedQuery::new(budget, 3);
            for m in 0..64u32 {
                let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
                let pat = Pattern::from_bools(&bits);
                for c in 0..5 {
                    assert_eq!(
                        frozen.check_graded_pattern(c, &pat, query),
                        monitor.check_graded_pattern(c, &pat, query),
                        "class {c} pattern {m:06b} budget {budget}"
                    );
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
    fn unmonitored_class_reports_unmonitored() {
        let frozen = FrozenMonitor::freeze(&sample_monitor(4));
        let rep = frozen.report(2, &p(&[0, 0, 0, 0, 0, 0]));
        assert_eq!(rep.verdict, Verdict::Unmonitored);
        assert_eq!(rep.distance_to_seeds, None);
        // Out-of-range predictions degrade to Unmonitored too.
        let rep = frozen.report(99, &p(&[0, 0, 0, 0, 0, 0]));
        assert_eq!(rep.verdict, Verdict::Unmonitored);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("naps_serve_persist_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn save_load_roundtrips_snapshot_for_snapshot() {
        let frozen =
            FrozenLayeredMonitor::from(FrozenMonitor::freeze(&sample_monitor(5))).with_epoch(42);
        let path = temp_path("roundtrip.json");
        frozen.save(&path).expect("save");
        let restored = FrozenLayeredMonitor::load(&path).expect("load");
        // Structural equality: every zone, every node array.
        assert_eq!(restored, frozen);
        assert_eq!(restored.epoch(), 42);
        // And behavioural equality on the full query space.
        for m in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let pat = [Pattern::from_bools(&bits)];
            for c in 0..5 {
                assert_eq!(restored.report(c, &pat), frozen.report(c, &pat));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zone_orders_persist_and_legacy_records_reseal() {
        let mut monitor = sample_monitor(5);
        // Enriched after sealing: the new seeds join class 0's diagram in
        // the order already fixed, which a fresh seal would not pick.
        let fresh_seeds = [p(&[1, 1, 1, 1, 1, 1]), p(&[0, 1, 0, 1, 1, 1])];
        assert_eq!(monitor.enrich(0, &fresh_seeds).expect("monitored"), 2);
        let frozen = FrozenLayeredMonitor::from(FrozenMonitor::freeze(&monitor));
        let path = temp_path("orders.json");
        frozen.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"format\":3"), "{text}");
        assert_eq!(FrozenLayeredMonitor::load(&path).expect("load"), frozen);

        // The same bytes tagged as a legacy record: every zone is
        // re-sealed from its seeds, so it equals a fresh freeze of zones
        // built from those seeds alone.
        std::fs::write(&path, text.replace("\"format\":3", "\"format\":1")).expect("write");
        let legacy = FrozenLayeredMonitor::load(&path).expect("legacy load");
        let rebuilt: Vec<Option<BddZone>> = (0..5)
            .map(|c| {
                monitor.zone(c).map(|z| {
                    let (snap, gamma) = z.snapshot();
                    let mut fresh = BddZone::empty(6);
                    let keys = snap.minterms(64).expect("small");
                    for key in keys {
                        let bits: Vec<bool> = (0..6).map(|i| (key >> i) & 1 == 1).collect();
                        fresh.insert(&Pattern::from_bools(&bits));
                    }
                    fresh.enlarge_to(gamma);
                    fresh
                })
            })
            .collect();
        let expected =
            FrozenMonitor::freeze(&Monitor::from_zones(rebuilt, 1, NeuronSelection::all(6), 1));
        assert_eq!(legacy, FrozenLayeredMonitor::from(expected));
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
        assert_send_sync::<FrozenMonitor>();
        assert_send_sync::<FrozenLayeredMonitor>();
    }
}
