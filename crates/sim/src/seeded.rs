//! Seeded historical bugs, compiled only under `cfg(naps_sim)`.
//!
//! Each fixture reintroduces a race this repository actually shipped
//! and later fixed, by flipping the corresponding protocol switch in
//! [`crate::models`] back to the broken behaviour.  The checker must
//! find both; the CI `sim` job fails if either goes unseen, and
//! `results/sim.json` records the catching schedule ids.

/// PR 4's drift-epoch stamping race: drift evidence is folded without
/// checking that the batch was judged under the epoch the detectors
/// are armed for.  A publish landing between a worker's epoch probe
/// and its fold stamps fresh detectors with stale evidence.
pub fn drift_epoch_race() {
    crate::models::epoch_stamping(false);
}

/// PR 7's worker-loss ticket hang: a dying worker neither fails the
/// engine nor drains orphaned requests nor wakes its siblings, so once
/// both workers have died the tickets still queued never resolve and
/// submitters hang — the checker reports the stuck schedule as a
/// deadlock.
pub fn worker_loss_ticket_hang() {
    crate::models::worker_drain(false);
}

/// Both seeded bugs, keyed by the names used in `results/sim.json`
/// and `NAPS_SIM_MODEL`.
pub fn seeded_bugs() -> Vec<(&'static str, fn())> {
    vec![
        ("drift_epoch_race", drift_epoch_race as fn()),
        ("worker_loss_ticket_hang", worker_loss_ticket_hang as fn()),
    ]
}
