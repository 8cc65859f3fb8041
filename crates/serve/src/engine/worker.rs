//! The engine worker: the per-thread serving loop and the drop guard
//! that keeps the "no hung ticket" invariant.
//!
//! This file is the steady-state request path — everything that runs per
//! micro-batch between intake and completion — split out of `engine.rs`
//! so the analyzer can hold it to the hot-path discipline: it is
//! deny-listed under both `panic_freedom` (a request must never take a
//! worker down) and `hot_path_alloc` (steady-state observation must not
//! touch the allocator; the per-batch envelope below carries explicit
//! waivers).  The cold half — construction, publish, shutdown — stays in
//! `engine.rs`.

use super::{next_batch, LayeredEpochReport, Shared};
use crate::frozen::{FrozenLayeredMonitor, LayeredVerdict};
use naps_core::prepared::PreparedObserver;
use naps_core::Pattern;
use naps_nn::PreparedModel;
use naps_sync::atomic::Ordering;
use naps_sync::Arc;

/// Runs when a worker thread exits — normally (orderly shutdown with an
/// empty queue) or by unwinding out of a panic.  Its job is the "no
/// hung ticket" invariant:
///
/// * A **panicking** worker may leave queued requests behind that only
///   *it* was notified about; siblings are re-woken so they re-check the
///   queue and serve them.
/// * The **last** worker to exit takes the queue with it: nothing can
///   ever pop it again, so any still-queued request is drained and
///   dropped — dropping a [`Request`] drops its completion callback,
///   which disconnects the ticket channel and resolves the ticket with
///   [`SubmitError::WorkerLost`] instead of leaving it hanging.  If the
///   exit was a panic (not an orderly drain), the engine is also marked
///   failed so subsequent submissions get the same typed error.
///
/// [`SubmitError::WorkerLost`]: super::SubmitError::WorkerLost
pub(super) struct WorkerGuard {
    pub(super) shared: Arc<Shared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let panicked = naps_sync::thread::panicking();
        // ordering: acqrel — the last decrement must observe every
        // earlier worker's effects before declaring the engine dead, and
        // release this worker's own writes to whoever reads `alive`.
        let last = self.shared.alive.fetch_sub(1, Ordering::AcqRel) == 1;
        if !panicked && !last {
            return;
        }
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if panicked && last {
            // A surviving sibling keeps a degraded engine serving; with
            // none left the engine is failed, not merely degraded.
            state.failed = true;
            state.shutdown = true;
        }
        let orphans = last.then(|| std::mem::take(&mut state.queue));
        drop(state);
        // Siblings blocked in `next_batch` re-check the queue (a panic
        // can eat a submission's one `notify_one`); blocked submitters
        // re-check the shutdown/failed flags.
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        drop(orphans);
    }
}

/// Serves micro-batches until shutdown.  `model` is the worker's
/// prepared replica — weights packed once at construction — and the
/// worker owns a [`PreparedObserver`] whose batch/carry/pattern storage
/// is reused across micro-batches: zero heap allocation per observation
/// after warm-up.
pub(super) fn worker_loop(shared: &Shared, model: PreparedModel) {
    let mut observer = PreparedObserver::new();
    // Each worker serves from its own Arc onto the published snapshot and
    // re-reads the publish slot only at micro-batch boundaries where the
    // epoch atomic says a newer snapshot exists: a batch is judged wholly
    // by one snapshot, and the hot path takes no lock in steady state.
    let mut monitor: Arc<FrozenLayeredMonitor> =
        Arc::clone(&shared.published.lock().unwrap_or_else(|e| e.into_inner()));
    let mut epoch = monitor.epoch();
    while let Some(batch) = next_batch(shared) {
        // ordering: acquire — pairs with publish's Release store; a moved
        // epoch guarantees the slot re-read below sees the new snapshot.
        if shared.epoch.load(Ordering::Acquire) != epoch {
            // Publish validates plan/selection/class compatibility, so
            // the prepared model (pre-packed against the construction
            // plan) stays valid — only the judging zones change.
            monitor = Arc::clone(&shared.published.lock().unwrap_or_else(|e| e.into_inner()));
            epoch = monitor.epoch();
        }
        // Per-batch envelope: intake and completion bookkeeping sized to
        // the micro-batch.  This is outside the zero-allocation guarantee
        // (which covers the observation below); `with_capacity`/`collect`
        // here are one allocation per *batch*, not per request element.
        let mut inputs = Vec::with_capacity(batch.len());
        let mut metas = Vec::with_capacity(batch.len());
        for r in batch {
            inputs.push(r.input);
            metas.push((r.graded, r.complete));
        }
        // One plan-observed forward pass for the micro-batch — only the
        // monitored layers' activations are retained.  Binary rows are
        // then judged as one batch (`report_batch` groups rows by
        // predicted class so the compiled bit-sliced evaluators answer
        // whole groups per pass); graded rows keep their per-row ranking
        // query (one computation — each graded report embeds its binary
        // one).  Mixed batches are fine; the snapshot is the same either
        // way, and completions stay in submission order.
        // Packed weights and worker-owned scratch: zero allocations
        // after warm-up (the `forward` eval gates this at exactly zero).
        let observed = monitor.observe_batch_prepared(&model, &mut observer, &inputs);
        shared
            .processed
            // ordering: relaxed — monotone stat counter
            .fetch_add(observed.len() as u64, Ordering::Relaxed);
        let binary_rows: Vec<(usize, &[Pattern])> = metas
            .iter()
            .zip(observed)
            .filter(|((query, _), _)| query.is_none())
            .map(|(_, (predicted, patterns))| (*predicted, patterns.as_slice()))
            .collect();
        let mut binary_verdicts = monitor.report_batch(&binary_rows).into_iter();
        let mut results = Vec::with_capacity(observed.len());
        for ((query, complete), (predicted, patterns)) in metas.into_iter().zip(observed) {
            let (verdict, graded) = match query {
                None => (
                    binary_verdicts
                        .next()
                        // naps-lint: allow(panic_freedom, typed_errors, "report_batch returns exactly one verdict per binary row collected six lines up in this same function; unreachable from any input")
                        .expect("one batched verdict per binary row"),
                    None,
                ),
                Some(q) => {
                    let (verdict, graded) = monitor.check_graded_pattern(*predicted, patterns, q);
                    (verdict, Some(graded))
                }
            };
            results.push((complete, verdict, graded));
        }
        // Fold the batch's verdicts into the drift detectors (when
        // armed) before answering: one short lock per micro-batch, off
        // the per-request path.  A batch judged under a different epoch
        // than the detectors are armed for is skipped wholesale — a
        // publish racing this batch must not contaminate the freshly
        // re-armed detectors with old-zone evidence (nor stamp them
        // with the old epoch).
        {
            let mut drift = shared.drift.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(state) = drift.as_mut() {
                if state.epoch == epoch {
                    for (_, verdict, _) in &results {
                        state.observe(verdict);
                    }
                }
            }
        }
        for (complete, verdict, graded) in results {
            let LayeredVerdict {
                predicted,
                per_layer,
                combined,
            } = verdict;
            complete(LayeredEpochReport {
                epoch,
                predicted,
                per_layer,
                combined,
                graded,
            });
        }
    }
}
