//! `POST /ingest`: a batch of delta ops extends the live delta, or folds
//! it into a fresh base once it is large enough.

use super::{EpochState, Shared};
use crate::http::Request;
use crate::journal;
use soi_common::{Result, SoiError};
use soi_core::describe::StreetContexts;
use soi_data::Dataset;
use soi_index::{DeltaIndex, DeltaOp, IndexBundle};
use soi_obs::json::JsonWriter;
use soi_obs::log::{self, Value};
use std::path::PathBuf;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

/// `POST /ingest`: a JSON-lines body of delta ops, accepted or rejected
/// as one atomic batch.
///
/// Writers serialise on `ingest_lock`; readers never block — the new
/// epoch is published with an `Arc` swap and in-flight queries keep the
/// epoch they pinned. Each accepted batch extends the live
/// [`DeltaIndex`] ([`DeltaIndex::extend`], which costs what the batch
/// touches) and carries every street context the batch cannot reach into
/// the new epoch; once the pending ops reach `epoch_max_delta`, the delta
/// is folded into a new base (equivalent to a full rebuild over the merged
/// data, with an empty context table) and the folded bundle is filed in
/// the index cache when one is configured.
///
/// Returns `(response body, ring params digest, epoch id)`.
pub(super) fn ingest_post(
    shared: &Shared<'_>,
    request: &Request,
    request_id: u64,
) -> Result<(String, String, u64)> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| SoiError::invalid("ingest body must be UTF-8 JSON lines"))?;
    let mut guard = shared
        .ingest_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let state = shared.epochs.pin();

    // Parse every line against the (static) vocabulary; one bad line
    // rejects the whole batch with nothing applied.
    let mut new_ops = Vec::new();
    let mut new_lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let op = DeltaOp::parse_line(line, &state.dataset.vocab)
            .map_err(|e| SoiError::invalid(format!("ingest line {}: {e}", i + 1)))?;
        new_ops.push(op);
        new_lines.push(line);
    }
    if new_ops.is_empty() {
        return Err(SoiError::invalid("ingest body contains no ops"));
    }
    let accepted = new_ops.len();

    // Extend the live delta by the batch (or seal it, when none is live).
    // Sealing validates the batch atomically against the cumulative id
    // space and delete sets (unknown ids, double deletes, out-of-extent
    // adds), so a rejected batch leaves the serving state untouched.
    let (pois, photos) = (&state.dataset.pois, &state.dataset.photos);
    let delta = match &state.delta {
        Some(prev) => prev.extend(&state.index, pois, photos, &new_ops)?,
        None => DeltaIndex::seal(&state.index, pois, photos, &new_ops)?,
    };

    // Durability before visibility: the accepted lines hit the journal
    // before the epoch swap, so a crash can lose an un-acked batch but
    // never serve ops a restart would not replay. A batch that folds
    // journals its fold point in the same write.
    let pending = delta.num_ops();
    let fold_due = shared.config.epoch_max_delta > 0 && pending >= shared.config.epoch_max_delta;
    if let Some(path) = &shared.config.ingest_log {
        let folded_ops = fold_due.then(|| state.applied_ops + pending as u64);
        journal::append(path, &new_lines, folded_ops)?;
    }
    let (next, folded) = if fold_due {
        (fold_epoch(shared, &state, &delta, &mut guard)?, true)
    } else {
        // A context no op of the batch can reach is the one the new epoch
        // would build: carry it instead of rebuilding it on next touch.
        let builder = state.context_builder(shared.config);
        let points = builder.batch_points(&new_ops, &delta);
        let contexts = state
            .contexts
            .carried(|street| !builder.reaches(street, &points));
        let next = EpochState {
            epoch: state.epoch + 1,
            dataset: Arc::clone(&state.dataset),
            index: Arc::clone(&state.index),
            photo_grid: Arc::clone(&state.photo_grid),
            delta: Some(Arc::new(delta)),
            applied_ops: state.applied_ops,
            folds: state.folds,
            contexts,
        };
        (next, false)
    };

    let metrics = crate::obs::serve_metrics();
    metrics.ingest_batches.inc();
    metrics.ingest_ops.add(accepted as u64);
    if folded {
        metrics.ingest_folds.inc();
    }
    metrics.ingest_epoch.set(next.epoch as f64);
    metrics.ingest_pending.set(next.pending() as f64);

    let mut obj = JsonWriter::object();
    obj.field_u64("request_id", request_id);
    obj.field_u64("accepted", accepted as u64);
    obj.field_u64("epoch", next.epoch);
    obj.field_u64("pending_ops", next.pending() as u64);
    obj.field_u64("applied_ops", next.applied_ops);
    obj.field_bool("folded", folded);
    let epoch = next.epoch;
    let digest = format!("ops={accepted} folded={folded}");
    shared.epochs.swap(Arc::new(next));
    drop(state);
    drop(guard);
    Ok((obj.finish(), digest, epoch))
}

/// Compacts the pending delta into a fresh base epoch: fold the
/// collections and rebuild the indexes with the boot parameters (the result
/// is bit-identical to a cold build over the merged data). With a fold
/// cache the new bundle is filed under the folded data's own key and the
/// fold snapshot it supersedes, `fold_snapshot`, is deleted.
fn fold_epoch(
    shared: &Shared<'_>,
    state: &EpochState,
    delta: &DeltaIndex,
    fold_snapshot: &mut Option<PathBuf>,
) -> Result<EpochState> {
    let fold_started = Instant::now();
    let (pois, photos) = delta.apply_to(&state.dataset.pois, &state.dataset.photos);
    let dataset = Dataset::new(
        state.dataset.name.clone(),
        state.dataset.network.clone(),
        state.dataset.vocab.clone(),
        pois,
        photos,
    );
    let bundle = soi_index::build_bundle(&dataset, &shared.params);
    let applied_ops = state.applied_ops + delta.num_ops() as u64;
    if let Some(cache) = &shared.fold_cache {
        match cache.store(&dataset, &bundle, &shared.params) {
            Ok(path) => {
                let superseded = fold_snapshot.replace(path.clone());
                if let Some(old) = superseded.filter(|old| *old != path) {
                    let _ = std::fs::remove_file(old);
                }
            }
            // The journal holds the fold point, so a failed write costs a
            // restart a rebuild, never exactness; the fold stands in memory.
            Err(e) => log::event(
                "serve.ingest_snapshot_failed",
                "fold snapshot write failed; a restart rebuilds the folded bundle",
                &[
                    ("dir", Value::Str(&cache.dir().display().to_string())),
                    ("error", Value::Str(&e.to_string())),
                ],
            ),
        }
    }
    log::event(
        "serve.epoch_fold",
        "pending delta folded into a fresh base",
        &[
            ("epoch", Value::U64(state.epoch + 1)),
            ("ops", Value::U64(delta.num_ops() as u64)),
            ("applied_ops", Value::U64(applied_ops)),
            ("ms", Value::F64(fold_started.elapsed().as_secs_f64() * 1e3)),
        ],
    );
    let IndexBundle {
        poi, photo_grid, ..
    } = bundle;
    Ok(EpochState {
        epoch: state.epoch + 1,
        dataset: Arc::new(dataset),
        index: Arc::new(poi),
        photo_grid: Arc::new(photo_grid),
        delta: None,
        applied_ops,
        folds: state.folds + 1,
        contexts: StreetContexts::new(state.dataset.network.num_streets()),
    })
}
