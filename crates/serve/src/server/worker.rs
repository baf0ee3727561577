//! The engine workers: each claims one admitted job at a time, runs it
//! against the epoch it pins, and renders the response body.

use super::routes::{error_body, error_tuple};
use super::{Counters, Shared};
use crate::queue::{AdmissionQueue, Job, JobKind, SlotMeta};
use soi_core::describe::DescribeOutcome;
use soi_core::soi::SoiOutcome;
use soi_data::Dataset;
use soi_engine::{EngineWorker, JobRun, QueryCapture, QueryContext};
use soi_obs::json::JsonWriter;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One engine worker: alive from boot to drain, it claims one admitted job
/// at a time and hands it to `run` ([`run_job`]; passed in so the panic
/// path can be driven without a server) with scratch space it keeps for
/// the whole run.
///
/// A panic inside `run` is isolated to its job: that job is answered 500,
/// the panic is counted, the scratch (which may hold the interrupted job's
/// state) is replaced, and the worker goes on to the next job.
pub(super) fn engine_worker_loop(
    queue: &AdmissionQueue,
    counters: &Counters,
    mut run: impl FnMut(&mut EngineWorker, Job, Duration),
) {
    let mut worker = EngineWorker::default();
    while let Some(job) = queue.pop() {
        // Roots the job's spans on this thread: one engine.worker slice per
        // job in a Chrome trace.
        let _span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_WORKER);
        let slot = Arc::clone(&job.slot);
        let queue_wait = job.enqueued.elapsed();
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run(&mut worker, job, queue_wait)));
        if outcome.is_err() {
            crate::obs::serve_metrics().panics.inc();
            counters.panics.fetch_add(1, Ordering::Relaxed);
            slot.put_with_meta(
                500,
                error_body("query worker panicked", "io"),
                SlotMeta {
                    queue: queue_wait,
                    error: true,
                    ..SlotMeta::default()
                },
            );
            worker = EngineWorker::default();
        }
    }
}

/// Runs one claimed job against the epoch current at claim time and
/// publishes its response.
pub(super) fn run_job(
    shared: &Shared<'_>,
    worker: &mut EngineWorker,
    job: Job,
    queue_wait: Duration,
) {
    let capture = QueryCapture {
        request_id: job.request_id,
        trace: job.trace,
        explain: job.explain,
    };
    // Pinned for the whole job: it sees one coherent base+delta state, and
    // an ingest swap landing mid-run only affects jobs claimed later.
    let state = shared.epochs.pin();
    let (status, body, mut meta) = match &job.kind {
        JobKind::Soi(query) => {
            let ctx = QueryContext::with_delta(
                &state.dataset.network,
                &state.dataset.pois,
                &state.index,
                state.delta.as_deref(),
                state.epoch,
            );
            let run = worker.run_soi(&ctx, query, job.budget, capture);
            job_response(shared, run, |outcome: &SoiOutcome| {
                (
                    outcome.partial,
                    outcome.stats.accesses as u64,
                    soi_outcome_body(&state.dataset, outcome),
                )
            })
        }
        JobKind::Describe { street, params } => {
            let builder = state.context_builder(shared.config);
            let delta = state.delta.as_deref();
            // Resolved inside the engine job: a first touch's build is this
            // job's time and, if it fails, this job's error.
            let context = || {
                let (ctx, built) = state.contexts.get_or_build(&builder, *street, delta)?;
                let metrics = crate::obs::serve_metrics();
                match built {
                    true => metrics.describe_contexts_built.inc(),
                    false => metrics.describe_contexts_reused.inc(),
                }
                Ok((ctx, built))
            };
            let photos = builder.photo_view(delta);
            let run = worker.run_describe(context, photos, params, job.budget, capture);
            job_response(shared, run, |outcome: &DescribeOutcome| {
                (outcome.partial, 0, describe_outcome_body(outcome))
            })
        }
    };
    meta.queue = queue_wait;
    meta.epoch = state.epoch;
    job.slot.put_with_meta(status, body, meta);
}

/// Turns a finished engine job into `(status, body, meta)`: `render` gives
/// a successful outcome's `(partial, accesses, body)`.
fn job_response<T>(
    shared: &Shared<'_>,
    run: JobRun<T>,
    render: impl FnOnce(&T) -> (bool, u64, String),
) -> (u16, String, SlotMeta) {
    let mut meta = SlotMeta {
        exec: run.latency,
        ..SlotMeta::default()
    };
    if let Some(artifacts) = run.artifacts {
        meta.trace_json = artifacts.trace_json;
        meta.explain_json = artifacts.explain_json;
    }
    match run.result {
        Ok(outcome) => {
            let (partial, accesses, body) = render(&outcome);
            if partial {
                crate::obs::serve_metrics().deadline_expired.inc();
                shared.counters.partials.fetch_add(1, Ordering::Relaxed);
            }
            meta.partial = partial;
            meta.accesses = accesses;
            (200, body, meta)
        }
        Err(e) => {
            let (status, _, _, body) = error_tuple(&e);
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            meta.error = true;
            (status, body, meta)
        }
    }
}

/// Renders a describe outcome as the `/describe` response body.
fn describe_outcome_body(outcome: &DescribeOutcome) -> String {
    let mut obj = JsonWriter::object();
    obj.field_bool("partial", outcome.partial);
    obj.field_f64("objective", outcome.objective);
    let mut selected = JsonWriter::array();
    for pid in &outcome.selected {
        selected.elem_f64(f64::from(pid.raw()));
    }
    obj.field_raw("selected", &selected.finish());
    obj.finish()
}

/// Renders a k-SOI outcome as the `/soi` response body.
fn soi_outcome_body(dataset: &Dataset, outcome: &SoiOutcome) -> String {
    let mut obj = JsonWriter::object();
    obj.field_bool("partial", outcome.partial);
    obj.field_f64("lbk", outcome.stats.termination_lb);
    obj.field_u64("accesses", outcome.stats.accesses as u64);
    let mut results = JsonWriter::array();
    for r in &outcome.results {
        let mut entry = JsonWriter::object();
        entry.field_u64("street", u64::from(r.street.raw()));
        entry.field_str("name", &dataset.network.street(r.street).name);
        entry.field_f64("interest", r.interest);
        entry.field_u64("best_segment", u64::from(r.best_segment.raw()));
        entry.field_f64("mass", r.best_segment_mass);
        results.elem_raw(&entry.finish());
    }
    obj.field_raw("results", &results.finish());
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::test_job;

    /// Regression: an engine-side panic used to kill the only dispatcher,
    /// after which every later request waited out `deadline + 30 s`. A
    /// panicking job must be answered, counted, and leave its worker
    /// serving the next job.
    #[test]
    fn a_panicking_job_is_answered_and_its_worker_serves_the_next_one() {
        let queue = AdmissionQueue::new(4);
        let counters = Counters::default();
        let (poisoned, healthy) = (test_job(1), test_job(2));
        let (poisoned_slot, healthy_slot) = (Arc::clone(&poisoned.slot), Arc::clone(&healthy.slot));
        assert!(queue.try_push(poisoned).is_ok());
        assert!(queue.try_push(healthy).is_ok());
        queue.close();
        // One worker thread claims both jobs, in admission order.
        let worker_thread = std::thread::current().id();
        engine_worker_loop(&queue, &counters, |_worker, job, _queue_wait| {
            assert_eq!(std::thread::current().id(), worker_thread);
            if job.request_id == 1 {
                panic!("injected engine fault");
            }
            job.slot.put(200, "{}".to_string());
        });
        let (status, body, meta) = poisoned_slot
            .wait(Duration::ZERO)
            .expect("the panicking job is answered");
        assert_eq!(status, 500);
        assert!(body.contains("query worker panicked"), "body: {body}");
        assert!(meta.error);
        let (status, _, _) = healthy_slot
            .wait(Duration::ZERO)
            .expect("the next job on the same worker is answered");
        assert_eq!(status, 200);
        assert_eq!(counters.panics.load(Ordering::Relaxed), 1);
        assert!(queue.is_drained());
    }
}
