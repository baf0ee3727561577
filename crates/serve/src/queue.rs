//! The server's one bounded queue, its jobs, and per-request result slots.
//!
//! Admission control is the server's overload valve: IO workers
//! [`try_push`](BoundedQueue::try_push) parsed query jobs, and when the
//! queue is at capacity the push fails immediately — the worker answers
//! 503 and moves on, spending microseconds on the request instead of
//! queueing unbounded work. Each engine worker `pop`s
//! one job at a time, executes it under its deadline, and publishes the
//! response through the job's [`Slot`]. The accept loop hands connections
//! to the IO workers through the same queue type.

use soi_common::StreetId;
use soi_core::describe::DescribeParams;
use soi_core::soi::SoiQuery;
use soi_core::QueryBudget;
use soi_obs::metrics::Gauge;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning: a panicking worker (already
/// counted by the panic guard) must not wedge every other thread that
/// shares the queue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Execution metadata an engine worker publishes alongside a response —
/// the per-request record the IO worker folds into the recent-requests
/// ring (queue/exec split, outcome flags, work counters, captured
/// artifacts). Every field describes this one job.
#[derive(Debug, Default, Clone)]
pub struct SlotMeta {
    /// Time the job sat in the admission queue before a worker claimed it.
    pub(crate) queue: Duration,
    /// Time executing on the worker: the algorithm call, plus the street
    /// context build for `/describe`.
    pub(crate) exec: Duration,
    /// The deadline expired and the response is partial.
    pub(crate) partial: bool,
    /// The response is an error body.
    pub(crate) error: bool,
    /// Source-list accesses performed (k-SOI work counter).
    pub(crate) accesses: u64,
    /// The serving epoch the job pinned.
    pub(crate) epoch: u64,
    /// Chrome-trace JSON captured for this request, when asked for.
    pub(crate) trace_json: Option<String>,
    /// Explain JSON captured for this request, when asked for.
    pub(crate) explain_json: Option<String>,
}

/// A single-use rendezvous for one request's response: the IO worker waits
/// on it while an engine worker computes and [`put`](Slot::put)s the
/// `(status, body)` pair plus its [`SlotMeta`].
#[derive(Debug, Default)]
pub struct Slot {
    state: Mutex<Option<(u16, String, SlotMeta)>>,
    cv: Condvar,
}

impl Slot {
    /// Publishes the response and wakes the waiting worker.
    pub fn put(&self, status: u16, body: String) {
        self.put_with_meta(status, body, SlotMeta::default());
    }

    /// [`put`](Slot::put) with execution metadata for the request ring.
    pub(crate) fn put_with_meta(&self, status: u16, body: String, meta: SlotMeta) {
        *lock(&self.state) = Some((status, body, meta));
        self.cv.notify_all();
    }

    /// Waits up to `timeout` for the response; `None` on timeout (the
    /// backstop — a worker always answers a deadline-bounded job).
    pub fn wait(&self, timeout: Duration) -> Option<(u16, String, SlotMeta)> {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        loop {
            if let Some(response) = state.take() {
                return Some(response);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, wait) = self
                .cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if wait.timed_out() && state.is_none() {
                return None;
            }
        }
    }
}

/// The work item of one accepted query request.
#[derive(Debug)]
pub enum JobKind {
    /// A k-SOI identification query.
    Soi(SoiQuery),
    /// A photo-summary description query for one street.
    Describe {
        /// The street to describe.
        street: StreetId,
        /// Selection parameters.
        params: DescribeParams,
    },
}

/// One admitted request: the query, its deadline, and the response slot.
#[derive(Debug)]
pub struct Job {
    /// What to run.
    pub kind: JobKind,
    /// Per-request deadline threaded into the algorithms.
    pub budget: QueryBudget,
    /// Where the worker that runs the job publishes the response.
    pub slot: Arc<Slot>,
    /// When the job was admitted (for queue-wait accounting).
    pub enqueued: Instant,
    /// The request id assigned at admission (stamped into trace events).
    pub request_id: u64,
    /// Capture a request-scoped trace while the job runs.
    pub trace: bool,
    /// Run the job with an explain collector.
    pub explain: bool,
}

/// A bounded FIFO between threads that must not block and threads that
/// wait: [`try_push`](Self::try_push) hands the item back at once when the
/// queue is full or closed (the caller sheds it), `pop` blocks
/// until an item arrives, and after [`close`](Self::close) the queued items
/// still drain before `pop` returns `None`. The server runs both of its
/// pools on it: accepted connections to the IO workers, and admitted jobs
/// ([`AdmissionQueue`]) to the engine workers.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
    capacity: usize,
    /// Set to the depth on every change, under the lock, so it is exact.
    depth_gauge: Option<&'static Gauge>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded, condvar-signalled admission queue of query jobs.
pub type AdmissionQueue = BoundedQueue<Job>;

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` (at least 1) items.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
            depth_gauge: None,
        }
    }

    /// Reports the depth to `gauge` on every push and pop.
    pub(crate) fn with_depth_gauge(mut self, gauge: &'static Gauge) -> Self {
        self.depth_gauge = Some(gauge);
        self
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (queued items).
    pub(crate) fn depth(&self) -> usize {
        lock(&self.state).items.len()
    }

    fn publish_depth(&self, state: &QueueState<T>) {
        if let Some(gauge) = self.depth_gauge {
            gauge.set(state.items.len() as f64);
        }
    }

    /// Queues `item`, or returns it back when the queue is full or closed —
    /// the caller sheds it immediately.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.publish_depth(&state);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Takes the oldest item, blocking until one is queued. `None` once the
    /// queue is closed and drained — the worker's signal to exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.publish_depth(&state);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pops up to `max` items, waiting up to `timeout` for the first one.
    /// Returns an empty batch on timeout or when closed and drained. The
    /// server's workers `pop` one item at a time; this form
    /// serves callers that drain in bulk (the benchmark's hand-off probe).
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<T> {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        while state.items.is_empty() && !state.closed {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Vec::new();
            };
            let (next, wait) = self
                .cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if wait.timed_out() && state.items.is_empty() {
                return Vec::new();
            }
        }
        let take = state.items.len().min(max.max(1));
        let batch: Vec<T> = state.items.drain(..take).collect();
        self.publish_depth(&state);
        batch
    }

    /// Closes the queue: no further pushes; the workers drain what remains
    /// and then see `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    /// True once closed with nothing left to drain.
    pub fn is_drained(&self) -> bool {
        let state = lock(&self.state);
        state.closed && state.items.is_empty()
    }
}

/// A minimal job for this crate's unit tests.
#[cfg(test)]
pub(crate) fn test_job(request_id: u64) -> Job {
    Job {
        kind: JobKind::Soi(SoiQuery::new(soi_text::KeywordSet::empty(), 1, 0.5).expect("valid")),
        budget: QueryBudget::unlimited(),
        slot: Arc::new(Slot::default()),
        enqueued: Instant::now(),
        request_id,
        trace: false,
        explain: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_when_full() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(test_job(0)).is_ok());
        assert!(q.try_push(test_job(0)).is_ok());
        assert!(q.try_push(test_job(0)).is_err(), "third push must shed");
        assert_eq!(q.depth(), 2);
        let batch = q.pop_batch(8, Duration::from_millis(10));
        assert_eq!(batch.len(), 2);
        assert!(q.try_push(test_job(0)).is_ok(), "space freed after drain");
    }

    #[test]
    fn close_rejects_and_drains() {
        let q = AdmissionQueue::new(4);
        assert!(q.try_push(test_job(0)).is_ok());
        q.close();
        assert!(
            q.try_push(test_job(0)).is_err(),
            "closed queue admits nothing"
        );
        assert!(!q.is_drained());
        let batch = q.pop_batch(8, Duration::from_millis(10));
        assert_eq!(batch.len(), 1);
        assert!(q.is_drained());
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn pop_claims_in_admission_order_and_ends_when_closed() {
        let q = AdmissionQueue::new(4);
        for id in 1..=3 {
            assert!(q.try_push(test_job(id)).is_ok());
        }
        assert_eq!(q.pop().map(|j| j.request_id), Some(1));
        // A waiting worker is woken by an admission and by the close.
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut claimed = Vec::new();
                while let Some(job) = q.pop() {
                    claimed.push(job.request_id);
                }
                claimed
            });
            assert!(q.try_push(test_job(4)).is_ok());
            q.close();
            assert_eq!(worker.join().expect("worker"), vec![2, 3, 4]);
        });
        assert!(q.is_drained());
    }

    /// The semantics the IO pool relies on, over an item that is not a
    /// job: a full queue hands the push back; after `close` pushes are
    /// handed back but queued items still drain, in order; then `pop`
    /// returns `None`.
    #[test]
    fn a_closed_queue_rejects_pushes_and_drains_what_it_holds() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push("a"), Ok(()));
        assert_eq!(q.try_push("b"), Ok(()));
        assert_eq!(q.try_push("c"), Err("c"), "a full queue rejects");
        q.close();
        assert_eq!(q.try_push("d"), Err("d"), "a closed queue rejects");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert!(q.is_drained());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_roundtrip_and_timeout() {
        let slot = Arc::new(Slot::default());
        assert!(slot.wait(Duration::from_millis(5)).is_none());
        slot.put(200, "ok".to_string());
        let (status, body, meta) = slot.wait(Duration::from_millis(5)).expect("published");
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert!(!meta.partial && meta.trace_json.is_none());
    }

    #[test]
    fn slot_meta_roundtrip() {
        let slot = Slot::default();
        slot.put_with_meta(
            200,
            "{}".to_string(),
            SlotMeta {
                queue: Duration::from_millis(3),
                exec: Duration::from_millis(7),
                partial: true,
                accesses: 42,
                trace_json: Some("{\"traceEvents\":[]}".to_string()),
                ..SlotMeta::default()
            },
        );
        let (_, _, meta) = slot.wait(Duration::from_millis(5)).expect("published");
        assert_eq!(meta.exec, Duration::from_millis(7));
        assert!(meta.partial);
        assert_eq!(meta.accesses, 42);
        assert!(meta.trace_json.is_some());
    }
}
