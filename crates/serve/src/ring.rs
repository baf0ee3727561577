//! The recent-requests ring: a lock-light bounded buffer of per-request
//! records powering `GET /debug/requests`, `GET /debug/requests/<id>`,
//! and the slow-query log.
//!
//! Each completed request (including sheds and errors — anything that
//! parsed far enough to get an id) pushes one [`RequestRecord`]. The ring
//! holds the most recent `capacity` records; each slot is an independent
//! `Mutex<Option<Arc<..>>>`, so a push touches exactly one slot mutex for
//! a few pointer writes and readers clone `Arc`s without copying captured
//! trace payloads. Lookups scan — the ring is a debugging surface sized in
//! the hundreds, not a database.

use crate::queue::SlotMeta;
use soi_obs::json::JsonWriter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Everything the server remembers about one completed request.
#[derive(Debug, Default, Clone)]
pub(crate) struct RequestRecord {
    /// The request id (monotonic per server run, starts at 1).
    pub(crate) id: u64,
    /// The endpoint that handled it (`/soi`, `/describe`, …).
    pub(crate) endpoint: String,
    /// A short human-readable digest of the request parameters.
    pub(crate) params: String,
    /// HTTP status answered.
    pub(crate) status: u16,
    /// Total latency from parse completion to response written.
    pub(crate) total_ms: f64,
    /// The request was shed by admission control (503).
    pub(crate) shed: bool,
    /// The request answered an error response.
    pub(crate) error: bool,
    /// What the engine worker published for the job (queue and exec time,
    /// partial flag, accesses, epoch, captured artifacts); `/ingest` sets
    /// the epoch, other inline routes leave it all zero.
    pub(crate) job: SlotMeta,
}

impl RequestRecord {
    /// Renders the record as JSON. `with_artifacts` embeds the captured
    /// trace/explain payloads (the by-id route); the list route omits them
    /// and reports only their presence.
    pub(crate) fn to_json(&self, with_artifacts: bool) -> String {
        let mut obj = JsonWriter::object();
        obj.field_u64("id", self.id);
        obj.field_str("endpoint", &self.endpoint);
        obj.field_str("params", &self.params);
        obj.field_u64("status", u64::from(self.status));
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let job = &self.job;
        obj.field_f64("queue_ms", ms(job.queue));
        obj.field_f64("exec_ms", ms(job.exec));
        obj.field_f64("total_ms", self.total_ms);
        obj.field_bool("partial", job.partial);
        obj.field_bool("shed", self.shed);
        obj.field_bool("error", self.error);
        obj.field_u64("accesses", job.accesses);
        // Constant: `benchmark/src/scrape.rs` rejects a row without the key.
        obj.field_raw("eps_cache", r#"{"hits":0,"misses":0}"#);
        obj.field_u64("epoch", job.epoch);
        obj.field_bool("traced", job.trace_json.is_some());
        obj.field_bool("explained", job.explain_json.is_some());
        if with_artifacts {
            if let Some(trace) = &job.trace_json {
                obj.field_raw("trace", trace);
            }
            if let Some(explain) = &job.explain_json {
                obj.field_raw("explain", explain);
            }
        }
        obj.finish()
    }
}

/// The bounded ring of recent [`RequestRecord`]s.
#[derive(Debug)]
pub(crate) struct RequestRing {
    slots: Vec<Mutex<Option<Arc<RequestRecord>>>>,
    cursor: AtomicUsize,
}

impl RequestRing {
    /// Creates a ring remembering the most recent `capacity` requests.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The ring capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one completed request, evicting the oldest when full.
    pub(crate) fn push(&self, record: RequestRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[seq % self.slots.len()];
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(Arc::new(record));
    }

    /// Finds a record by request id (linear scan over the ring).
    pub(crate) fn get(&self, id: u64) -> Option<Arc<RequestRecord>> {
        self.slots.iter().find_map(|slot| {
            let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            guard.as_ref().filter(|r| r.id == id).map(Arc::clone)
        })
    }

    /// The retained records, most recent first.
    pub(crate) fn recent(&self) -> Vec<Arc<RequestRecord>> {
        let mut records: Vec<Arc<RequestRecord>> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                guard.as_ref().map(Arc::clone)
            })
            .collect();
        records.sort_by_key(|r| std::cmp::Reverse(r.id));
        records
    }

    /// Renders the `GET /debug/requests` body: a summary list (artifacts
    /// omitted), most recent first. `endpoint` keeps only records handled
    /// by that endpoint; `limit` truncates after filtering (both applied
    /// here so a filtered listing still returns up to `limit` matches).
    pub(crate) fn list_json(&self, limit: Option<usize>, endpoint: Option<&str>) -> String {
        let mut records = self.recent();
        if let Some(endpoint) = endpoint {
            records.retain(|r| r.endpoint == endpoint);
        }
        let matched = records.len();
        if let Some(limit) = limit {
            records.truncate(limit);
        }
        let mut obj = JsonWriter::object();
        obj.field_u64("capacity", self.capacity() as u64);
        obj.field_u64("matched", matched as u64);
        obj.field_u64("count", records.len() as u64);
        let mut arr = JsonWriter::array();
        for record in &records {
            arr.elem_raw(&record.to_json(false));
        }
        obj.field_raw("requests", &arr.finish());
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> RequestRecord {
        RequestRecord {
            id,
            endpoint: "/soi".to_string(),
            params: format!("q{id}"),
            status: 200,
            total_ms: id as f64,
            ..RequestRecord::default()
        }
    }

    #[test]
    fn ring_evicts_oldest_and_finds_by_id() {
        let ring = RequestRing::new(3);
        for id in 1..=5 {
            ring.push(record(id));
        }
        assert_eq!(ring.capacity(), 3);
        assert!(ring.get(1).is_none(), "evicted");
        assert!(ring.get(2).is_none(), "evicted");
        for id in 3..=5 {
            assert_eq!(ring.get(id).expect("retained").id, id);
        }
        let recent: Vec<u64> = ring.recent().iter().map(|r| r.id).collect();
        assert_eq!(recent, vec![5, 4, 3], "most recent first");
    }

    #[test]
    fn list_json_filters_by_endpoint_and_limit() {
        let ring = RequestRing::new(8);
        for id in 1..=6 {
            let mut r = record(id);
            if id % 2 == 0 {
                r.endpoint = "/describe".to_string();
            }
            ring.push(r);
        }
        // Endpoint filter keeps only matching records, most recent first.
        let doc = ring.list_json(None, Some("/describe"));
        let parsed = soi_obs::json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("matched").and_then(|v| v.as_f64()), Some(3.0));
        let ids: Vec<f64> = parsed
            .get("requests")
            .and_then(|v| v.as_arr())
            .expect("requests array")
            .iter()
            .map(|r| r.get("id").and_then(|v| v.as_f64()).unwrap_or(0.0))
            .collect();
        assert_eq!(ids, vec![6.0, 4.0, 2.0]);
        // Limit truncates after filtering; `matched` still reports the
        // pre-truncation count.
        let doc = ring.list_json(Some(2), Some("/soi"));
        let parsed = soi_obs::json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("matched").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(2.0));
        // limit=0 is a valid "just the counts" probe.
        let doc = ring.list_json(Some(0), None);
        let parsed = soi_obs::json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(parsed.get("matched").and_then(|v| v.as_f64()), Some(6.0));
    }

    #[test]
    fn concurrent_writers_across_cursor_wraparound() {
        use std::sync::Arc;
        // Capacity 16, 8 writers × 100 pushes = 50 wraparounds. Afterwards
        // the ring must hold exactly `capacity` records, all distinct ids,
        // each slot internally consistent (id matches its params digest).
        let ring = Arc::new(RequestRing::new(16));
        let next_id = Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let next_id = Arc::clone(&next_id);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let id = next_id.fetch_add(1, Ordering::Relaxed) as u64;
                        ring.push(record(id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer joins");
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 16, "ring full after wraparounds");
        let mut ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), 16, "duplicate ids retained: {ids:?}");
        ids.sort_unstable();
        assert!(*ids.iter().max().unwrap() <= 800);
        for r in &recent {
            assert_eq!(r.params, format!("q{}", r.id), "torn record {r:?}");
            assert!(ring.get(r.id).is_some(), "retained id not findable");
        }
        // recent() stays sorted most recent first under concurrency too.
        let listed: Vec<u64> = recent.iter().map(|r| r.id).collect();
        let mut sorted = listed.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(listed, sorted);
    }

    #[test]
    fn list_json_summarizes_without_artifacts() {
        let ring = RequestRing::new(4);
        let mut traced = record(7);
        traced.job.trace_json = Some("{\"traceEvents\":[]}".to_string());
        ring.push(traced);
        let doc = ring.list_json(None, None);
        let parsed = soi_obs::json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(1.0));
        let items = parsed
            .get("requests")
            .and_then(|v| v.as_arr())
            .expect("requests array");
        assert_eq!(items[0].get("traced").and_then(|v| v.as_bool()), Some(true));
        assert!(items[0].get("trace").is_none(), "list omits payloads");
        // The by-id rendering embeds the artifact.
        let full = ring.get(7).expect("found").to_json(true);
        let parsed = soi_obs::json::parse(&full).expect("parses");
        assert!(parsed.get("trace").is_some());
    }
}
