//! The traced run: the benchmark's own in-memory span recorder, and an
//! in-process replay of a workload's requests through the public calls the
//! server makes for them, one request at a time.
//!
//! Spans are recorded from this file, around the calls into each layer —
//! the program is not changed. Two consequences are visible in the
//! numbers: `core.soi` runs inside the engine call, so its span takes its
//! *duration* from the engine's own per-query clock and is centred in
//! `engine.dispatch` (its start instant cannot be observed from outside);
//! and response rendering is private to `server.rs`, so the replay writes
//! the body the served run returned instead of rendering one — rendering
//! is the named residual that keeps `trace.coverage_pct` under 100.

use crate::stats::Samples;
use crate::workload::Request;
use crate::world::World;
use soi_common::StreetId;
use soi_core::describe::DescribeParams;
use soi_core::soi::SoiQuery;
use soi_core::QueryBudget;
use soi_data::Dataset;
use soi_engine::{QueryCapture, QueryContext, QueryEngine};
use soi_obs::json::{Json, JsonWriter};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request's root span.
    pub parent: Option<u32>,
    /// The request this span belongs to: its index in the replayed list.
    pub request: u32,
}

/// An in-memory span recorder; nothing is written until the run ends.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. With the recorder off this is just `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    /// Records a finished child of the innermost open span whose duration
    /// was measured elsewhere, centred in the time that span has run.
    fn child_measured_elsewhere(&mut self, name: &'static str, duration: Duration) {
        let Some(&parent) = self.open.last().filter(|_| self.enabled) else {
            return;
        };
        let now = self.now_ns();
        let parent_start = self.spans[parent as usize].start_ns;
        let duration_ns = (duration.as_nanos() as u64).min(now - parent_start);
        let start_ns = parent_start + (now - parent_start - duration_ns) / 2;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            request: self.request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// `trace.json`: every span with name, start, end, parent and request,
/// each workload's spans in turn. `parent` indexes the whole list.
pub fn to_json(workloads: &[(&str, &[Span])]) -> String {
    let mut rows = JsonWriter::array();
    let mut offset = 0u64;
    for (workload, spans) in workloads {
        for span in *spans {
            let mut row = JsonWriter::object();
            row.field_str("workload", workload);
            row.field_str("name", span.name);
            row.field_u64("start_ns", span.start_ns);
            row.field_u64("end_ns", span.end_ns);
            match span.parent {
                Some(parent) => row.field_u64("parent", offset + u64::from(parent)),
                None => row.field_raw("parent", "null"),
            }
            row.field_u64("request", u64::from(span.request));
            rows.elem_raw(&row.finish());
        }
        offset += spans.len() as u64;
    }
    let mut doc = JsonWriter::object();
    doc.field_str(
        "about",
        "spans of the in-process traced replay; parent is an index into spans, \
         request an index into the workload's replayed list, times are ns from \
         the start of that workload's replay",
    );
    doc.field_raw("spans", &rows.finish());
    doc.finish()
}

/// Checks the recorded tree: names present, intervals ordered, parents
/// earlier in the list, of the same request, and enclosing their children.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, span) in spans.iter().enumerate() {
        if span.name.is_empty() || span.start_ns > span.end_ns {
            return Err(format!("span {i} is malformed: {span:?}"));
        }
        if let Some(parent) = span.parent {
            let Some(p) = spans.get(parent as usize).filter(|_| (parent as usize) < i) else {
                return Err(format!(
                    "span {i} names parent {parent}, which is not before it"
                ));
            };
            if p.request != span.request || p.start_ns > span.start_ns || p.end_ns < span.end_ns {
                return Err(format!("span {i} {span:?} is not inside its parent {p:?}"));
            }
        }
    }
    Ok(())
}

/// Per request: each span name's self time (duration minus the part its
/// children cover), in ms. The outer key is the request.
fn self_times(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut by_request: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let self_ns = (span.end_ns - span.start_ns).saturating_sub(children);
        *by_request
            .entry(span.request)
            .or_default()
            .entry(span.name)
            .or_default() += self_ns as f64 / 1e6;
    }
    by_request
}

/// The traced pass's numbers.
pub struct TraceSummary {
    /// `(span name, median self time in ms)` over the requests that have
    /// the span, plus `core`: all `core.*` spans of a request summed.
    pub self_p50_ms: Vec<(String, f64)>,
    /// Median duration of a request's root span, ms.
    pub request_p50_ms: f64,
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let per_request = self_times(spans);
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for selfs in per_request.values() {
        let mut core = 0.0;
        for (name, ms) in selfs {
            by_name.entry((*name).to_string()).or_default().push(*ms);
            if name.starts_with("core.") {
                core += ms;
            }
        }
        by_name.entry("core".to_string()).or_default().push(core);
    }
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    TraceSummary {
        self_p50_ms: by_name
            .into_iter()
            .map(|(name, values)| (name, Samples::new(values).median()))
            .collect(),
        request_p50_ms: Samples::new(roots).median(),
    }
}

/// The server's `/soi` body parse, on the parsed JSON.
fn parse_soi(dataset: &Dataset, body: &Json) -> Option<SoiQuery> {
    let words: Vec<&str> = body
        .get("keywords")?
        .as_arr()?
        .iter()
        .map(Json::as_str)
        .collect::<Option<_>>()?;
    let k = body.get("k")?.as_f64()? as usize;
    let eps = body.get("eps")?.as_f64()?;
    SoiQuery::new(dataset.query_keywords(&words), k, eps).ok()
}

/// The server's `/describe` body parse, on the parsed JSON.
fn parse_describe(body: &Json) -> Option<(StreetId, DescribeParams)> {
    let number = |name: &str| body.get(name)?.as_f64();
    let params =
        DescribeParams::new(number("k")? as usize, number("lambda")?, number("w")?).ok()?;
    Some((StreetId(number("street")? as u32), params))
}

enum Parsed {
    Soi(SoiQuery),
    Describe(StreetId, DescribeParams),
}

/// Replays `requests` one at a time through json parse → query parse →
/// engine (→ Alg. 1, or street context + Alg. 2) → response write, each
/// inside a span of `recorder`. `responses[i]` is the body the server
/// returned for `requests[i]`. Returns the wall-clock of the whole replay.
pub fn replay(
    world: &World,
    requests: &[Request],
    responses: &[String],
    recorder: &mut Recorder,
) -> Result<Duration, String> {
    let io = |e: std::io::Error| format!("loopback: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut client = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut server, _) = listener.accept().map_err(io)?;
    let mut sink = vec![0u8; 64 * 1024];

    let dataset = &world.dataset;
    let engine = QueryEngine::new(0);
    let builder = world.context_builder();
    let started = Instant::now();
    for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
        recorder.request = i as u32;
        let mut written = 0usize;
        recorder.span("request", |rec| -> Result<(), String> {
            let body = rec
                .span("obs.json.parse", |_| soi_obs::json::parse(&request.body))
                .map_err(|e| format!("request {i}: {e}"))?;
            let parsed = rec
                .span("serve.parse_query", |_| match request.endpoint() {
                    crate::workload::Endpoint::Soi => parse_soi(dataset, &body).map(Parsed::Soi),
                    crate::workload::Endpoint::Describe => {
                        parse_describe(&body).map(|(s, p)| Parsed::Describe(s, p))
                    }
                })
                .ok_or_else(|| format!("request {i} does not parse"))?;
            let budget = QueryBudget::from_timeout(crate::server::DEADLINE);
            rec.span("engine.dispatch", |rec| -> Result<(), String> {
                match parsed {
                    Parsed::Soi(query) => {
                        let ctx = Arc::new(QueryContext::new(
                            &dataset.network,
                            &dataset.pois,
                            &world.bundle.poi,
                        ));
                        let outcome = engine.run_soi_batch_captured(
                            &ctx,
                            &[(query, budget, QueryCapture::default())],
                        );
                        let latency =
                            outcome.telemetry.query_latencies.first().ok_or_else(|| {
                                format!("request {i}: the engine failed the query")
                            })?;
                        rec.child_measured_elsewhere("core.soi", *latency);
                    }
                    Parsed::Describe(street, params) => {
                        let ctx = rec
                            .span("core.describe.context", |_| builder.build(street))
                            .map_err(|e| format!("request {i}: {e}"))?;
                        let (results, _) = rec.span("core.describe.exec", |_| {
                            engine.run_describe_batch_captured(
                                &dataset.photos,
                                &[(&ctx, params, budget, QueryCapture::default())],
                            )
                        });
                        if !results.first().is_some_and(Result::is_ok) {
                            return Err(format!("request {i}: the engine failed the describe"));
                        }
                    }
                }
                Ok(())
            })?;
            let id = (i + 1).to_string();
            rec.span("serve.http.write", |_| {
                soi_serve::http::write_response_with_headers(
                    &mut server,
                    200,
                    "OK",
                    "application/json",
                    response.as_bytes(),
                    &[("x-soi-request-id", &id)],
                )
            })
            .map_err(io)?;
            written = response.len();
            Ok(())
        })?;
        // Outside the request span: empty the socket for the next write.
        // The head's length varies with the id, so read until the body's
        // last byte has arrived.
        let mut tail: Vec<u8> = Vec::new();
        let want = &response.as_bytes()[written.saturating_sub(16)..];
        loop {
            let got = client.read(&mut sink).map_err(io)?;
            if got == 0 {
                return Err("loopback closed under the replay".to_string());
            }
            tail.extend_from_slice(&sink[..got]);
            if tail.ends_with(want) {
                break;
            }
        }
    }
    Ok(started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        for request in 0..2 {
            rec.request = request;
            rec.span("request", |rec| {
                rec.span("obs.json.parse", |_| sleep_ms(2));
                rec.span("engine.dispatch", |rec| {
                    sleep_ms(4);
                    rec.child_measured_elsewhere("core.soi", Duration::from_millis(3));
                });
                sleep_ms(1);
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        validate(spans).expect("well-formed");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].name, "core.soi");
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].end_ns - spans[3].start_ns, 3_000_000);
        assert_eq!(spans[4].request, 1);

        let summary = summarize(spans);
        let self_of = |name: &str| {
            summary
                .self_p50_ms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .expect(name)
        };
        assert!((3.0..3.01).contains(&self_of("core.soi")));
        assert_eq!(self_of("core"), self_of("core.soi"));
        // dispatch slept 4 ms, 3 of them covered by its child.
        assert!(
            (1.0..3.0).contains(&self_of("engine.dispatch")),
            "{}",
            self_of("engine.dispatch")
        );
        assert!(self_of("obs.json.parse") >= 2.0);
        // The root's self time is its own 1 ms sleep, not the 7 ms total.
        assert!(
            (1.0..4.0).contains(&self_of("request")),
            "{}",
            self_of("request")
        );
        assert!(summary.request_p50_ms >= 7.0);

        let text = to_json(&[("soi_hot", spans), ("describe_hot", spans)]);
        let json = soi_obs::json::parse(&text).expect("trace.json parses");
        let rows = json.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(rows.len(), 16);
        for row in rows {
            for key in [
                "workload", "name", "start_ns", "end_ns", "parent", "request",
            ] {
                assert!(row.get(key).is_some(), "span lacks {key}");
            }
        }
        // The second workload's parents point into its own spans.
        assert_eq!(rows[9].get("parent").and_then(Json::as_f64), Some(8.0));
        assert_eq!(rows[8].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let value = rec.span("request", |rec| {
            rec.child_measured_elsewhere("core.soi", Duration::from_millis(1));
            rec.span("inner", |_| 7)
        });
        assert_eq!(value, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn validate_rejects_broken_trees() {
        let span = |start_ns, end_ns, parent, request| Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request,
        };
        assert!(validate(&[span(0, 10, None, 0), span(2, 8, Some(0), 0)]).is_ok());
        assert!(
            validate(&[span(5, 1, None, 0)]).is_err(),
            "ends before it starts"
        );
        assert!(validate(&[span(0, 10, Some(0), 0)]).is_err(), "own parent");
        assert!(validate(&[span(0, 10, None, 0), span(2, 12, Some(0), 0)]).is_err());
        assert!(validate(&[span(0, 10, None, 0), span(2, 8, Some(0), 1)]).is_err());
    }
}
