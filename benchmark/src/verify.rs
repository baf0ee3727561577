//! Answer verification, outside the timed windows.
//!
//! Three checks, from cheap to dear:
//! 1. every response is a `200` carrying a complete (non-`partial`) answer;
//! 2. on read-only workloads, identical requests got byte-identical bodies
//!    apart from `request_id`;
//! 3. a seeded sample of the distinct requests is recomputed in-process by
//!    an independent oracle — `/soi` by `brute_force` (index-free) or the
//!    paper's grid-scan baseline `run_baseline`, `/describe` by
//!    `greedy_select` — and compared with what the server answered.
//!
//! The sample is as large as fixed work budgets allow. At scale 0.5 one
//! `brute_force` call costs 0.2–4 s and the driver allows a run 180 s in
//! total, so the budgets, not the request count, bound the sample; they
//! are counts of work, not time, so a slow host checks as much as a fast
//! one. At `--smoke` scale they cover nearly every distinct body.

use crate::rng::Rng;
use crate::served::{self, Served};
use crate::workload::{Request, Spec, Workload};
use crate::world::{self, World};
use soi_core::describe::greedy_select;
use soi_core::soi::{brute_force, run_baseline, SoiOutcome, StreetAggregate};
use soi_data::{Dataset, PhotoView};
use soi_index::{DeltaIndex, PhotoGrid, PoiIndex};
use soi_obs::json::Json;
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// (relevant POI, segment) distance tests `brute_force` may spend per run.
const BRUTE_PAIR_BUDGET: u64 = 200_000_000;
/// Queries whose relevant POIs are counted to see if they fit that budget.
const BRUTE_PROBES: usize = 8;
/// Segment scans `run_baseline` may spend per run (15 queries at scale 0.5,
/// one per keyword subset of the Fig. 4 grid).
const BASELINE_SEGMENT_BUDGET: u64 = 400_000;
/// `k · |Rs| · (k+1)/2` similarity terms `greedy_select` may spend per run.
const GREEDY_TERM_BUDGET: u64 = 8_000_000;

/// Relative tolerance on interests and objectives (summation order differs
/// between an algorithm and its oracle).
const REL_TOL: f64 = 1e-9;

/// The body with the server-assigned `request_id` field removed.
pub fn strip_request_id(body: &str) -> String {
    const FIELD: &str = "\"request_id\":";
    let Some(pos) = body.rfind(FIELD) else {
        return body.to_string();
    };
    let digits = body[pos + FIELD.len()..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    let start = if body[..pos].ends_with(',') {
        pos - 1
    } else {
        pos
    };
    format!("{}{}", &body[..start], &body[pos + FIELD.len() + digits..])
}

/// What a correct response must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// `(street id, interest)` in rank order.
    Soi(Vec<(u32, f64)>),
    Describe {
        selected: Vec<u32>,
        objective: f64,
    },
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Why `body` is not a complete answer, if it is not one.
pub fn incomplete(status: u16, body: &str) -> Option<String> {
    if status != 200 {
        return Some(format!("status {status}"));
    }
    match soi_obs::json::parse(body) {
        Err(e) => Some(format!("unparsable body: {e}")),
        Ok(doc) => match doc.get("partial").and_then(Json::as_bool) {
            Some(false) => None,
            Some(true) => Some("partial answer (deadline expired)".to_string()),
            None => Some("body lacks the partial flag".to_string()),
        },
    }
}

/// Compares a response body with the oracle's answer.
pub fn matches(expected: &Expected, body: &str) -> Result<(), String> {
    let doc = soi_obs::json::parse(body)?;
    match expected {
        Expected::Soi(want) => {
            let rows = doc
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("no results array")?;
            let got: Vec<(u32, f64)> = rows
                .iter()
                .map(|row| {
                    let street = row.get("street").and_then(Json::as_f64)?;
                    let interest = row.get("interest").and_then(Json::as_f64)?;
                    Some((street as u32, interest))
                })
                .collect::<Option<_>>()
                .ok_or("result row lacks street or interest")?;
            if got.len() != want.len() {
                return Err(format!("{} streets, oracle has {}", got.len(), want.len()));
            }
            for (rank, (g, w)) in got.iter().zip(want).enumerate() {
                if g.0 != w.0 || !close(g.1, w.1) {
                    return Err(format!("rank {rank}: got {g:?}, oracle {w:?}"));
                }
            }
            Ok(())
        }
        Expected::Describe {
            selected,
            objective,
        } => {
            let got: Vec<u32> = doc
                .get("selected")
                .and_then(Json::as_arr)
                .ok_or("no selected array")?
                .iter()
                .map(|v| v.as_f64().map(|id| id as u32))
                .collect::<Option<_>>()
                .ok_or("non-numeric photo id")?;
            if &got != selected {
                return Err(format!("selected {got:?}, oracle {selected:?}"));
            }
            let got_objective = doc
                .get("objective")
                .and_then(Json::as_f64)
                .ok_or("no objective")?;
            if !close(got_objective, *objective) {
                return Err(format!("objective {got_objective}, oracle {objective}"));
            }
            Ok(())
        }
    }
}

/// The state `/soi` answers are recomputed against.
pub struct SoiOracle<'a> {
    pub dataset: &'a Dataset,
    pub index: &'a PoiIndex,
}

/// The state `/describe` answers are recomputed against. With a delta the
/// photo ids are the live epoch's, as the server reports them.
pub struct DescribeOracle<'a> {
    pub dataset: &'a Dataset,
    pub photo_grid: &'a PhotoGrid,
    pub delta: Option<&'a DeltaIndex>,
}

/// How much of a run's distinct requests the oracles covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    pub distinct: usize,
    pub brute_force: usize,
    pub baseline: usize,
    pub greedy: usize,
}

impl Coverage {
    pub fn checked(&self) -> usize {
        self.brute_force + self.baseline + self.greedy
    }
}

fn soi_rows(outcome: &SoiOutcome, k: usize) -> Vec<(u32, f64)> {
    outcome
        .results
        .iter()
        .take(k)
        .map(|r| (r.street.raw(), r.interest))
        .collect()
}

/// Recomputes a seeded, budget-bounded sample of `distinct` (the distinct
/// requests of a run). `/soi` requests that differ only in `k` share one
/// oracle call at their largest `k`: both oracles rank by (interest, id),
/// so a shorter answer is a prefix of a longer one. (`/describe` has no
/// such prefix: `mmr` weighs diversity by `1/(k−1)`.) Returns `(index
/// into distinct, expected answer)` pairs.
pub fn oracle_sample(
    distinct: &[&Request],
    seed: u64,
    soi: &SoiOracle<'_>,
    describe: &DescribeOracle<'_>,
) -> (Vec<(usize, Expected)>, Coverage) {
    // BTreeMap keeps the grouping deterministic.
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, request) in distinct.iter().enumerate() {
        let key = match &request.spec {
            Spec::Soi { keywords, eps, .. } => format!("soi {keywords:?} {eps}"),
            Spec::Describe { .. } => format!("describe {}", request.body),
        };
        groups.entry(key).or_default().push(i);
    }
    let mut order: Vec<Vec<usize>> = groups.into_values().collect();
    Rng::new(seed, 90).shuffle(&mut order);

    let mut coverage = Coverage {
        distinct: distinct.len(),
        ..Coverage::default()
    };
    let (mut brute_left, mut baseline_left, mut greedy_left) = (
        BRUTE_PAIR_BUDGET,
        BASELINE_SEGMENT_BUDGET,
        GREEDY_TERM_BUDGET,
    );
    let mut brute_probes = BRUTE_PROBES;
    let segments = soi.dataset.network.num_segments() as u64;
    let mut expected = Vec::new();
    for members in order {
        let k_of = |i: usize| match distinct[i].spec {
            Spec::Soi { k, .. } | Spec::Describe { k, .. } => k,
        };
        let widest = members
            .iter()
            .copied()
            .max_by_key(|&i| k_of(i))
            .expect("groups are non-empty");
        match &distinct[widest].spec {
            spec @ Spec::Soi { .. } => {
                let Some(query) = world::soi_query(soi.dataset, spec) else {
                    continue;
                };
                // Counting relevant POIs walks the whole collection, so
                // only the first few queries are sized for brute force.
                let pairs = if brute_probes > 0 {
                    brute_probes -= 1;
                    soi.dataset.pois.count_relevant(&query.keywords) as u64 * segments
                } else {
                    u64::MAX
                };
                let outcome = if pairs <= brute_left {
                    brute_left -= pairs;
                    coverage.brute_force += members.len();
                    brute_force(&soi.dataset.network, &soi.dataset.pois, &query)
                } else {
                    if segments > baseline_left {
                        continue;
                    }
                    baseline_left -= segments;
                    coverage.baseline += members.len();
                    run_baseline(
                        &soi.dataset.network,
                        &soi.dataset.pois,
                        soi.index,
                        &query,
                        StreetAggregate::Max,
                    )
                };
                for i in members {
                    expected.push((i, Expected::Soi(soi_rows(&outcome, k_of(i)))));
                }
            }
            spec @ Spec::Describe { .. } => {
                let Some((street, params)) = world::describe_job(spec) else {
                    continue;
                };
                let builder = world::context_builder(describe.dataset, describe.photo_grid);
                let Ok(ctx) = builder.build_with_delta(street, describe.delta) else {
                    continue;
                };
                let k = params.k as u64;
                let terms = k * ctx.members.len() as u64 * (k + 1) / 2;
                if terms > greedy_left {
                    continue;
                }
                greedy_left -= terms;
                coverage.greedy += members.len();
                let photos: PhotoView<'_> = match describe.delta {
                    Some(delta) => delta.photo_view(&describe.dataset.photos),
                    None => (&describe.dataset.photos).into(),
                };
                let greedy = greedy_select(&ctx, photos, &params);
                expected.push((
                    widest,
                    Expected::Describe {
                        selected: greedy.selected.iter().map(|p| p.raw()).collect(),
                        objective: greedy.objective,
                    },
                ));
            }
        }
    }
    expected.sort_by_key(|(i, _)| *i);
    (expected, coverage)
}

/// What verification found in one workload's run.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    /// Transport errors, non-200, shed and partial answers.
    pub incomplete: u64,
    /// Identical requests answered differently (read-only workloads).
    pub inconsistent: u64,
    /// Answers that differ from the oracle's.
    pub wrong: u64,
    pub coverage: Coverage,
    /// The first few problems, for the log.
    pub notes: Vec<String>,
}

impl Check {
    pub fn failed(&self) -> u64 {
        self.incomplete + self.inconsistent + self.wrong
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 8 {
            self.notes.push(text);
        }
    }
}

/// Checks every response, then a seeded sample against the oracles. For
/// `mixed_ingest` the sample is sent again now that the writer has stopped
/// and compared with the state rebuilt from exactly the accepted ops.
pub fn check(
    world: &World,
    workload: Workload,
    requests: &[Request],
    served: &Served,
    addr: SocketAddr,
    seed: u64,
) -> Result<Check, String> {
    let mut check = Check::default();
    // body → (list index, first complete response with the id stripped)
    let mut distinct: BTreeMap<&str, (usize, Option<String>)> = BTreeMap::new();
    for sample in served
        .warm
        .iter()
        .chain(served.rate_samples())
        .chain(&served.sat)
    {
        check.attempted += 1;
        let request = &requests[sample.index];
        let entry = distinct
            .entry(request.body.as_str())
            .or_insert((sample.index, None));
        if let Some(why) = incomplete(sample.status, &sample.body) {
            check.incomplete += 1;
            check.note(format!("request {}: {why}", sample.index));
            continue;
        }
        let stripped = strip_request_id(&sample.body);
        match &entry.1 {
            None => entry.1 = Some(stripped),
            Some(first) if !workload.ingests() && *first != stripped => {
                check.inconsistent += 1;
                check.note(format!(
                    "request {}: same body, different answer",
                    sample.index
                ));
            }
            Some(_) => {}
        }
    }
    for ack in &served.ingest {
        check.attempted += 1;
        if ack.status != 200 {
            check.incomplete += 1;
            check.note(format!("/ingest answered {}", ack.status));
        }
    }

    let sent: Vec<(usize, Option<String>)> = distinct.into_values().collect();
    let sent_requests: Vec<&Request> = sent.iter().map(|(i, _)| &requests[*i]).collect();
    let compare = |check: &mut Check,
                   expected: Vec<(usize, Expected)>,
                   answers: &dyn Fn(usize) -> Option<String>| {
        for (i, want) in expected {
            let verdict = match answers(i) {
                Some(body) => matches(&want, &body),
                None => Err("no complete answer to compare".to_string()),
            };
            if let Err(why) = verdict {
                check.wrong += 1;
                check.note(format!("{}: {why}", sent_requests[i].body));
            }
        }
    };

    if !workload.ingests() {
        let (expected, coverage) = oracle_sample(
            &sent_requests,
            seed,
            &SoiOracle {
                dataset: &world.dataset,
                index: &world.bundle.poi,
            },
            &DescribeOracle {
                dataset: &world.dataset,
                photo_grid: &world.bundle.photo_grid,
                delta: None,
            },
        );
        check.coverage = coverage;
        compare(&mut check, expected, &|i| sent[i].1.clone());
        return Ok(check);
    }

    // The server's state after the writer stopped: the base folded at
    // every 512-op boundary, the remainder a sealed delta.
    let lines = &served.accepted_lines;
    let fold = served::EPOCH_MAX_DELTA;
    let applied = lines.len() / fold * fold;
    if served.status.applied_ops != applied as u64
        || served.status.pending_ops != (lines.len() - applied) as u64
    {
        check.wrong += 1;
        check.note(format!(
            "server applied {} + pending {} ops, the journal implies {applied} + {}",
            served.status.applied_ops,
            served.status.pending_ops,
            lines.len() - applied
        ));
    }
    let boundaries: Vec<u64> = (1..=applied / fold).map(|i| (i * fold) as u64).collect();
    let err = |e: soi_common::SoiError| format!("rebuilding the ingested state: {e}");
    let mirror = soi_index::fold_dataset(&world.dataset, lines, &boundaries).map_err(err)?;
    let mirror_bundle = soi_index::build_bundle(&mirror, &world.params);
    let tail_lines = &lines[applied..];
    let tail =
        soi_index::DeltaOp::parse_lines(&tail_lines.join("\n"), &mirror.vocab).map_err(err)?;
    let delta = if tail.is_empty() {
        None
    } else {
        Some(
            soi_index::DeltaIndex::seal(&mirror_bundle.poi, &mirror.pois, &mirror.photos, &tail)
                .map_err(err)?,
        )
    };
    // `/soi` is checked against the data with *every* accepted op folded
    // in: street ids and interests do not depend on how ops are batched.
    let folded =
        soi_index::fold_dataset(&mirror, tail_lines, &[tail_lines.len() as u64]).map_err(err)?;
    let folded_index =
        soi_index::PoiIndex::build(&folded.network, &folded.pois, world.params.poi_cell);
    let (expected, coverage) = oracle_sample(
        &sent_requests,
        seed,
        &SoiOracle {
            dataset: &folded,
            index: &folded_index,
        },
        &DescribeOracle {
            dataset: &mirror,
            photo_grid: &mirror_bundle.photo_grid,
            delta: delta.as_ref(),
        },
    );
    check.coverage = coverage;
    let timeout = std::time::Duration::from_secs(5);
    compare(&mut check, expected, &|i| {
        let request = sent_requests[i];
        soi_serve::client::request(
            addr,
            "POST",
            request.endpoint().path(),
            Some(&request.body),
            timeout,
        )
        .ok()
        .filter(|r| incomplete(r.status, &r.body).is_none())
        .map(|r| r.body)
    });
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_is_stripped_wherever_it_sits() {
        assert_eq!(
            strip_request_id(r#"{"partial":false,"results":[],"request_id":42}"#),
            r#"{"partial":false,"results":[]}"#
        );
        assert_eq!(strip_request_id(r#"{"request_id":7}"#), "{}");
        assert_eq!(strip_request_id(r#"{"a":1}"#), r#"{"a":1}"#);
        // Two responses to one request differ only in the id.
        let a = r#"{"partial":false,"lbk":0.5,"results":[{"street":3}],"request_id":10}"#;
        let b = r#"{"partial":false,"lbk":0.5,"results":[{"street":3}],"request_id":1999}"#;
        assert_eq!(strip_request_id(a), strip_request_id(b));
    }

    #[test]
    fn incomplete_answers_are_named() {
        assert_eq!(incomplete(200, r#"{"partial":false}"#), None);
        assert!(incomplete(503, "{}").is_some_and(|m| m.contains("503")));
        assert!(incomplete(200, r#"{"partial":true}"#).is_some_and(|m| m.contains("partial")));
        assert!(incomplete(200, "<html>").is_some());
        assert!(incomplete(200, "{}").is_some());
        assert!(incomplete(0, "").is_some());
    }

    #[test]
    fn soi_answers_compare_ids_exactly_and_interests_closely() {
        let want = Expected::Soi(vec![(5, 100.0), (2, 50.0)]);
        let body = |a: f64, second: u32| {
            format!(
                r#"{{"partial":false,"results":[{{"street":5,"interest":{a:?}}},{{"street":{second},"interest":50.0}}]}}"#
            )
        };
        assert_eq!(matches(&want, &body(100.0, 2)), Ok(()));
        assert_eq!(matches(&want, &body(100.0 * (1.0 + 1e-12), 2)), Ok(()));
        assert!(matches(&want, &body(100.0 * (1.0 + 1e-6), 2)).is_err());
        assert!(matches(&want, &body(100.0, 3)).is_err());
        assert!(matches(&want, r#"{"partial":false,"results":[]}"#).is_err());
        assert!(matches(&want, r#"{"partial":false}"#).is_err());
    }

    #[test]
    fn describe_answers_compare_the_selection_in_order() {
        let want = Expected::Describe {
            selected: vec![9, 4, 7],
            objective: 0.75,
        };
        let ok = r#"{"partial":false,"objective":0.75,"selected":[9.0,4.0,7.0]}"#;
        assert_eq!(matches(&want, ok), Ok(()));
        let reordered = r#"{"partial":false,"objective":0.75,"selected":[4.0,9.0,7.0]}"#;
        assert!(matches(&want, reordered).is_err());
        let off = r#"{"partial":false,"objective":0.76,"selected":[9.0,4.0,7.0]}"#;
        assert!(matches(&want, off).is_err());
    }
}
