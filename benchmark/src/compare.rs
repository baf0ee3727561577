//! `benchmark compare A/results.json B/results.json`: applies each
//! end-to-end metric's bound per workload.
//!
//! Each file holds one value per (workload, metric), so the verdict is on
//! those two values: `ok` when B is no worse than A by more than the
//! bound, `worse` otherwise, `unresolved` when either side lacks the
//! metric or the baseline cannot carry a relative bound. Deciding a *gain*
//! takes the paired runs of the choosing-metrics guide, not this.

use crate::report::{end_to_end_bound, fmt_f64, Better, Bound};
use soi_obs::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<f64>,
    pub new: Option<f64>,
    pub verdict: Verdict,
}

/// `workload → metric → value` of a `results.json` document.
type EndToEnd = BTreeMap<String, BTreeMap<String, f64>>;

fn end_to_end_of(doc: &Json) -> Result<EndToEnd, String> {
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("results.json has no workloads object".to_string());
    };
    let mut out = EndToEnd::new();
    for (workload, body) in workloads {
        let Some(Json::Obj(metrics)) = body.get("end_to_end") else {
            return Err(format!("workload {workload} has no end_to_end object"));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, entry)| {
                Some((name.clone(), entry.get("value").and_then(Json::as_f64)?))
            })
            .collect();
        out.insert(workload.clone(), values);
    }
    Ok(out)
}

/// How much worse `new` is than `base`, in the metric's bad direction.
fn judge(better: Better, bound: Bound, base: f64, new: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    let allowed = match bound {
        Bound::Absolute(amount) => amount,
        Bound::Relative(_) if base <= 0.0 => return Verdict::Unresolved,
        Bound::Relative(share) => share * base,
    };
    if !worse_by.is_finite() {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, end-to-end metric) present on either side.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let (base, new) = (end_to_end_of(base)?, end_to_end_of(new)?);
    let mut rows = Vec::new();
    let workloads: std::collections::BTreeSet<&String> = base.keys().chain(new.keys()).collect();
    for workload in workloads {
        let empty = BTreeMap::new();
        let (b, n) = (
            base.get(workload).unwrap_or(&empty),
            new.get(workload).unwrap_or(&empty),
        );
        let metrics: std::collections::BTreeSet<&String> = b.keys().chain(n.keys()).collect();
        for metric in metrics {
            let (bv, nv) = (b.get(metric).copied(), n.get(metric).copied());
            let verdict = match (end_to_end_bound(metric), bv, nv) {
                (Some((better, bound)), Some(bv), Some(nv)) => judge(better, bound, bv, nv),
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: bv,
                new: nv,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; the exit code is 0 when every row is `ok`, else 2.
pub fn run(base_path: &str, new_path: &str) -> Result<i32, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        soi_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(base_path)?, &load(new_path)?)?;
    let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt_f64);
    for row in &rows {
        let change = match (row.base, row.new) {
            (Some(b), Some(n)) if b != 0.0 => format!("{:+.1}%", (n / b - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "{:<13} {:<18} {:>14} {:>14} {:>8}  {}",
            row.workload,
            row.metric,
            show(row.base),
            show(row.new),
            change,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let clean = rows.iter().all(|r| r.verdict == Verdict::Ok);
    println!(
        "{} rows: {}",
        rows.len(),
        if clean {
            "all within bounds"
        } else {
            "NOT all within bounds"
        }
    );
    Ok(if clean { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn results(p50: f64, qps: f64, fail_share: f64) -> Json {
        let text = format!(
            r#"{{"workloads":{{"soi_hot":{{"end_to_end":{{
                "p50_ms":{{"value":{p50:?},"unit":"ms"}},
                "sat_qps":{{"value":{qps:?},"unit":"req/s"}},
                "fail_share":{{"value":{fail_share:?},"unit":"ratio"}}}}}}}}}}"#
        );
        soi_obs::json::parse(&text).expect("fixture parses")
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {metric}"))
            .verdict
    }

    #[test]
    fn flags_a_seeded_twelve_percent_regression_and_passes_three_percent() {
        // Bounds under test come from the registry: the regression sits
        // just above p50_ms's and sat_qps's bound, the noise well below.
        let (Some((_, Bound::Relative(p50_bound))), Some((_, Bound::Relative(qps_bound)))) =
            (end_to_end_bound("p50_ms"), end_to_end_bound("sat_qps"))
        else {
            panic!("p50_ms and sat_qps carry relative bounds");
        };
        let mut rng = Rng::new(11, 0);
        for _ in 0..50 {
            let p50 = 5.0 + rng.below(2000) as f64 / 100.0;
            let qps = 50.0 + rng.below(30_000) as f64 / 100.0;
            let base = results(p50, qps, 0.0);

            let noisy = results(p50 * 1.03, qps * 0.97, 0.0);
            let rows = compare(&base, &noisy).expect("compares");
            assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");

            let slower = results(p50 * (1.0 + p50_bound + 0.12), qps, 0.0);
            let rows = compare(&base, &slower).expect("compares");
            assert_eq!(verdict_of(&rows, "p50_ms"), Verdict::Worse);
            assert_eq!(verdict_of(&rows, "sat_qps"), Verdict::Ok);

            // "higher is better" regresses downwards.
            let starved = results(p50, qps * (1.0 - qps_bound - 0.12), 0.0);
            let rows = compare(&base, &starved).expect("compares");
            assert_eq!(verdict_of(&rows, "sat_qps"), Verdict::Worse);
            // An improvement of any size is never a regression.
            let faster = results(p50 * 0.5, qps * 2.0, 0.0);
            assert!(compare(&base, &faster)
                .expect("compares")
                .iter()
                .all(|r| r.verdict == Verdict::Ok));
        }
    }

    #[test]
    fn fail_share_is_bounded_absolutely() {
        let base = results(10.0, 100.0, 0.0);
        let rows = compare(&base, &results(10.0, 100.0, 0.0005)).expect("compares");
        assert_eq!(verdict_of(&rows, "fail_share"), Verdict::Ok);
        let rows = compare(&base, &results(10.0, 100.0, 0.002)).expect("compares");
        assert_eq!(verdict_of(&rows, "fail_share"), Verdict::Worse);
    }

    #[test]
    fn missing_or_unknown_metrics_are_unresolved() {
        let base = results(10.0, 100.0, 0.0);
        let partial = soi_obs::json::parse(
            r#"{"workloads":{"soi_hot":{"end_to_end":{"p50_ms":{"value":10.0,"unit":"ms"},
                "mystery":{"value":1.0,"unit":"x"}}}}}"#,
        )
        .expect("fixture parses");
        let rows = compare(&base, &partial).expect("compares");
        assert_eq!(verdict_of(&rows, "p50_ms"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "sat_qps"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "mystery"), Verdict::Unresolved);
        assert!(compare(&base, &Json::Null).is_err());
    }
}
