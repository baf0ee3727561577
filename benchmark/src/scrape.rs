//! Parsers for what the server already exposes: Prometheus text from
//! `/metrics`, the request ring from `/debug/requests`, `/status`, and the
//! kernel's `/proc/<pid>` accounting.

use soi_obs::json::Json;

/// A parsed `/metrics` scrape: `(series name, value)` for every sample
/// line, labels dropped (the benchmark reads only unlabelled counters and
/// gauges; labelled series of one name are summed by [`Metrics::get`]).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    samples: Vec<(String, f64)>,
}

impl Metrics {
    /// Parses a Prometheus text exposition, skipping comments and lines
    /// that are not `name[{labels}] value`.
    pub fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(char::is_whitespace)?;
                let name = series.split('{').next()?.trim();
                Some((name.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Self { samples }
    }

    /// The sum of every series named exactly `name`; `None` when absent.
    pub fn get(&self, name: &str) -> Option<f64> {
        let mut found = self.samples.iter().filter(|(n, _)| n == name).peekable();
        found.peek()?;
        Some(found.map(|(_, v)| v).sum())
    }

    /// `self[name] − earlier[name]`, 0 when either side lacks the series.
    pub fn delta(&self, earlier: &Metrics, name: &str) -> f64 {
        match (self.get(name), earlier.get(name)) {
            (Some(now), Some(then)) => now - then,
            _ => 0.0,
        }
    }
}

/// One row of the server's recent-requests ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RingRow {
    pub endpoint: String,
    pub status: u16,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub total_ms: f64,
    pub partial: bool,
    pub shed: bool,
    pub eps_cache_lookups: u64,
}

/// Parses a `GET /debug/requests` body into its rows (most recent first).
pub fn parse_ring(body: &str) -> Result<Vec<RingRow>, String> {
    let doc = soi_obs::json::parse(body)?;
    let rows = doc
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or("ring listing has no requests array")?;
    rows.iter()
        .map(|row| {
            let num = |key: &str| {
                row.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("ring row lacks number {key:?}"))
            };
            let flag = |key: &str| {
                row.get(key)
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("ring row lacks flag {key:?}"))
            };
            let eps = row.get("eps_cache").ok_or("ring row lacks eps_cache")?;
            let eps_num = |key: &str| eps.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            Ok(RingRow {
                endpoint: row
                    .get("endpoint")
                    .and_then(Json::as_str)
                    .ok_or("ring row lacks endpoint")?
                    .to_string(),
                status: num("status")? as u16,
                queue_ms: num("queue_ms")?,
                exec_ms: num("exec_ms")?,
                total_ms: num("total_ms")?,
                partial: flag("partial")?,
                shed: flag("shed")?,
                eps_cache_lookups: (eps_num("hits") + eps_num("misses")) as u64,
            })
        })
        .collect()
}

/// The counters of `GET /status` the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Status {
    pub requests: u64,
    pub sheds: u64,
    pub partials: u64,
    pub engine_threads: u64,
    pub folds: u64,
    pub applied_ops: u64,
    pub pending_ops: u64,
}

pub fn parse_status(body: &str) -> Result<Status, String> {
    let doc = soi_obs::json::parse(body)?;
    let num = |value: &Json, key: &str| {
        value
            .get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("/status lacks {key:?}"))
    };
    let epoch = doc.get("epoch").ok_or("/status lacks epoch")?;
    Ok(Status {
        requests: num(&doc, "requests")?,
        sheds: num(&doc, "sheds")?,
        partials: num(&doc, "partials")?,
        engine_threads: num(&doc, "engine_threads")?,
        folds: num(epoch, "folds")?,
        applied_ops: num(epoch, "applied_ops")?,
        pending_ops: num(epoch, "pending_ops")?,
    })
}

/// `utime + stime` of a process in clock ticks, from `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_proc_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB, from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text() {
        let text = "\
# HELP soi_queries_total k-SOI queries evaluated
# TYPE soi_queries_total counter
soi_queries_total 1200
# TYPE soi_source_accesses_total counter
soi_source_accesses_total 1.5e6
soi_serve_request_latency_seconds_bucket{le=\"0.005\"} 3
soi_serve_request_latency_seconds_bucket{le=\"+Inf\"} 9
soi_build_info{version=\"0.1.0\"} 1

garbage line without value x
";
        let m = Metrics::parse(text);
        assert_eq!(m.get("soi_queries_total"), Some(1200.0));
        assert_eq!(m.get("soi_source_accesses_total"), Some(1.5e6));
        assert_eq!(
            m.get("soi_serve_request_latency_seconds_bucket"),
            Some(12.0)
        );
        assert_eq!(m.get("soi_build_info"), Some(1.0));
        assert_eq!(m.get("soi_queries"), None, "no prefix matching");
        assert_eq!(m.get("garbage"), None);

        let later = Metrics::parse("soi_queries_total 1500\n");
        assert_eq!(later.delta(&m, "soi_queries_total"), 300.0);
        assert_eq!(later.delta(&m, "soi_missing_total"), 0.0);
    }

    #[test]
    fn ring_listing() {
        let body = r#"{"capacity":256,"matched":2,"count":2,"requests":[
            {"id":9,"endpoint":"/soi","params":"keywords=[shop] k=10 eps=0.0005","status":200,
             "queue_ms":0.02,"exec_ms":7.5,"total_ms":7.9,"partial":false,"shed":false,
             "error":false,"accesses":4100,"eps_cache":{"hits":1,"misses":2},"epoch":0,
             "traced":false,"explained":false},
            {"id":8,"endpoint":"/metrics","params":"","status":200,"queue_ms":0.0,
             "exec_ms":0.0,"total_ms":0.3,"partial":false,"shed":false,"error":false,
             "accesses":0,"eps_cache":{"hits":0,"misses":0},"epoch":0,"traced":false,
             "explained":false}]}"#;
        let rows = parse_ring(body).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            RingRow {
                endpoint: "/soi".into(),
                status: 200,
                queue_ms: 0.02,
                exec_ms: 7.5,
                total_ms: 7.9,
                partial: false,
                shed: false,
                eps_cache_lookups: 3,
            }
        );
        assert_eq!(rows[1].endpoint, "/metrics");
        assert!(parse_ring("{}").is_err());
        assert!(parse_ring(r#"{"requests":[{"endpoint":"/soi"}]}"#).is_err());
        assert!(parse_ring("not json").is_err());
    }

    #[test]
    fn status_body() {
        let body = r#"{"status":"serving","dataset":"berlin",
            "epoch":{"id":40,"pending_ops":128,"applied_ops":512,"folds":1},
            "queue_depth":0,"queue_capacity":64,"engine_threads":2,"requests":77,
            "sheds":1,"partials":2,"uptime_seconds":3.5,"window":{}}"#;
        assert_eq!(
            parse_status(body),
            Ok(Status {
                requests: 77,
                sheds: 1,
                partials: 2,
                engine_threads: 2,
                folds: 1,
                applied_ops: 512,
                pending_ops: 128,
            })
        );
        assert!(parse_status(r#"{"requests":1}"#).is_err());
    }

    #[test]
    fn proc_files() {
        let stat = "4242 (soi (serve) x) S 1 4242 4242 0 -1 4194304 2000 0 0 0 \
                    731 46 0 0 20 0 9 0 123456 500000000 28000 18446744073709551615";
        assert_eq!(parse_proc_stat_ticks(stat), Some(777));
        assert_eq!(parse_proc_stat_ticks("no parens"), None);
        let status = "Name:\tsoi\nVmPeak:\t  200000 kB\nVmHWM:\t  111988 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(111_988));
        assert_eq!(parse_vm_hwm_kb("Name:\tsoi\n"), None);
    }
}
