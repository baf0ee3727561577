//! One served run of one workload: boots, warm-up, the open-loop rate
//! phase, the closed-loop saturation phase, and the scrapes around them.

use crate::loadgen::{self, IngestSample, Sample};
use crate::scrape::{Metrics, RingRow, Status};
use crate::server::Server;
use crate::workload::{Request, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Ops per `/ingest` batch and the writer's cadence.
pub const INGEST_BATCH_OPS: usize = 16;
pub const INGEST_INTERVAL: Duration = Duration::from_millis(100);
/// `--epoch-max-delta` of the `mixed_ingest` server: a fold every 32
/// batches, about every 3.2 s.
pub const EPOCH_MAX_DELTA: usize = 512;
/// Ops ingested by the untimed boot that populates the snapshot cache and
/// the journal: one fold (persisted as the live snapshot) plus a 128-op
/// tail, so every timed boot is a snapshot hit plus a journal replay.
pub const INGEST_PREFIX_OPS: usize = EPOCH_MAX_DELTA + 128;

/// How `--seconds` is divided.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Warm-up at the workload's rate; discarded.
    pub warm_s: f64,
    /// Open loop at the workload's rate; the latency phase.
    pub rate_s: f64,
    /// Closed loop; the throughput phase.
    pub sat_s: f64,
}

/// The rate phase is measured in this many consecutive slices and each
/// latency metric is the median of the per-slice values: a stall of the
/// (shared, two-core) host lands in one slice and does not move the
/// metric, where it would drag a whole-phase 95th percentile with it.
pub const RATE_SLICES: usize = 3;

/// `sat_qps` is the median rate over consecutive blocks of this many
/// completions, for the same reason.
pub const SAT_BLOCK: usize = 32;

/// Dropped from the start of the saturation phase: throughput climbs for
/// about 1.5 s after the half-idle rate phase before it levels.
pub const SAT_RAMP: Duration = Duration::from_millis(1500);

/// Waiting clients of the saturation phase: the server's `--batch-max`, so
/// a dispatch batch can fill. With fewer (two, say, on this two-core host)
/// the single dispatcher and the clients fall into lock-step, batches of
/// one alternate with batches of two, and throughput is bimodal.
pub const SAT_CLIENTS: usize = 8;

impl Phases {
    /// Delta ops `mixed_ingest` posts in a run of these phases: the
    /// cache-populating prefix, then one batch per interval of the rate
    /// and saturation phases.
    pub fn ingest_ops(&self) -> usize {
        let batches = ((self.rate_s + self.sat_s) / INGEST_INTERVAL.as_secs_f64()) as usize;
        INGEST_PREFIX_OPS + batches * INGEST_BATCH_OPS
    }

    /// 5 % warm-up (0.5–2 s), 30 % saturation, the rest at the fixed
    /// rate: 2 + 26 + 12 s of a 40 s run.
    pub fn split(seconds: f64) -> Self {
        let warm_s = (seconds * 0.05).clamp(0.5, 2.0);
        let sat_s = seconds * 0.3;
        Self {
            warm_s,
            rate_s: (seconds - warm_s - sat_s).max(0.5),
            sat_s,
        }
    }
}

pub struct Setup<'a> {
    pub soi: &'a Path,
    pub data_dir: &'a Path,
    /// Logs, and for `mixed_ingest` the snapshot cache and the journal.
    pub run_dir: &'a Path,
    /// Generator connections of the rate phase, `min(nproc, 4)`.
    pub clients: usize,
    /// Boots `setup_s` is the median of (the last one serves the run).
    pub boots: usize,
    pub phases: Phases,
}

/// Everything one served run observed.
pub struct Served {
    pub boots_s: Vec<f64>,
    /// Flags after `soi serve --data DIR --addr ADDR`.
    pub server_flags: Vec<String>,
    pub warm: Vec<Sample>,
    /// The rate phase, in [`RATE_SLICES`] consecutive slices, each in
    /// schedule order.
    pub rate: Vec<Vec<Sample>>,
    /// Server CPU seconds (`utime + stime`) over the rate phase.
    pub cpu_rate_s: f64,
    pub sat: Vec<Sample>,
    pub sat_wall_s: f64,
    pub ingest: Vec<IngestSample>,
    /// `mixed_ingest`: every op line the server accepted, in order (the
    /// cache-populating prefix, then the acknowledged batches).
    pub accepted_lines: Vec<String>,
    /// `/metrics` just before and just after the rate phase.
    pub metrics_rate: (Metrics, Metrics),
    /// Ring rows of queries at the end of the rate / saturation phase.
    pub ring_rate: Vec<RingRow>,
    pub ring_sat: Vec<RingRow>,
    pub status: Status,
    pub rss_mb: f64,
}

impl Served {
    /// Every rate-phase sample, in schedule order.
    pub fn rate_samples(&self) -> impl Iterator<Item = &Sample> {
        self.rate.iter().flatten()
    }
}

/// Runs `soi gen-deltas` and returns the generated op lines.
pub fn gen_deltas(
    soi: &Path,
    data_dir: &Path,
    out: &Path,
    ops: usize,
    seed: u64,
) -> Result<Vec<String>, String> {
    let output = Command::new(soi)
        .arg("gen-deltas")
        .arg("--data")
        .arg(data_dir)
        .arg("--out")
        .arg(out)
        .args(["--ops", &ops.to_string(), "--seed", &seed.to_string()])
        .args(["--del-ratio", "0.2", "--photo-ratio", "0.3"])
        .output()
        .map_err(|e| format!("spawning soi gen-deltas: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "soi gen-deltas failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.len() != ops {
        return Err(format!("gen-deltas wrote {} of {ops} ops", lines.len()));
    }
    Ok(lines)
}

fn batches(lines: &[String]) -> Vec<String> {
    lines
        .chunks(INGEST_BATCH_OPS)
        .map(|chunk| chunk.join("\n"))
        .collect()
}

/// The `mixed_ingest` server's extra flags, and the untimed boot that
/// fills the cache directory and the journal they name.
fn prepare_ingest(setup: &Setup<'_>, prefix: &[String]) -> Result<Vec<String>, String> {
    let cache: PathBuf = setup.run_dir.join("index-cache");
    let journal: PathBuf = setup.run_dir.join("ingest.log");
    let flags = vec![
        "--index-cache".to_string(),
        cache.display().to_string(),
        "--ingest-log".to_string(),
        journal.display().to_string(),
        "--epoch-max-delta".to_string(),
        EPOCH_MAX_DELTA.to_string(),
    ];
    let server = Server::boot(setup.soi, setup.data_dir, &flags, setup.run_dir)?;
    let never = AtomicBool::new(false);
    let acks = loadgen::ingest_loop(server.addr, &batches(prefix), Duration::ZERO, &never);
    if acks.iter().any(|a| a.status != 200) || acks.iter().filter(|a| a.folded).count() != 1 {
        return Err("the cache-populating ingest did not fold exactly once".to_string());
    }
    server.drain()?;
    Ok(flags)
}

/// What the phases measured while the server ran.
struct Measured {
    metrics_before: Metrics,
    rate: Vec<Vec<Sample>>,
    cpu_rate_s: f64,
    metrics_after: Metrics,
    ring_rate: Vec<RingRow>,
    sat: Vec<Sample>,
    sat_wall: Duration,
}

/// The rate phase as [`RATE_SLICES`] back-to-back open-loop slices, then
/// the saturation phase.
fn drive(
    server: &Server,
    setup: &Setup<'_>,
    workload: Workload,
    requests: &[Request],
    first: usize,
    rate_n: usize,
) -> Result<Measured, String> {
    let rate_clients = workload.rate_clients(setup.clients);
    let metrics_before = server.metrics()?;
    let cpu_before = server.cpu_seconds()?;
    let mut rate = Vec::with_capacity(RATE_SLICES);
    let mut sent = 0;
    for slice in 1..=RATE_SLICES {
        let upto = rate_n * slice / RATE_SLICES;
        rate.push(loadgen::open_loop(
            server.addr,
            requests,
            first + sent,
            upto - sent,
            workload.rate(),
            rate_clients,
        ));
        sent = upto;
    }
    let cpu_rate_s = server.cpu_seconds()? - cpu_before;
    let metrics_after = server.metrics()?;
    let ring_rate = server.ring_queries()?;
    let (sat, sat_wall) = loadgen::closed_loop(
        server.addr,
        requests,
        first + rate_n,
        Duration::from_secs_f64(setup.phases.sat_s),
        SAT_CLIENTS,
    );
    Ok(Measured {
        metrics_before,
        rate,
        cpu_rate_s,
        metrics_after,
        ring_rate,
        sat,
        sat_wall,
    })
}

/// Boots the server, drives the phases, scrapes. The server is returned
/// still serving, so the caller can verify against it and then drain it.
pub fn run(
    setup: &Setup<'_>,
    workload: Workload,
    requests: &[Request],
    delta_lines: &[String],
) -> Result<(Served, Server), String> {
    let phases = setup.phases;
    let count = |seconds: f64| (seconds * workload.rate()).round().max(1.0) as usize;
    let (warm_n, rate_n) = (count(phases.warm_s), count(phases.rate_s));

    let mut accepted_lines = Vec::new();
    let mut run_lines: &[String] = &[];
    let extra_flags = if workload.ingests() {
        let needed = phases.ingest_ops();
        let lines = delta_lines
            .get(..needed)
            .ok_or_else(|| format!("mixed_ingest needs {needed} delta ops"))?;
        let (prefix, rest) = lines.split_at(INGEST_PREFIX_OPS);
        accepted_lines.extend_from_slice(prefix);
        run_lines = rest;
        prepare_ingest(setup, prefix)?
    } else {
        Vec::new()
    };

    // setup_s: the median of `boots` boots; the last one serves the run.
    let mut boots_s = Vec::with_capacity(setup.boots);
    let mut server = Server::boot(setup.soi, setup.data_dir, &extra_flags, setup.run_dir)?;
    boots_s.push(server.boot.as_secs_f64());
    for _ in 1..setup.boots {
        server.drain()?;
        server = Server::boot(setup.soi, setup.data_dir, &extra_flags, setup.run_dir)?;
        boots_s.push(server.boot.as_secs_f64());
    }

    let warm = loadgen::open_loop(
        server.addr,
        requests,
        0,
        warm_n,
        workload.rate(),
        workload.rate_clients(setup.clients),
    );

    // The writer, if any, posts beside both measured phases.
    let stop_writer = AtomicBool::new(false);
    let bodies = batches(run_lines);
    let (measured, ingest) = std::thread::scope(|scope| {
        let writer = (!bodies.is_empty()).then(|| {
            scope
                .spawn(|| loadgen::ingest_loop(server.addr, &bodies, INGEST_INTERVAL, &stop_writer))
        });
        let measured = drive(&server, setup, workload, requests, warm_n, rate_n);
        stop_writer.store(true, Ordering::SeqCst);
        let ingest = writer.map_or_else(Vec::new, |w| w.join().expect("ingest writer panicked"));
        (measured, ingest)
    });
    let measured = measured?;

    for (ack, batch) in ingest.iter().zip(run_lines.chunks(INGEST_BATCH_OPS)) {
        if ack.status == 200 {
            accepted_lines.extend_from_slice(batch);
        }
    }
    let served = Served {
        boots_s,
        server_flags: crate::server::SERVE_FLAGS
            .iter()
            .map(|s| s.to_string())
            .chain(extra_flags)
            .collect(),
        warm,
        rate: measured.rate,
        cpu_rate_s: measured.cpu_rate_s,
        sat: measured.sat,
        sat_wall_s: measured.sat_wall.as_secs_f64(),
        ingest,
        accepted_lines,
        metrics_rate: (measured.metrics_before, measured.metrics_after),
        ring_rate: measured.ring_rate,
        ring_sat: server.ring_queries()?,
        status: server.status()?,
        rss_mb: server.peak_rss_mb()?,
    };
    Ok((served, server))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_split_the_seconds() {
        let p = Phases::split(40.0);
        assert_eq!((p.warm_s, p.rate_s, p.sat_s), (2.0, 26.0, 12.0));
        let p = Phases::split(20.0);
        assert_eq!((p.warm_s, p.rate_s, p.sat_s), (1.0, 13.0, 6.0));
        let p = Phases::split(5.0);
        assert_eq!((p.warm_s, p.rate_s, p.sat_s), (0.5, 3.0, 1.5));
    }

    #[test]
    fn batches_join_sixteen_ops_a_piece() {
        let lines: Vec<String> = (0..40).map(|i| format!("op{i}")).collect();
        let joined = batches(&lines);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined[0].lines().count(), INGEST_BATCH_OPS);
        assert_eq!(joined[2], "op32\nop33\nop34\nop35\nop36\nop37\nop38\nop39");
    }
}
