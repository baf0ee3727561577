//! The served process: spawning `soi serve`, timing its boot, reading the
//! kernel's accounting for it, and draining it with `SIGTERM`.

use crate::scrape;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The serving flags, passed explicitly so `results.json` records exactly
/// what was measured: the shipped defaults, engine threads automatic,
/// except the deadline. The shipped 250 ms turns a stall of this shared
/// host during a fold into a `partial` answer — a failed operation — and a
/// benchmark must not fail operations because its host hiccuped. One
/// second is still the latency limit: a `partial` answer counts as failed.
pub const SERVE_FLAGS: [&str; 8] = [
    "--io-threads",
    "4",
    "--queue",
    "64",
    "--batch-max",
    "8",
    "--deadline-ms",
    "1000",
];

/// The `--deadline-ms` above, for the in-process replay.
pub const DEADLINE: Duration = Duration::from_millis(1000);

/// How long a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drain may take after `SIGTERM`.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

#[allow(unsafe_code)]
mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn sysconf(name: i32) -> i64;
    }
    const SIGTERM: i32 = 15;
    const SC_CLK_TCK: i32 = 2;

    /// Sends `SIGTERM` to `pid`; false when the process is already gone.
    pub fn terminate(pid: u32) -> bool {
        // SAFETY: `kill` takes two integers and touches no memory of this
        // process; `pid` is a child this process spawned and has not
        // reaped, so it cannot name an unrelated process.
        unsafe { kill(pid as i32, SIGTERM) == 0 }
    }

    /// Clock ticks per second of `/proc/<pid>/stat` times.
    pub fn clock_ticks_per_second() -> f64 {
        // SAFETY: `sysconf` takes one integer and returns one.
        let ticks = unsafe { sysconf(SC_CLK_TCK) };
        if ticks > 0 {
            ticks as f64
        } else {
            100.0
        }
    }
}

/// The server's own final report (`--stats-json`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainReport {
    pub requests: u64,
    pub errors: u64,
    pub panics: u64,
    pub drained: bool,
}

/// A running `soi serve` child process.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// Spawn to first `200` on `/status`.
    pub boot: Duration,
    stats_json: PathBuf,
}

impl Server {
    /// Spawns `soi serve --data data_dir` with the shipped flags plus
    /// `extra`, and waits for the first `200` on `/status`. Server output
    /// goes to `log_dir/serve.{out,err}` (appended across boots).
    pub fn boot(
        soi: &Path,
        data_dir: &Path,
        extra: &[String],
        log_dir: &Path,
    ) -> Result<Self, String> {
        // Reserve a free loopback port, then hand it to the server.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("reserving a port: {e}"))?;
        let open = |name: &str| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(log_dir.join(name))
                .map_err(|e| format!("opening {name}: {e}"))
        };
        let stats_json = log_dir.join("serve.report.json");
        let _ = std::fs::remove_file(&stats_json);
        let started = Instant::now();
        let child = Command::new(soi)
            .arg("serve")
            .arg("--data")
            .arg(data_dir)
            .args(["--addr", &addr.to_string()])
            .args(SERVE_FLAGS)
            .arg("--stats-json")
            .arg(&stats_json)
            .args(extra)
            // The engine resolves its worker count from this variable
            // before the core count; the benchmark measures the default.
            .env_remove("SOI_THREADS")
            .stdin(Stdio::null())
            .stdout(open("serve.out")?)
            .stderr(open("serve.err")?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", soi.display()))?;
        let mut server = Server {
            child: Some(child),
            addr,
            boot: Duration::ZERO,
            stats_json,
        };
        loop {
            if let Ok(response) =
                soi_serve::client::request(addr, "GET", "/status", None, SCRAPE_TIMEOUT)
            {
                if response.status == 200 {
                    server.boot = started.elapsed();
                    return Ok(server);
                }
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!(
                        "soi serve exited during boot ({status}); see {}",
                        log_dir.join("serve.err").display()
                    ));
                }
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("soi serve did not answer /status in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// `GET path`, requiring a `200`.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let response = soi_serve::client::request(self.addr, "GET", path, None, SCRAPE_TIMEOUT)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET {path}: status {}", response.status));
        }
        Ok(response.body)
    }

    pub fn metrics(&self) -> Result<scrape::Metrics, String> {
        self.get("/metrics")
            .map(|text| scrape::Metrics::parse(&text))
    }

    /// Rows of the `/soi` and `/describe` requests among the ring's most
    /// recent 256 (the benchmark's own scrapes are ring rows too).
    pub fn ring_queries(&self) -> Result<Vec<scrape::RingRow>, String> {
        let mut rows = scrape::parse_ring(&self.get("/debug/requests?limit=256")?)?;
        rows.retain(|r| r.endpoint == "/soi" || r.endpoint == "/describe");
        Ok(rows)
    }

    pub fn status(&self) -> Result<scrape::Status, String> {
        scrape::parse_status(&self.get("/status")?)
    }

    /// CPU seconds (`utime + stime`) the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let ticks =
            scrape::parse_proc_stat_ticks(&stat).ok_or_else(|| format!("{path}: unparsable"))?;
        Ok(ticks as f64 / sys::clock_ticks_per_second())
    }

    /// Peak resident set so far, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb = scrape::parse_vm_hwm_kb(&status).ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kb as f64 / 1024.0)
    }

    /// `SIGTERM`, then requires exit code 0 and a report that says the
    /// queue drained and nothing panicked.
    pub fn drain(mut self) -> Result<DrainReport, String> {
        let mut child = self.child.take().ok_or("server already reaped")?;
        sys::terminate(child.id());
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < DRAIN_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("soi serve did not drain after SIGTERM".to_string());
                }
                Err(e) => return Err(format!("waiting for soi serve: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("soi serve exited with {status}"));
        }
        let text = std::fs::read_to_string(&self.stats_json)
            .map_err(|e| format!("{}: {e}", self.stats_json.display()))?;
        let doc = soi_obs::json::parse(&text)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(soi_obs::json::Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("server report lacks {key:?}"))
        };
        let report = DrainReport {
            requests: num("requests")?,
            errors: num("errors")?,
            panics: num("panics")?,
            drained: doc
                .get("drained")
                .and_then(soi_obs::json::Json::as_bool)
                .ok_or("server report lacks \"drained\"")?,
        };
        if !report.drained || report.panics > 0 {
            return Err(format!("unclean drain: {report:?}"));
        }
        Ok(report)
    }
}

impl Drop for Server {
    /// An error path must not leave the server behind.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
