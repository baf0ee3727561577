//! In-repo observability for the streets-of-interest workspace.
//!
//! This crate is the single substrate every other crate instruments
//! against. It is deliberately dependency-free (it must build offline and
//! sit below `soi-common` in the crate graph) and designed so that
//! instrumentation left compiled into release binaries costs near nothing
//! while disabled:
//!
//! - [`trace`]: spans ([`trace::span`] RAII guards, [`trace::begin`] /
//!   [`trace::end`] pairs for non-lexical phases) and sampled counter
//!   tracks, recorded into lock-free per-thread buffers and drained into
//!   Chrome `trace_event` JSON (load the file at `chrome://tracing` or
//!   <https://ui.perfetto.dev>). When tracing is off — the default — every
//!   entry point is one relaxed atomic load.
//! - [`metrics`]: a process-wide registry of named counters, gauges, and
//!   fixed-bucket latency histograms (with p50/p95/p99 estimation),
//!   rendered in the Prometheus text exposition format by
//!   [`metrics::gather`]. Metrics are always on: the recording cost is an
//!   atomic add, and the hot query loops batch their counts locally (in
//!   `QueryStats`-style structs) and absorb them once per query.
//! - [`log`]: a structured event log that renders either as human-readable
//!   text (the default, preserving the CLI's `eprintln!` behaviour) or as
//!   machine-readable JSON lines (`--log-json`), one event per line on
//!   stderr.
//! - [`json`]: the minimal JSON writer and parser backing the trace and
//!   log output (the workspace has no serializer dependency, so the bytes
//!   are produced by hand), plus validation for CI artifact checks.
//! - [`names`]: the canonical span taxonomy and algorithm phase names, so
//!   spans, per-query stats, and logs all agree on the same strings.
//! - [`alloc`]: memory accounting — a counting `#[global_allocator]`
//!   wrapper around the system allocator (installed workspace-wide by
//!   linking this crate) with process totals, thread-local counters, and
//!   scoped [`alloc::AllocScope`] measurement for per-query and per-build
//!   accounting.

// `unsafe` is denied crate-wide and allowed in exactly one place: the
// `alloc` module's `GlobalAlloc` delegation (an unsafe trait by design).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Observability must never take a process down: unwrap and expect are
// compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod json;
pub mod log;
pub mod metrics;
pub mod names;
pub mod trace;

pub use alloc::{AllocScope, AllocStats};
pub use trace::{Span, TraceEvent};
