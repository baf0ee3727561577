//! `soi-serve`: a production serving layer for the k-SOI query engine.
//!
//! A dependency-free HTTP/1.1 server over `std::net` with production
//! posture: bounded request parsing (slow-loris and oversized bodies are
//! rejected in bounded time), a bounded admission queue that sheds load
//! with an immediate 503 when full, per-request deadlines threaded into
//! the algorithms as [`soi_core::QueryBudget`] (expired queries degrade to
//! anytime *partial* results instead of blowing their latency target), and
//! graceful drain on `SIGTERM`.
//!
//! Every accepted request is assigned a monotonic request id (returned in
//! the `x-soi-request-id` response header and stamped into trace events),
//! can opt into a request-scoped trace/explain capture via `"trace": true`
//! / `"explain": true` body fields, and leaves a record in a bounded
//! recent-requests ring inspectable at `GET /debug/requests`.
//!
//! Routes:
//!
//! | Route                     | Semantics                                     |
//! |---------------------------|-----------------------------------------------|
//! | `POST /soi`               | k-SOI query (queued, deadline-bounded); with  |
//! |                           | `"explain": true` it embeds Alg. 1's report   |
//! | `POST /describe`          | street description (queued, deadline-bounded) |
//! | `POST /ingest`            | live POI/photo updates (journaled, may fold)  |
//! | `GET /metrics`            | Prometheus text exposition                    |
//! | `GET /status`             | liveness + queue/drain state + SLO windows    |
//! | `GET /debug/requests`     | recent-requests ring summary                  |
//! | `GET /debug/requests/<id>`| one request record, artifacts embedded        |
//!
//! Modules, in the order a request crosses them:
//!
//! - [`http`]: bounded request parsing and response writing;
//! - [`queue`]: the one bounded queue both worker pools pop from
//!   (connections to the IO workers, jobs to the engine workers), the
//!   jobs, and the per-request result slots;
//! - `server`: boot ([`serve`]), then one file per stage under `server/` —
//!   IO and admission, routes and request parsing, the engine workers and
//!   rendering, ingest and fold, and the debug and status routes;
//! - `ring`: the recent-requests ring behind `GET /debug/requests`;
//! - `journal`: the `POST /ingest` journal replayed at boot;
//! - `obs`: the serving metrics; [`signal`]: SIGTERM/SIGINT to drain;
//! - [`client`]: a minimal blocking HTTP client for tools and tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
pub mod http;
mod journal;
mod obs;
pub mod queue;
mod ring;
mod server;
pub mod signal;

pub use server::{serve, ServeConfig, ServeReport};
