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
//! | `POST /soi`               | k-SOI query (queued, deadline-bounded)        |
//! | `POST /describe`          | street description (queued, deadline-bounded) |
//! | `POST /explain`           | `/soi` with `"explain": true` (same body)     |
//! | `GET /metrics`            | Prometheus text exposition                    |
//! | `GET /status`             | liveness + queue/drain state + SLO windows    |
//! | `GET /explain`            | `POST /explain`, from a query string          |
//! | `GET /debug/requests`     | recent-requests ring summary                  |
//! | `GET /debug/requests/<id>`| one request record, artifacts embedded        |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
mod journal;
pub mod obs;
pub mod queue;
pub mod ring;
pub mod server;
pub mod signal;

pub use server::{serve, ServeConfig, ServeReport};
