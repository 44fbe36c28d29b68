//! Clustering-as-a-service daemon over `dbscan-core`.
//!
//! A long-lived, std-only server speaking a newline-delimited JSON line
//! protocol over a unix socket or TCP, with the robustness layers ROADMAP
//! item 2 calls for:
//!
//! * **admission control** — a bounded job queue; submissions past
//!   `max_queue` are shed with an explicit `retry_after_ms` instead of
//!   queuing unboundedly, and every request is validated through the typed
//!   [`DbscanError`](dbscan_core::DbscanError) surface with
//!   [`ResourceLimits`](dbscan_core::ResourceLimits) enforced per request;
//! * **tenant fault isolation** — each job runs under `catch_unwind` plus
//!   its own [`RunCtl`](dbscan_core::RunCtl); a panicking or fault-injected
//!   request becomes a typed error line while concurrent requests complete
//!   bit-identically to standalone runs;
//! * **deadlines and load-shed degradation** — per-request deadline
//!   policies, plus a server-level overload valve that re-runs queued exact
//!   jobs ρ-approximately once their queue age passes the pressure
//!   threshold (Sandwich-Theorem valid, Gan & Tao Theorem 3);
//! * **graceful shutdown** — SIGTERM or the `shutdown` verb drains in-flight
//!   work under a drain deadline and joins every thread it spawned;
//! * a bounded, LRU-evicted **structure cache** so repeat queries skip the
//!   grid/core-label rebuild;
//! * a **telemetry plane** — a Prometheus-style `metrics` verb (plus an
//!   optional scrape-only HTTP listener), per-request trace capture
//!   (`submit {"trace":"chrome"|"folded"}` returns an inline, size-capped
//!   trace), structured JSON-lines logging with rotation, and a rolling
//!   health time-series behind a `timeseries` verb;
//! * **crash durability** — an opt-in write-ahead job journal
//!   (`--journal DIR`): admitted submissions are checksummed, appended, and
//!   fsync'd before the ack, terminal transitions append tombstones before
//!   they become visible, and startup replays the log (truncating torn
//!   tails) so a `kill -9` loses no acked work;
//! * **wire hardening** — byte-level framing with a hard `--max-frame-bytes`
//!   cap (no unbounded `read_line`), `--conn-timeout` slow-loris eviction,
//!   a `--max-conns` accept gate, a parser nesting bound, and malformed
//!   frame accounting, so hostile clients degrade into typed error lines
//!   and counters instead of memory or thread exhaustion.
//!
//! See the README's "Running as a service" and "Monitoring the daemon"
//! sections for the protocol grammar and EXPERIMENTS.md for the
//! `dbscan-server-stats/v1` and `dbscan-server-metrics/v1` envelopes.

pub mod cache;
pub mod client;
pub mod journal;
pub mod json;
pub mod logging;
pub mod metrics;
pub mod server;
pub mod signals;
pub mod telemetry;

pub use client::{Backoff, Client};
pub use journal::{JournalConfig, JournalSync};
pub use logging::{Level, Logger};
pub use metrics::{parse_exposition, MCounter, MHist, Metrics};
pub use server::{label_hash, start, Bind, ServerConfig, ServerHandle};
pub use telemetry::{HealthRing, HealthSample, Telemetry};
