//! # smartflux-obs — the live observability plane
//!
//! SmartFlux's whole premise is *observed* quality: the engine skips work
//! only because it continuously tracks impact ι, error ε, and classifier
//! confidence per wave. This crate makes that state continuously
//! servable instead of post-hoc:
//!
//! - **[`ObsServer`]** — a dependency-free HTTP/1.1 server exposing
//!   `/metrics` (OpenMetrics text), `/healthz` (engine phase, checkpoint
//!   lag, last-wave age), `/waves` (recent wave decisions as JSON), and
//!   `/trace` (Chrome trace JSON for Perfetto).
//! - **[`RingTraceSink`] / [`RingJournal`]** — lock-free bounded rings
//!   that retain the newest spans and waves' decision rows at fixed
//!   memory cost; the production consumers of
//!   [`Telemetry::set_trace_sink`] and the journal sinks.
//! - **[`trace`]** — causal span-tree reassembly (`trace_id` /
//!   `span_id` / `parent_id`) and the invariants the scheduler's span
//!   taxonomy guarantees.
//! - **[`openmetrics`] / [`perfetto`]** — the exposition renderers, plus
//!   a hand-rolled OpenMetrics parser for conformance checks.
//! - **[`ListenerPool`]** — the shared blocking TCP accept/worker-pool
//!   skeleton (with the release/acquire shutdown flag and loopback-wake
//!   drain) used by both this crate's HTTP server and the
//!   `smartflux-net` engine host.
//!
//! Layering: this crate depends only on `smartflux-telemetry` (and the
//! vendored `parking_lot`), so any layer that owns a [`Telemetry`]
//! handle can serve it.
//!
//! [`Telemetry`]: smartflux_telemetry::Telemetry
//! [`Telemetry::set_trace_sink`]: smartflux_telemetry::Telemetry::set_trace_sink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod listener;
pub mod openmetrics;
pub mod perfetto;
mod ring;
mod server;
pub mod trace;

pub use listener::{ListenerPool, StopFlag};
pub use ring::{RingJournal, RingTraceSink};
pub use server::{preregister, ObsServer, ObsSources};
