//! SmartFlux's networked ingestion & serving plane.
//!
//! Everything below `smartflux-net` runs in one process; this crate puts
//! the engine behind a socket so external feeders and dashboards can
//! drive it. It is dependency-free by design (blocking `std::net`, like
//! the observability plane's HTTP listener) and splits into:
//!
//! - [`wire`] — the SFNP v2 framed binary protocol: `len|crc|payload`
//!   envelopes reusing the durability codec's conventions, a versioned
//!   handshake, and typed error frames. Torn and corrupt frames are
//!   distinguished exactly like WAL damage and can never panic a peer.
//! - [`registry`] — named workload catalogue
//!   ([`WorkflowRegistry`]): clients open sessions by name; code never
//!   travels over the wire.
//! - [`host`] — the [`EngineHost`]: N independent SmartFlux sessions,
//!   every request run on its caller's thread under the session's mutex
//!   (the host owns no thread), a per-session bound on waiting callers
//!   with an explicit [`Response::Busy`] overload answer, orderly
//!   checkpoint-on-shutdown and crash-style [`EngineHost::kill`].
//! - [`server`] — [`NetServer`], the TCP front end built on the shared
//!   [`ListenerPool`](smartflux_obs::ListenerPool).
//! - [`client`] — the blocking [`Client`] library.
//!
//! The plane is *equivalence-preserving*: a workload driven through the
//! socket makes bit-for-bit the same decisions, store state, and logical
//! clock as the same workload driven in-process (the soak suite proves
//! it over a 200-wave Linear Road run with four concurrent clients).
//! `net.*` telemetry lands on the host's [`Telemetry`] handle and is
//! served by the observability plane's `/metrics` endpoint.
//!
//! [`Telemetry`]: smartflux_telemetry::Telemetry

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
mod frozen;
pub mod host;
pub mod registry;
pub mod server;
pub mod wire;

pub use client::{Client, IngestReceipt, OpenedSession};
pub use error::NetError;
pub use host::{EngineHost, HostConfig, ShutdownReport};
pub use registry::{WorkflowBuilder, WorkflowRegistry};
pub use server::NetServer;
pub use wire::{
    ContainerWrite, DecisionRow, ErrorCode, Request, Response, SessionSpec, WaveReport, MAGIC,
    MAX_FRAME, VERSION,
};
