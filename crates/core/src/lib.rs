//! SmartFlux: QoD-driven adaptive execution of continuous, data-intensive
//! workflows.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Adaptive Execution of Continuous and Data-intensive Workflows with
//! Machine Learning*, Middleware 2018): a middleware that sits between a
//! workflow management system ([`smartflux_wms`]) and a columnar data store
//! ([`smartflux_datastore`]) and decides, wave by wave, which processing
//! steps are worth executing.
//!
//! # How it works
//!
//! 1. Steps declare **Quality-of-Data** bounds: a maximum tolerated output
//!    error `maxε` ([`ErrorBound`]) attached to their container annotations.
//! 2. The engine has the data store keep a **change set** per monitored
//!    container (the paper's Monitoring component, §4); [`MetricFn`]
//!    implementations quantify the **input impact** `ι` (Eq. 1–2) of new
//!    data and the **output error** `ε` (Eq. 3–4) a skipped execution would
//!    leave behind. The built-in ones are [`MetricKind`] variants; a metric
//!    of your own is a [`MetricFn`] passed as [`MetricKind::Custom`].
//! 3. During a synchronous **training phase** the [`QodEngine`] collects
//!    `(ι, ε > maxε)` examples in the [`KnowledgeBase`], then builds a
//!    multi-label Random Forest [`Predictor`] and validates it with each
//!    forest's out-of-bag votes (the test phase).
//! 4. In the **application phase** the engine triggers only the steps whose
//!    error bound the model predicts would otherwise be violated — saving
//!    resources while keeping the output within `maxε` with high
//!    confidence ([`ConfidenceTracker`]).
//!
//! The easiest way in is [`SmartFluxSession`]; the [`eval`] module provides
//! the paper's twin-run evaluation methodology (measured vs predicted
//! errors, confidence levels, baseline policies, the oracle).
//!
//! # Example
//!
//! See [`SmartFluxSession`] for a complete training-then-adaptive run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;

mod confidence;
mod config;
mod diagnostics;
mod engine;
mod error;
mod frozen;
mod knowledge;
mod metric;
mod policy;
mod predictor;
mod qod;
mod session;

pub use confidence::ConfidenceTracker;
pub use config::EngineConfig;
pub use diagnostics::{Diagnostics, DiagnosticsIter};
pub use engine::{Phase, QodEngine, SharedEngine};
pub use error::CoreError;
pub use knowledge::{KnowledgeBase, KnowledgeRow};
pub use metric::{
    MagnitudeImpact, MeanRelativeError, MetricContext, MetricFn, MetricKind, RelativeError,
    RelativeImpact, RmseError,
};
pub use policy::{EveryNPolicy, RandomSkipPolicy};
pub use predictor::{ModelKind, Predictor, PredictorQuality};
pub use qod::{AccumulationMode, ErrorBound, ImpactCombiner, QodSpec};
pub use session::SmartFluxSession;

// Re-export the durability surface so applications can configure
// crash-safety and recovery without naming the durability crate.
pub use smartflux_durability::{DurabilityError, DurabilityOptions};
// The deprecated items the benchmark spells through this crate. A glob,
// so this line names no deprecated item.
pub use frozen::*;

// Re-export the telemetry surface so applications need only this crate to
// consume metrics snapshots and journals.
pub use smartflux_telemetry::{
    names as telemetry_names, read_journal, GroundTruth, JournalEntry, JournalError, JsonlSink,
    MemoryJournal, MetricsSnapshot, Telemetry, WaveDiagnostics,
};
