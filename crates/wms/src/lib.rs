//! A wave-driven workflow management system (WMS) for continuous processing.
//!
//! This crate is the workflow substrate of the SmartFlux reproduction,
//! standing in for Apache Oozie. It provides:
//!
//! - a DAG workflow model ([`WorkflowGraph`], built with [`GraphBuilder`]);
//! - a [`Step`] trait for processing-step implementations, which communicate
//!   exclusively through [`smartflux_datastore`] containers;
//! - a [`Workflow`] binding steps to their input/output containers and QoD
//!   annotations (the paper's extended Oozie XML schema, as a typed builder);
//! - a wave-based [`Scheduler`] whose triggering is delegated to a pluggable
//!   [`TriggerPolicy`] — the integration surface SmartFlux patches (the
//!   paper's "WMS Adaptation" component). Its hooks are also the
//!   completion notifications of the paper's Oozie↔SmartFlux RMI scheme:
//!   one `begin_wave`, one decision per step reached, one `end_wave`;
//! - per-step execution statistics ([`ExecutionStats`]), the resource-usage
//!   metric of the paper's evaluation;
//! - fault tolerance: per-step [`RetryPolicy`] (bounded, immediate
//!   attempts, each on the thread that runs the wave), clean wave-abort
//!   semantics (the policy still sees `step_failed` then `end_wave`, the
//!   wave returns [`WmsError::StepFailed`], and the next wave is fresh),
//!   and a deterministic fault-injection harness ([`FaultyStep`]) for
//!   chaos tests.
//!
//! # Triggering semantics
//!
//! Under the classic Synchronous Data-Flow model every step runs on every
//! wave. This engine generalises that: a step is *eligible* once all its
//! predecessors have completed at least one execution ever (§2 of the paper),
//! and an eligible step actually runs when the trigger policy approves it.
//! [`SynchronousPolicy`] approves everything — the SDF baseline; the
//! SmartFlux core crate supplies the adaptive policies.
//!
//! # Example
//!
//! ```
//! use smartflux_datastore::{DataStore, Value, ContainerRef};
//! use smartflux_wms::{GraphBuilder, Workflow, Scheduler, SynchronousPolicy, FnStep};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let store = DataStore::new();
//! let raw = ContainerRef::family("t", "raw");
//! let sum = ContainerRef::family("t", "sum");
//! store.ensure_container(&raw)?;
//! store.ensure_container(&sum)?;
//!
//! let mut graph = GraphBuilder::new("pipeline");
//! let ingest = graph.add_step("ingest");
//! let total = graph.add_step("total");
//! graph.add_edge(ingest, total)?;
//!
//! let mut workflow = Workflow::new(graph.build()?);
//! workflow
//!     .bind(ingest, FnStep::new(|ctx| {
//!         let wave = ctx.wave() as f64;
//!         ctx.put("t", "raw", "r", "v", Value::from(wave))?;
//!         Ok(())
//!     }))
//!     .source()                  // sources always run
//!     .writes(raw.clone());
//! workflow
//!     .bind(total, FnStep::new(|ctx| {
//!         let v = ctx.get("t", "raw", "r", "v")?.and_then(|v| v.as_f64()).unwrap_or(0.0);
//!         ctx.put("t", "sum", "r", "v", Value::from(v * 2.0))?;
//!         Ok(())
//!     }))
//!     .reads(raw)
//!     .writes(sum);
//!
//! let mut scheduler = Scheduler::new(workflow, store, Box::new(SynchronousPolicy));
//! scheduler.run_waves(3)?;
//! assert_eq!(scheduler.stats().executions(total), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod faults;
mod graph;
mod policy;
mod retry;
mod scheduler;
mod stats;
mod step;
mod workflow;

pub use error::{GraphError, WmsError};
pub use faults::{FaultSchedule, FaultyStep};
pub use graph::{GraphBuilder, StepId, WorkflowGraph};
pub use policy::{SynchronousPolicy, TriggerPolicy};
pub use retry::RetryPolicy;
pub use scheduler::{Scheduler, WaveId, WaveOutcome};
pub use stats::ExecutionStats;
pub use step::{FnStep, Step, StepContext, StepError};
pub use workflow::{StepBindingBuilder, StepInfo, Workflow};
