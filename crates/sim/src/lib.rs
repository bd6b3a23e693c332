//! # smartflux-sim — deterministic simulation & property-testing harness
//!
//! FoundationDB-style simulation testing for the whole SmartFlux stack:
//! a single `u64` seed expands into a random-but-fully-determined
//! [`Scenario`] — an arbitrary workflow DAG, a drifting/spiking write
//! stream, retry/durability/net configuration and a scripted fault
//! schedule — which the harness then drives through the real engine,
//! scheduler, store, durability and network planes while a set of
//! whole-stack **oracles** watches for divergence:
//!
//! 1. **Determinism** — running the same scenario twice must produce
//!    bit-identical decisions, store exports and logical clocks.
//! 2. **Crash-equivalence** — a run killed at scripted wave boundaries
//!    and recovered from its checkpoint must match the uninterrupted run
//!    decision-for-decision.
//! 3. **Wire-equivalence** — the same scenario driven through the
//!    loopback network plane must match the in-process run.
//! 4. **Invariants** — logical clock == applied writes, contiguous wave
//!    numbers within a session segment and every scheduled wave run, each
//!    `wms.*` counter equal to the segments' `ExecutionStats`, aborted
//!    waves equal to the `StepFailed` errors, trace trees connected, and
//!    the journal sink fed exactly the engine's decision rows.
//!
//! When an oracle trips, the harness **shrinks** the scenario (fewer
//! waves, fewer faults, smaller DAG, simpler plans) while the failure
//! persists and prints a one-line repro string (`sfsim1;…`) that replays
//! the minimal failing case from scratch.
//!
//! There is no ambient entropy and no wall-clock dependence anywhere in
//! the harness: randomness flows from [`SimRng`] (seeded splitmix64
//! streams) and simulated time from [`VirtualClock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod faults;
pub mod harness;
pub mod oracles;
pub mod rng;
pub mod scenario;
pub mod shrink;
pub mod sweep;
pub mod workload;

pub use clock::VirtualClock;
pub use error::SimError;
pub use harness::{RaceReport, RunArtifacts, Segment, WireArtifacts};
pub use oracles::Violation;
pub use rng::SimRng;
pub use scenario::{DurabilityPlan, FaultKind, NetPlan, Scenario, StepFault};
pub use shrink::Failure;
pub use sweep::{SweepOptions, SweepOutcome};
