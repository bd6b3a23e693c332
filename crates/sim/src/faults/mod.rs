//! Reusable fault injectors shared by the simulation harness and the
//! crate-level test suites.
//!
//! Step-level faults (scripted failures) come straight from
//! [`smartflux_wms::FaultyStep`] and are wired into generated workflows by
//! [`crate::workload`]. This module adds the injectors that live *below*
//! the step layer — today the [`wire`] byte-stream mutators promoted out
//! of the `smartflux-net` frame-damage battery.

pub mod wire;
