//! WMS error types.

use std::error::Error;
use std::fmt;

use crate::step::StepError;

/// Errors produced while constructing a workflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a step id not created by this builder.
    UnknownStep(usize),
    /// An edge connected a step to itself.
    SelfLoop(String),
    /// Two steps were given the same name.
    DuplicateStepName(String),
    /// The edges formed a cycle; workflows must be DAGs.
    Cycle(String),
    /// The graph contains no steps.
    Empty(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownStep(i) => write!(f, "edge references unknown step index {i}"),
            GraphError::SelfLoop(s) => write!(f, "step `{s}` depends on itself"),
            GraphError::DuplicateStepName(s) => write!(f, "duplicate step name `{s}`"),
            GraphError::Cycle(w) => write!(f, "workflow `{w}` contains a dependency cycle"),
            GraphError::Empty(w) => write!(f, "workflow `{w}` has no steps"),
        }
    }
}

impl Error for GraphError {}

/// Errors produced while running a workflow.
#[derive(Debug)]
pub enum WmsError {
    /// A step has no bound implementation.
    UnboundStep(String),
    /// A step implementation failed (after exhausting its retry budget).
    StepFailed {
        /// Name of the failing step.
        step: String,
        /// Wave during which the failure occurred.
        wave: u64,
        /// Total attempts performed (1 when retries are disabled).
        attempts: u32,
        /// The underlying failure.
        source: StepError,
    },
}

impl fmt::Display for WmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmsError::UnboundStep(s) => write!(f, "step `{s}` has no bound implementation"),
            WmsError::StepFailed {
                step,
                wave,
                attempts,
                source,
            } => {
                write!(f, "step `{step}` failed at wave {wave}")?;
                if *attempts > 1 {
                    write!(f, " after {attempts} attempts")?;
                }
                write!(f, ": {source}")
            }
        }
    }
}

impl Error for WmsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WmsError::StepFailed { source, .. } => Some(source),
            WmsError::UnboundStep(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_error_display() {
        assert_eq!(
            GraphError::Cycle("w".into()).to_string(),
            "workflow `w` contains a dependency cycle"
        );
        assert_eq!(
            GraphError::DuplicateStepName("s".into()).to_string(),
            "duplicate step name `s`"
        );
    }

    #[test]
    fn wms_error_exposes_source() {
        let e = WmsError::StepFailed {
            step: "s".into(),
            wave: 3,
            attempts: 1,
            source: StepError::msg("boom"),
        };
        assert!(e.to_string().contains("wave 3"));
        assert!(!e.to_string().contains("attempts"), "1 attempt is implied");
        assert!(e.source().is_some());
        let e = WmsError::StepFailed {
            step: "s".into(),
            wave: 3,
            attempts: 3,
            source: StepError::msg("boom"),
        };
        assert!(e.to_string().contains("after 3 attempts"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
        assert_send_sync::<WmsError>();
    }
}
