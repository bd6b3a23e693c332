//! Core error types.

use std::error::Error;
use std::fmt;

use smartflux_datastore::StoreError;
use smartflux_durability::DurabilityError;
use smartflux_ml::MlError;
use smartflux_wms::WmsError;

/// Errors raised by the SmartFlux middleware.
#[derive(Debug)]
pub enum CoreError {
    /// A vector did not match the number of QoD-managed steps.
    ShapeMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// Not enough training examples were collected.
    InsufficientTraining {
        /// Examples available.
        have: usize,
        /// Examples required.
        need: usize,
    },
    /// The test phase scored nothing: every tree of every forest drew every
    /// knowledge-base row, so no row was left out of bag to judge the
    /// model by. Its quality is unknown, not perfect.
    EmptyTestPhase {
        /// Knowledge-base rows the forests were fitted on.
        rows: usize,
    },
    /// No model could be built from what the workload produced, even
    /// after every training extension
    /// ([`QodEngine::training_exhausted`](crate::QodEngine::training_exhausted)).
    TrainingUnfinished {
        /// Training waves run by the call that gave up.
        waves: u64,
    },
    /// An operation required a trained predictor but none exists yet.
    NotTrained,
    /// A data-store operation failed.
    Store(StoreError),
    /// A workflow execution failed.
    Workflow(WmsError),
    /// A machine-learning operation failed.
    Ml(MlError),
    /// The workflow has no QoD-managed steps, so there is nothing to adapt.
    NoQodSteps,
    /// A configuration referenced a step name the workflow does not have.
    UnknownStep(String),
    /// A QoD-managed step carried a missing or out-of-range error bound.
    InvalidBound {
        /// Step whose annotation is broken.
        step: String,
        /// What was wrong with the bound.
        detail: String,
    },
    /// Opening the telemetry journal sink failed.
    Journal(std::io::Error),
    /// A write-ahead-log, checkpoint, or recovery operation failed.
    Durability(DurabilityError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ShapeMismatch { expected, found } => {
                write!(f, "expected {expected} per-step values, got {found}")
            }
            CoreError::InsufficientTraining { have, need } => {
                write!(
                    f,
                    "insufficient training examples: have {have}, need {need}"
                )
            }
            CoreError::EmptyTestPhase { rows } => write!(
                f,
                "test phase scored no example: every tree drew all {rows} training rows"
            ),
            CoreError::TrainingUnfinished { waves } => {
                write!(f, "training did not finish within {waves} waves")
            }
            CoreError::NotTrained => f.write_str("predictor has not been trained"),
            CoreError::Store(e) => write!(f, "data store error: {e}"),
            CoreError::Workflow(e) => write!(f, "workflow execution failed: {e}"),
            CoreError::Ml(e) => write!(f, "machine learning error: {e}"),
            CoreError::NoQodSteps => f.write_str("workflow declares no QoD-managed steps"),
            CoreError::UnknownStep(name) => {
                write!(f, "configuration references unknown step `{name}`")
            }
            CoreError::InvalidBound { step, detail } => {
                write!(f, "invalid error bound on step `{step}`: {detail}")
            }
            CoreError::Journal(e) => write!(f, "failed to open telemetry journal: {e}"),
            CoreError::Durability(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            CoreError::Workflow(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Journal(e) => Some(e),
            CoreError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<WmsError> for CoreError {
    fn from(e: WmsError) -> Self {
        CoreError::Workflow(e)
    }
}

impl From<DurabilityError> for CoreError {
    fn from(e: DurabilityError) -> Self {
        CoreError::Durability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::NotTrained
            .to_string()
            .contains("not been trained"));
        assert!(CoreError::ShapeMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains("expected 3"));
    }

    #[test]
    fn sources_are_exposed() {
        let e = CoreError::from(StoreError::TableNotFound("x".into()));
        assert!(e.source().is_some());
        let e = CoreError::from(MlError::EmptyDataset);
        assert!(e.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
