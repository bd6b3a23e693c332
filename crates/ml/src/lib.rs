//! The forest library of the SmartFlux reproduction.
//!
//! Stands in for the paper's WEKA/MEKA stack on the path SmartFlux runs:
//! a CART/J48-style [`DecisionTree`] and the [`RandomForest`] built from it
//! (§3.2 adopts Random Forest as the learning approach), plus the
//! supporting machinery:
//!
//! - [`StepRule`], a forest fitted on one feature compiled into the step
//!   function it computes: sorted cuts and one vote per piece. The trees
//!   are a fitted forest's one representation; the rule is what a
//!   SmartFlux query answers from;
//! - the [`Dataset`] container (the MEKA role — binary relevance, one
//!   classifier per label — is played by `smartflux::Predictor`, which
//!   fits one [`RandomForest`] per label on a `Dataset` the knowledge base
//!   builds for it);
//! - evaluation [`metrics`]: accuracy, precision, recall, F1, ROC AUC;
//! - [`crossval::build_forests`], which fits a model build's forests side
//!   by side on one pool of workers, each assessed by its out-of-bag votes
//!   (SmartFlux's test phase), and stratified k-fold
//!   [`crossval::cross_validate`] (the paper's 10-fold test phase, kept for
//!   the experiments).
//!
//! All training is deterministic given a seed; randomised algorithms take
//! explicit seeds rather than global RNG state.
//!
//! # Example
//!
//! ```
//! use smartflux_ml::{Classifier, Dataset, RandomForest};
//!
//! // A linearly separable toy problem: positive iff x0 + x1 > 1.
//! let x: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0])
//!     .collect();
//! let y: Vec<bool> = x.iter().map(|r| r[0] + r[1] > 1.0).collect();
//! let data = Dataset::new(x, y).unwrap();
//!
//! let mut rf = RandomForest::new(25).with_seed(7);
//! rf.fit(&data).unwrap();
//! assert!(rf.predict(&[0.9, 0.9]));
//! assert!(!rf.predict(&[0.1, 0.0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod metrics;

mod dataset;
mod error;
mod forest;
mod frozen;
mod pool;
mod rule;
mod tree;

pub use dataset::Dataset;
pub use error::MlError;
pub use forest::RandomForest;
pub use rule::StepRule;
pub use tree::DecisionTree;

/// A trainable binary classifier producing a positive-class probability.
///
/// [`DecisionTree`] and [`RandomForest`] implement it, and so do the other
/// §3.2 comparison classifiers; [`crossval`] evaluates any of them.
pub trait Classifier {
    /// Fits the model to a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] when `data` has no rows. Fitting a
    /// dataset whose labels are all one class is not an error — a constant
    /// model is learned.
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError>;

    /// `true` once a successful [`fit`](Classifier::fit) has produced
    /// queryable state.
    fn is_fitted(&self) -> bool;

    /// Probability that `features` belongs to the positive class.
    ///
    /// Returns a value in `[0, 1]`. Calling this before a successful
    /// [`fit`](Classifier::fit) returns an implementation-defined prior
    /// (typically 0.5) — infrastructure that must not silently answer
    /// from an untrained model uses
    /// [`try_predict_proba`](Classifier::try_predict_proba) instead.
    fn predict_proba(&self, features: &[f64]) -> f64;

    /// Hard classification at the 0.5 threshold.
    fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// [`predict_proba`](Classifier::predict_proba) that rejects
    /// untrained models instead of answering with the prior.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] when
    /// [`is_fitted`](Classifier::is_fitted) is `false`.
    fn try_predict_proba(&self, features: &[f64]) -> Result<f64, MlError> {
        if self.is_fitted() {
            Ok(self.predict_proba(features))
        } else {
            Err(MlError::NotFitted)
        }
    }

    /// [`predict`](Classifier::predict) that rejects untrained models.
    ///
    /// This is the path SmartFlux's `Predictor` queries through: a
    /// recall-tuned decision threshold below 0.5 would otherwise turn
    /// the unfitted 0.5 prior into a confident-looking positive.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] when
    /// [`is_fitted`](Classifier::is_fitted) is `false`.
    fn try_predict(&self, features: &[f64]) -> Result<bool, MlError> {
        if self.is_fitted() {
            Ok(self.predict(features))
        } else {
            Err(MlError::NotFitted)
        }
    }
}
