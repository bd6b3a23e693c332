//! A from-scratch machine-learning library for the SmartFlux reproduction.
//!
//! Stands in for the paper's WEKA/MEKA stack. Implements the six classifier
//! families compared in §3.2 of the paper — Bayes (Gaussian naive Bayes),
//! a CART/J48-style [`DecisionTree`], [`LogisticRegression`], a small
//! [`NeuralNetwork`] (MLP), [`RandomForest`], and a linear [`LinearSvm`]
//! (Pegasos) — plus the supporting machinery:
//!
//! - [`Dataset`] / [`MultiLabelDataset`] containers (the MEKA role —
//!   binary relevance, one classifier per label — is played by
//!   `smartflux::Predictor`, which fits one [`Classifier`] per
//!   `MultiLabelDataset` label);
//! - evaluation [`metrics`]: accuracy, precision, recall, F1, ROC AUC;
//! - stratified k-fold [`crossval`] (the paper's 10-fold test phase).
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

use std::any::Any;

pub mod crossval;
pub mod metrics;

mod arena;
mod dataset;
mod error;
mod forest;
mod kernel_svm;
mod logistic;
mod mlp;
mod naive_bayes;
mod scaler;
mod svm;
mod tree;

pub use arena::TreeArena;
pub use dataset::{Dataset, MultiLabelDataset};
pub use error::MlError;
pub use forest::RandomForest;
pub use kernel_svm::{Kernel, KernelSvm};
pub use logistic::LogisticRegression;
pub use mlp::NeuralNetwork;
pub use naive_bayes::GaussianNaiveBayes;
pub use scaler::StandardScaler;
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A trainable binary classifier producing a positive-class probability.
///
/// All SmartFlux predictors are expressed against this trait, so the Random
/// Forest default can be swapped for any other implementation (§3.2: "we
/// adopted RF as our default learning approach, although they can be
/// switched"). `Any` lets a caller that knows the concrete type get it
/// back from a `dyn Classifier`, e.g. to compare fitted forests by arena.
pub trait Classifier: Any + Send + Sync {
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

impl Classifier for Box<dyn Classifier> {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        (**self).fit(data)
    }

    fn is_fitted(&self) -> bool {
        (**self).is_fitted()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        (**self).predict_proba(features)
    }

    fn predict(&self, features: &[f64]) -> bool {
        (**self).predict(features)
    }

    fn try_predict_proba(&self, features: &[f64]) -> Result<f64, MlError> {
        (**self).try_predict_proba(features)
    }

    fn try_predict(&self, features: &[f64]) -> Result<bool, MlError> {
        (**self).try_predict(features)
    }
}
