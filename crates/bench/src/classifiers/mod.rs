//! The §3.2 comparison classifiers: the five families the paper ranked
//! against Random Forest (the decision tree and the forest itself live in
//! `smartflux-ml`), plus the feature scaler the scale-sensitive ones share.
//!
//! SmartFlux runs on Random Forest alone; these exist for the ROC
//! comparison in [`exp::roc`](crate::exp::roc).

mod kernel_svm;
mod logistic;
mod mlp;
mod naive_bayes;
mod scaler;
mod svm;

pub use kernel_svm::{Kernel, KernelSvm};
pub use logistic::LogisticRegression;
pub use mlp::NeuralNetwork;
pub use naive_bayes::GaussianNaiveBayes;
pub use scaler::StandardScaler;
pub use svm::LinearSvm;
