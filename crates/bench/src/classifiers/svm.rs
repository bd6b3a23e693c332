//! Linear support vector machine (Pegasos).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use smartflux_ml::{Classifier, Dataset, MlError};

use super::scaler::StandardScaler;

/// A linear SVM trained with the Pegasos stochastic sub-gradient method.
///
/// The paper found SVM the runner-up to Random Forest (ROC area 0.82 vs
/// 0.86) but rejected it as the default because of its parameterisation
/// burden; it is kept here for the §3.2 comparison. Probability estimates
/// squash the signed margin through a logistic link.
///
/// Features are standardised internally.
///
/// # Example
///
/// ```
/// use smartflux_bench::classifiers::LinearSvm;
/// use smartflux_ml::{Classifier, Dataset};
///
/// let data = Dataset::new(
///     (0..30).map(|i| vec![i as f64]).collect(),
///     (0..30).map(|i| i >= 15).collect(),
/// ).unwrap();
/// let mut svm = LinearSvm::new();
/// svm.fit(&data).unwrap();
/// assert!(svm.predict(&[29.0]));
/// assert!(!svm.predict(&[0.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    lambda: f64,
    epochs: usize,
    seed: u64,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<StandardScaler>,
}

impl Default for LinearSvm {
    fn default() -> Self {
        Self::new()
    }
}

impl LinearSvm {
    /// A model with default hyper-parameters (λ = 1e-3, 60 epochs).
    #[must_use]
    pub fn new() -> Self {
        Self {
            lambda: 1e-3,
            epochs: 60,
            seed: 0,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    /// Sets the regularisation strength λ.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not positive.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        self.lambda = lambda;
        self
    }

    /// Sets the number of passes over the data.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "need at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Seeds the stochastic sampling of training instances.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Signed margin `w·x + b` in standardised feature space. Returns 0
    /// before fitting.
    #[must_use]
    pub fn decision_function(&self, features: &[f64]) -> f64 {
        let Some(scaler) = &self.scaler else {
            return 0.0;
        };
        let x = scaler.transform(features);
        self.bias
            + x.iter()
                .zip(&self.weights)
                .map(|(xi, wi)| xi * wi)
                .sum::<f64>()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let scaler = StandardScaler::fit(data.x());
        let x = scaler.transform_all(data.x());
        let n = data.len();
        let d = data.n_features();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Averaged Pegasos: the running average of the iterates converges
        // far more stably than the final iterate.
        let mut w_avg = vec![0.0; d];
        let mut b_avg = 0.0;
        let iterations = self.epochs * n;
        for t in 1..=iterations {
            let i = rng.random_range(0..n);
            let yi = if data.label(i) { 1.0 } else { -1.0 };
            let eta = 1.0 / (self.lambda * t as f64);
            let margin: f64 = yi * (b + x[i].iter().zip(&w).map(|(xi, wi)| xi * wi).sum::<f64>());
            // Sub-gradient step: always shrink, add the instance if it
            // violates the margin.
            for wi in &mut w {
                *wi *= 1.0 - eta * self.lambda;
            }
            if margin < 1.0 {
                for (wi, xi) in w.iter_mut().zip(&x[i]) {
                    *wi += eta * yi * xi;
                }
                b += eta * yi;
            }
            let blend = 1.0 / t as f64;
            for (a, wi) in w_avg.iter_mut().zip(&w) {
                *a += (wi - *a) * blend;
            }
            b_avg += (b - b_avg) * blend;
        }

        self.weights = w_avg;
        self.bias = b_avg;
        self.scaler = Some(scaler);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.scaler.is_some()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        if self.scaler.is_none() {
            return 0.5;
        }
        let margin = self.decision_function(features);
        1.0 / (1.0 + (-2.0 * margin).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_problem() {
        let data = Dataset::new(
            (0..40)
                .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
                .collect(),
            (0..40)
                .map(|i| (i % 8) as f64 - (i / 8) as f64 > 1.0)
                .collect(),
        )
        .unwrap();
        let mut svm = LinearSvm::new().with_seed(3);
        svm.fit(&data).unwrap();
        assert!(svm.predict(&[7.0, 0.0]));
        assert!(!svm.predict(&[0.0, 4.0]));
    }

    #[test]
    fn margin_sign_matches_prediction() {
        let data = Dataset::new(
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| i >= 10).collect(),
        )
        .unwrap();
        let mut svm = LinearSvm::new();
        svm.fit(&data).unwrap();
        assert!(svm.decision_function(&[19.0]) > 0.0);
        assert!(svm.decision_function(&[0.0]) < 0.0);
        assert!(svm.predict_proba(&[19.0]) > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::new(
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| i >= 10).collect(),
        )
        .unwrap();
        let mut a = LinearSvm::new().with_seed(7);
        let mut b = LinearSvm::new().with_seed(7);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.decision_function(&[4.2]), b.decision_function(&[4.2]));
    }

    #[test]
    fn unfitted_returns_prior() {
        assert_eq!(LinearSvm::new().predict_proba(&[1.0]), 0.5);
    }
}
