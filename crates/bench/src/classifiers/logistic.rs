//! Logistic regression.

use smartflux_ml::{Classifier, Dataset, MlError};

use super::scaler::StandardScaler;

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// L2-regularised logistic regression trained by batch gradient descent.
///
/// Features are standardised internally (see [`StandardScaler`]) so raw
/// impact magnitudes can be fed directly.
///
/// # Example
///
/// ```
/// use smartflux_bench::classifiers::LogisticRegression;
/// use smartflux_ml::{Classifier, Dataset};
///
/// let data = Dataset::new(
///     (0..20).map(|i| vec![i as f64]).collect(),
///     (0..20).map(|i| i >= 10).collect(),
/// ).unwrap();
/// let mut lr = LogisticRegression::new();
/// lr.fit(&data).unwrap();
/// assert!(lr.predict(&[18.0]));
/// assert!(!lr.predict(&[1.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    learning_rate: f64,
    l2: f64,
    epochs: usize,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<StandardScaler>,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl LogisticRegression {
    /// A model with default hyper-parameters (η = 0.1, λ = 1e-4,
    /// 500 epochs).
    #[must_use]
    pub fn new() -> Self {
        Self {
            learning_rate: 0.1,
            l2: 1e-4,
            epochs: 500,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    /// Sets the gradient-descent learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[must_use]
    pub fn with_learning_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "learning rate must be positive");
        self.learning_rate = rate;
        self
    }

    /// Sets the L2 regularisation strength.
    #[must_use]
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "l2 strength must be non-negative");
        self.l2 = l2;
        self
    }

    /// Sets the number of training epochs.
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

    /// Fitted weights (standardised feature space); empty before fitting.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let scaler = StandardScaler::fit(data.x());
        let x = scaler.transform_all(data.x());
        let n = data.len() as f64;
        let d = data.n_features();
        let mut w = vec![0.0; d];
        let mut b = 0.0;

        for _ in 0..self.epochs {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (row, &label) in x.iter().zip(data.y()) {
                let z: f64 = b + row.iter().zip(&w).map(|(xi, wi)| xi * wi).sum::<f64>();
                let err = sigmoid(z) - if label { 1.0 } else { 0.0 };
                for (g, xi) in grad_w.iter_mut().zip(row) {
                    *g += err * xi;
                }
                grad_b += err;
            }
            for (wi, g) in w.iter_mut().zip(&grad_w) {
                *wi -= self.learning_rate * (g / n + self.l2 * *wi);
            }
            b -= self.learning_rate * grad_b / n;
        }

        self.weights = w;
        self.bias = b;
        self.scaler = Some(scaler);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        self.scaler.is_some()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        let Some(scaler) = &self.scaler else {
            return 0.5;
        };
        let x = scaler.transform(features);
        let z: f64 = self.bias
            + x.iter()
                .zip(&self.weights)
                .map(|(xi, wi)| xi * wi)
                .sum::<f64>();
        sigmoid(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn separable_2d() {
        let data = Dataset::new(
            (0..40)
                .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
                .collect(),
            (0..40).map(|i| (i % 8) + (i / 8) > 6).collect(),
        )
        .unwrap();
        let mut lr = LogisticRegression::new();
        lr.fit(&data).unwrap();
        assert!(lr.predict(&[7.0, 4.0]));
        assert!(!lr.predict(&[0.0, 0.0]));
    }

    #[test]
    fn handles_huge_feature_scales() {
        // Raw LRB impacts reach 1e9; internal scaling must cope.
        let data = Dataset::new(
            (0..20).map(|i| vec![i as f64 * 1e9]).collect(),
            (0..20).map(|i| i >= 10).collect(),
        )
        .unwrap();
        let mut lr = LogisticRegression::new();
        lr.fit(&data).unwrap();
        assert!(lr.predict(&[19.0e9]));
        assert!(!lr.predict(&[0.0]));
    }

    #[test]
    fn single_class_learns_constant() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![true, true]).unwrap();
        let mut lr = LogisticRegression::new();
        lr.fit(&data).unwrap();
        assert!(lr.predict_proba(&[1.5]) > 0.5);
    }

    #[test]
    fn unfitted_returns_prior() {
        assert_eq!(LogisticRegression::new().predict_proba(&[0.0]), 0.5);
    }
}
