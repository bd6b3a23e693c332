//! Gaussian naive Bayes (the Bayes-network stand-in of §3.2).

use smartflux_ml::{Classifier, Dataset, MlError};

const MIN_VARIANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
struct ClassModel {
    prior_log: f64,
    means: Vec<f64>,
    variances: Vec<f64>,
}

impl ClassModel {
    fn log_likelihood(&self, features: &[f64]) -> f64 {
        let mut ll = self.prior_log;
        for ((x, m), v) in features.iter().zip(&self.means).zip(&self.variances) {
            let var = v.max(MIN_VARIANCE);
            ll += -0.5 * ((x - m) * (x - m) / var + var.ln() + std::f64::consts::TAU.ln());
        }
        ll
    }
}

/// A Gaussian naive Bayes classifier.
///
/// Models each feature as an independent normal distribution per class.
/// This is our stand-in for WEKA's "BayesNet" entry in the paper's
/// algorithm comparison — with continuous impact features and independent
/// per-step impacts, a naive structure is the natural network.
///
/// # Example
///
/// ```
/// use smartflux_bench::classifiers::GaussianNaiveBayes;
/// use smartflux_ml::{Classifier, Dataset};
///
/// let data = Dataset::new(
///     vec![vec![1.0], vec![1.2], vec![8.0], vec![8.4]],
///     vec![false, false, true, true],
/// ).unwrap();
/// let mut nb = GaussianNaiveBayes::new();
/// nb.fit(&data).unwrap();
/// assert!(nb.predict(&[7.9]));
/// assert!(!nb.predict(&[1.1]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianNaiveBayes {
    positive: Option<ClassModel>,
    negative: Option<ClassModel>,
}

impl GaussianNaiveBayes {
    /// Creates an unfitted model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn class_model(data: &Dataset, label: bool, smoothing_prior: f64) -> Option<ClassModel> {
        let rows: Vec<&[f64]> = (0..data.len())
            .filter(|&i| data.label(i) == label)
            .map(|i| data.features(i))
            .collect();
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        let d = data.n_features();
        let mut means = vec![0.0; d];
        for row in &rows {
            for (m, x) in means.iter_mut().zip(*row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut variances = vec![0.0; d];
        for row in &rows {
            for ((v, x), m) in variances.iter_mut().zip(*row).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        for v in &mut variances {
            *v = (*v / n).max(MIN_VARIANCE);
        }
        Some(ClassModel {
            prior_log: ((n + smoothing_prior) / (data.len() as f64 + 2.0 * smoothing_prior)).ln(),
            means,
            variances,
        })
    }
}

impl Classifier for GaussianNaiveBayes {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        // Laplace-style prior smoothing keeps single-class datasets usable.
        self.positive = Self::class_model(data, true, 1.0);
        self.negative = Self::class_model(data, false, 1.0);
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        // A single-class dataset legitimately fits only one class model.
        self.positive.is_some() || self.negative.is_some()
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        match (&self.positive, &self.negative) {
            (Some(p), Some(n)) => {
                let lp = p.log_likelihood(features);
                let ln = n.log_likelihood(features);
                // Softmax over the two log-joint scores.
                let m = lp.max(ln);
                let ep = (lp - m).exp();
                let en = (ln - m).exp();
                ep / (ep + en)
            }
            (Some(_), None) => 1.0,
            (None, Some(_)) => 0.0,
            (None, None) => 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_gaussian_clusters() {
        let data = Dataset::new(
            (0..50)
                .map(|i| {
                    if i < 25 {
                        vec![(i % 5) as f64 * 0.1]
                    } else {
                        vec![10.0 + (i % 5) as f64 * 0.1]
                    }
                })
                .collect(),
            (0..50).map(|i| i >= 25).collect(),
        )
        .unwrap();
        let mut nb = GaussianNaiveBayes::new();
        nb.fit(&data).unwrap();
        assert!(nb.predict(&[10.2]));
        assert!(!nb.predict(&[0.2]));
        let p = nb.predict_proba(&[5.1]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn single_class_dataset() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![false, false]).unwrap();
        let mut nb = GaussianNaiveBayes::new();
        nb.fit(&data).unwrap();
        assert_eq!(nb.predict_proba(&[1.5]), 0.0);
    }

    #[test]
    fn zero_variance_feature_does_not_nan() {
        let data = Dataset::new(
            vec![
                vec![5.0, 1.0],
                vec![5.0, 2.0],
                vec![5.0, 9.0],
                vec![5.0, 10.0],
            ],
            vec![false, false, true, true],
        )
        .unwrap();
        let mut nb = GaussianNaiveBayes::new();
        nb.fit(&data).unwrap();
        let p = nb.predict_proba(&[5.0, 9.5]);
        assert!(p.is_finite());
        assert!(p > 0.5);
    }

    #[test]
    fn unfitted_returns_prior() {
        assert_eq!(GaussianNaiveBayes::new().predict_proba(&[0.0]), 0.5);
    }
}
