//! Feature standardisation.

/// A z-score feature scaler: `(x - mean) / std` per column.
///
/// Scale-sensitive models (logistic regression, SVM, MLP) embed one of these
/// so callers can feed raw impact values — which span nine orders of
/// magnitude across LRB steps (Fig. 7) — without manual preprocessing.
///
/// # Example
///
/// ```
/// use smartflux_bench::classifiers::StandardScaler;
///
/// let scaler = StandardScaler::fit(&[vec![0.0, 10.0], vec![2.0, 30.0]]);
/// let t = scaler.transform(&[1.0, 20.0]);
/// assert!(t.iter().all(|v| v.abs() < 1e-9)); // both columns centred
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Computes per-column means and standard deviations.
    ///
    /// Columns with zero variance get a standard deviation of 1 so the
    /// transform is well defined (they map to 0).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    #[must_use]
    pub fn fit(x: &[Vec<f64>]) -> Self {
        assert!(!x.is_empty(), "cannot fit a scaler to an empty matrix");
        let n = x.len() as f64;
        let width = x[0].len();
        let mut means = vec![0.0; width];
        for row in x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; width];
        for row in x {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m) * (v - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Standardises one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has a different width from the fitted matrix.
    #[must_use]
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "feature width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Standardises a whole matrix.
    #[must_use]
    pub fn transform_all(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform(r)).collect()
    }

    /// Number of feature columns this scaler was fitted on.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Scaler transform is exactly invertible from its stored statistics.
        #[test]
        fn scaler_is_affine(rows in prop::collection::vec(
            prop::collection::vec(-1e4f64..1e4, 3), 2..30,
        )) {
            let scaler = StandardScaler::fit(&rows);
            // Affine check: t(a) - t(b) is proportional to a - b per column.
            let a = &rows[0];
            let b = &rows[rows.len() - 1];
            let ta = scaler.transform(a);
            let tb = scaler.transform(b);
            for j in 0..3 {
                let lhs = ta[j] - tb[j];
                // Reconstruct the scale from another pair of points.
                let probe_hi = scaler.transform(&[a[0] + 1.0, a[1] + 1.0, a[2] + 1.0]);
                let scale = probe_hi[j] - ta[j];
                prop_assert!((lhs - (a[j] - b[j]) * scale).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn standardises_to_zero_mean_unit_variance() {
        let x = vec![vec![1.0], vec![3.0], vec![5.0]];
        let s = StandardScaler::fit(&x);
        let t = s.transform_all(&x);
        let mean: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let var: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = vec![vec![7.0], vec![7.0]];
        let s = StandardScaler::fit(&x);
        assert_eq!(s.transform(&[7.0]), vec![0.0]);
        // And does not blow up on out-of-distribution values.
        assert_eq!(s.transform(&[9.0]), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn width_mismatch_panics() {
        let s = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let _ = s.transform(&[1.0]);
    }
}
