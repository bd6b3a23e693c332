//! A small feed-forward neural network (the "Neuronal Network" of §3.2).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

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

/// A one-hidden-layer multilayer perceptron with sigmoid activations,
/// trained by stochastic gradient descent with backpropagation.
///
/// Features are standardised internally.
///
/// # Example
///
/// ```
/// use smartflux_bench::classifiers::NeuralNetwork;
/// use smartflux_ml::{Classifier, Dataset};
///
/// // XOR — not linearly separable, needs the hidden layer.
/// let data = Dataset::new(
///     vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]],
///     vec![false, true, true, false],
/// ).unwrap();
/// let mut nn = NeuralNetwork::new(8).with_epochs(4000).with_seed(1);
/// nn.fit(&data).unwrap();
/// assert!(nn.predict(&[0.0, 1.0]));
/// assert!(!nn.predict(&[1.0, 1.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNetwork {
    hidden: usize,
    learning_rate: f64,
    epochs: usize,
    seed: u64,
    // weights_hidden[h][d], bias_hidden[h], weights_out[h], bias_out
    weights_hidden: Vec<Vec<f64>>,
    bias_hidden: Vec<f64>,
    weights_out: Vec<f64>,
    bias_out: f64,
    scaler: Option<StandardScaler>,
}

impl NeuralNetwork {
    /// A network with `hidden` hidden units (η = 0.5, 800 epochs).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is zero.
    #[must_use]
    pub fn new(hidden: usize) -> Self {
        assert!(hidden > 0, "need at least one hidden unit");
        Self {
            hidden,
            learning_rate: 0.5,
            epochs: 800,
            seed: 0,
            weights_hidden: Vec::new(),
            bias_hidden: Vec::new(),
            weights_out: Vec::new(),
            bias_out: 0.0,
            scaler: None,
        }
    }

    /// Sets the SGD learning rate.
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

    /// Sets the number of epochs.
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

    /// Seeds weight initialisation and instance shuffling.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let hidden_out: Vec<f64> = self
            .weights_hidden
            .iter()
            .zip(&self.bias_hidden)
            .map(|(w, b)| sigmoid(b + w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>()))
            .collect();
        let out = sigmoid(
            self.bias_out
                + hidden_out
                    .iter()
                    .zip(&self.weights_out)
                    .map(|(h, w)| h * w)
                    .sum::<f64>(),
        );
        (hidden_out, out)
    }
}

impl Classifier for NeuralNetwork {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let scaler = StandardScaler::fit(data.x());
        let x = scaler.transform_all(data.x());
        let d = data.n_features();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let init = |rng: &mut StdRng| rng.random_range(-0.5..0.5);

        self.weights_hidden = (0..self.hidden)
            .map(|_| (0..d).map(|_| init(&mut rng)).collect())
            .collect();
        self.bias_hidden = (0..self.hidden).map(|_| init(&mut rng)).collect();
        self.weights_out = (0..self.hidden).map(|_| init(&mut rng)).collect();
        self.bias_out = init(&mut rng);
        self.scaler = Some(scaler);

        let n = data.len();
        for _ in 0..self.epochs {
            for _ in 0..n {
                let i = rng.random_range(0..n);
                let target = if data.label(i) { 1.0 } else { 0.0 };
                let (hidden_out, out) = self.forward(&x[i]);

                // Output layer gradient (cross-entropy with sigmoid).
                let delta_out = out - target;
                // Hidden layer gradients.
                let delta_hidden: Vec<f64> = hidden_out
                    .iter()
                    .zip(&self.weights_out)
                    .map(|(h, w)| delta_out * w * h * (1.0 - h))
                    .collect();

                for (w, h) in self.weights_out.iter_mut().zip(&hidden_out) {
                    *w -= self.learning_rate * delta_out * h;
                }
                self.bias_out -= self.learning_rate * delta_out;

                for ((wrow, b), dh) in self
                    .weights_hidden
                    .iter_mut()
                    .zip(&mut self.bias_hidden)
                    .zip(&delta_hidden)
                {
                    for (w, xi) in wrow.iter_mut().zip(&x[i]) {
                        *w -= self.learning_rate * dh * xi;
                    }
                    *b -= self.learning_rate * dh;
                }
            }
        }
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
        self.forward(&x).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_boundary() {
        let data = Dataset::new(
            (0..30).map(|i| vec![i as f64]).collect(),
            (0..30).map(|i| i >= 15).collect(),
        )
        .unwrap();
        let mut nn = NeuralNetwork::new(4).with_epochs(300).with_seed(2);
        nn.fit(&data).unwrap();
        assert!(nn.predict(&[28.0]));
        assert!(!nn.predict(&[1.0]));
    }

    #[test]
    fn learns_xor() {
        let data = Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![false, true, true, false],
        )
        .unwrap();
        let mut nn = NeuralNetwork::new(8).with_epochs(4000).with_seed(1);
        nn.fit(&data).unwrap();
        assert!(nn.predict(&[0.0, 1.0]));
        assert!(nn.predict(&[1.0, 0.0]));
        assert!(!nn.predict(&[0.0, 0.0]));
        assert!(!nn.predict(&[1.0, 1.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::new(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| i >= 5).collect(),
        )
        .unwrap();
        let mut a = NeuralNetwork::new(3).with_epochs(50).with_seed(11);
        let mut b = NeuralNetwork::new(3).with_epochs(50).with_seed(11);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.predict_proba(&[3.3]), b.predict_proba(&[3.3]));
    }

    #[test]
    #[should_panic(expected = "at least one hidden unit")]
    fn zero_hidden_units_panics() {
        let _ = NeuralNetwork::new(0);
    }

    #[test]
    fn unfitted_returns_prior() {
        assert_eq!(NeuralNetwork::new(2).predict_proba(&[1.0]), 0.5);
    }
}
