//! Dense (fully-connected, non-recurrent) projection layer.
//!
//! The workload networks attach a dense head to the recurrent stack: a
//! softmax classifier for IMDB sentiment, a per-frame character
//! distribution for the speech networks, and a vocabulary projection for
//! the translation network.  The head is always evaluated exactly (the
//! paper only memoizes recurrent-layer neurons), so it lives outside the
//! [`NeuronEvaluator`](crate::NeuronEvaluator) path.

use crate::error::RnnError;
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::init::Initializer;
use nfm_tensor::kernels::activate_into;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::{Matrix, Vector};

/// A dense layer `y = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vector,
    activation: Activation,
}

impl Dense {
    /// Creates a dense layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if `bias.len() != weights.rows()`.
    pub fn new(weights: Matrix, bias: Vector, activation: Activation) -> Result<Self> {
        if bias.len() != weights.rows() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "dense bias length {} does not match output size {}",
                    bias.len(),
                    weights.rows()
                ),
            });
        }
        Ok(Dense {
            weights,
            bias,
            activation,
        })
    }

    /// The weight matrix (`output_size x input_size`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector (`output_size`).
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// The output activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Creates a randomly initialized dense layer.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if either dimension is zero.
    pub fn random(
        input_size: usize,
        output_size: usize,
        activation: Activation,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        if input_size == 0 || output_size == 0 {
            return Err(RnnError::InvalidConfig {
                what: "dense layer dimensions must be positive".into(),
            });
        }
        let weights = Initializer::XavierUniform.matrix(rng, output_size, input_size);
        let bias = Initializer::Uniform { bound: 0.01 }.vector(rng, output_size);
        Dense::new(weights, bias, activation)
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.weights.rows()
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.weights.cols()
    }

    /// Number of weights in the layer.
    pub fn weight_count(&self) -> usize {
        self.weights.element_count()
    }

    /// Applies the layer to an input vector.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `x.len() != self.input_size()`.
    pub fn apply(&self, x: &Vector) -> Result<Vector> {
        let mut y = self.weights.matvec(x)?.add(&self.bias)?;
        activate_into(self.activation, y.as_mut_slice());
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_bias_length() {
        let w = Matrix::zeros(2, 3);
        assert!(Dense::new(w.clone(), Vector::zeros(3), Activation::Identity).is_err());
        assert!(Dense::new(w, Vector::zeros(2), Activation::Identity).is_ok());
    }

    #[test]
    fn apply_computes_affine_then_activation() {
        let w = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, -1.0]]).unwrap();
        let b = Vector::from(vec![0.5, 0.0]);
        let d = Dense::new(w, b, Activation::Relu).unwrap();
        let y = d.apply(&Vector::from(vec![1.0, 2.0])).unwrap();
        assert_eq!(y.as_slice(), &[1.5, 0.0]);
    }

    #[test]
    fn apply_rejects_wrong_width() {
        let mut rng = DeterministicRng::seed_from_u64(1);
        let d = Dense::random(4, 2, Activation::Identity, &mut rng).unwrap();
        assert!(d.apply(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn random_layer_shapes_and_counts() {
        let mut rng = DeterministicRng::seed_from_u64(2);
        let d = Dense::random(10, 3, Activation::Sigmoid, &mut rng).unwrap();
        assert_eq!(d.input_size(), 10);
        assert_eq!(d.output_size(), 3);
        assert_eq!(d.weight_count(), 30);
        assert!(Dense::random(0, 3, Activation::Sigmoid, &mut rng).is_err());
    }
}
