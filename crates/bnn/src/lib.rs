//! # nfm-bnn
//!
//! Binarized (bitwise) neural network substrate for the neuron-level
//! fuzzy memoization (MICRO 2019) reproduction.
//!
//! The paper extends every recurrent gate with a *binary mirror*: each
//! weight and input is reduced to its sign (Equation 7) and the neuron
//! output becomes `Σ w_b · x_b` (Equation 8), computable with an XNOR and
//! a popcount instead of FP16 multiply-accumulates.  The BNN output is
//! *not* used as the neuron's value — it is only a cheap, highly
//! correlated proxy that predicts when the full-precision output will be
//! close to a previously cached one (Section 3.1.2).
//!
//! This crate provides:
//! * [`BinaryGate`] / [`BinaryNetwork`] — the binarized mirrors of an
//!   `nfm-rnn` gate / deep network (Figure 9): one packed sign block per
//!   gate, predicted for every lane of a gate call by one dispatched
//!   XNOR-popcount kernel ([`popcount`]),
//! * [`Model`] — one model version's shared artifacts: the network plus
//!   its mirror, derived at most once and read by every policy and every
//!   serving worker through clones of one handle,
//! * [`BitVector`] — one lane's packed signs, the operand type of
//!   [`BinaryGate`]'s per-lane adapter,
//! * [`CorrelationProbe`] — an instrumented evaluator that records paired
//!   (full-precision, binarized) outputs to reproduce the correlation
//!   analyses of Figures 7 and 8.
//!
//! # Example
//!
//! ```
//! use nfm_bnn::BinaryGate;
//! use nfm_rnn::Gate;
//! use nfm_tensor::{activation::Activation, LineBuf, Matrix, Vector};
//!
//! // One neuron: forward weights [+, -, +], recurrent weight [-].
//! let wx = Matrix::from_rows(vec![vec![0.5, -0.5, 0.0]]).unwrap();
//! let wh = Matrix::from_rows(vec![vec![-1.0]]).unwrap();
//! let gate = Gate::new(wx, wh, Vector::zeros(1), None, Activation::Sigmoid).unwrap();
//! let mirror = BinaryGate::mirror(&gate);
//!
//! // Pack a lane's signs once, then predict every neuron of the gate.
//! let mut packed = LineBuf::default();
//! mirror.pack_inputs(&[1.0, -2.0, -3.0], &[4.0], 1, &mut packed);
//! let mut out = [0i32; 1];
//! mirror.predict_packed_into(&packed, &mut out);
//! // Signs agree at forward positions 0 and 1 and disagree at 2 and at
//! // the recurrent one: 2 - 2 = 0.
//! assert_eq!(out, [0]);
//! ```

pub mod binarize;
pub mod bitvec;
pub mod gate;
pub mod mirror;
pub mod model;
pub mod popcount;
pub mod probe;

pub use binarize::binarize_sign;
pub use bitvec::BitVector;
pub use gate::BinaryGate;
pub use mirror::BinaryNetwork;
pub use model::Model;
pub use probe::{CorrelationProbe, NeuronSeries};

/// Errors produced by binarized-network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BnnError {
    /// Two packed operands (bit vectors, lane counts, a sign block and
    /// its shape) had different lengths.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// A sign block handed to [`BinaryGate::from_sign_block`] has a padding
    /// bit or a padding row set.
    NonZeroPadding {
        /// The first offending row of the block.
        row: usize,
    },
}

impl std::fmt::Display for BnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BnnError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            BnnError::NonZeroPadding { row } => {
                write!(f, "sign block has non-zero padding in row {row}")
            }
        }
    }
}

impl std::error::Error for BnnError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, BnnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = BnnError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<BnnError>();
    }
}
