//! # nfm-tensor
//!
//! Dense linear-algebra substrate for the neuron-level fuzzy memoization
//! (MICRO 2019) reproduction.
//!
//! The paper evaluates LSTM/GRU networks whose gates are fully-connected
//! single-layer networks: each neuron performs two dot products (forward
//! connections against `x_t`, recurrent connections against `h_{t-1}`),
//! adds a bias and optional peephole term, and applies an activation
//! function.  This crate provides the small, allocation-conscious
//! vector/matrix types those computations are built on, together with the
//! statistics helpers (correlation, histograms, CDFs, relative
//! differences) used throughout the evaluation section of the paper.
//!
//! # Example
//!
//! ```
//! use nfm_tensor::{Matrix, Vector, activation::sigmoid};
//!
//! let w = Matrix::from_rows(vec![vec![0.5, -0.25], vec![1.0, 0.0]]).unwrap();
//! let x = Vector::from(vec![1.0, 2.0]);
//! let y = w.matvec(&x).unwrap();
//! assert_eq!(y.as_slice(), &[0.0, 1.0]);
//! let activated: Vec<f32> = y.iter().map(|v| sigmoid(v)).collect();
//! assert!((activated[0] - 0.5).abs() < 1e-6);
//! ```

pub mod activation;
pub mod backend;
pub mod error;
pub mod init;
pub mod kernels;
pub mod line;
pub mod matrix;
pub mod rng;
pub mod stats;
pub mod vector;

pub use backend::KernelBackend;
pub use error::TensorError;
pub use line::LineBuf;
pub use matrix::Matrix;
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
