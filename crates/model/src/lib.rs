//! # nfm-model
//!
//! Versioned model artifacts for the fuzzy-memoization serving stack.
//!
//! A model artifact packages a trained [`nfm_rnn::DeepRnn`] — and
//! optionally its prebuilt [`nfm_bnn::BinaryNetwork`] sign mirror — as
//! one self-describing binary blob: magic + format version, a
//! structural descriptor, a per-tensor shape/offset table with 64-byte
//! aligned offsets, the raw tensor bytes, and a trailing four-lane word
//! hash (format version 3).  See [`artifact`] for the exact layout.
//!
//! Loading reads each tensor's payload region straight into a
//! line-aligned buffer of its own ([`nfm_tensor::LineBuf`]), which the
//! weight matrix or mirror sign block then keeps as its storage: one
//! copy from the reader, and the payload is never held twice.  Corrupt
//! or hostile bytes surface as typed [`ModelArtifactError`]s, the
//! checksum before anything the tensor table says; loading never
//! panics.
//!
//! ```
//! use nfm_model::{load_from_slice, save_to_vec};
//! use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
//! use nfm_tensor::rng::DeterministicRng;
//!
//! let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 6).output_size(3);
//! let mut rng = DeterministicRng::seed_from_u64(7);
//! let net = DeepRnn::random(&cfg, &mut rng).unwrap();
//! let bytes = save_to_vec(&net, None).unwrap();
//! let loaded = load_from_slice(&bytes).unwrap();
//! assert_eq!(loaded.network, net);
//! ```

pub mod artifact;
pub mod error;

pub use artifact::{
    load, load_from_slice, save, save_to_vec, LoadedModel, FORMAT_VERSION, MAGIC, TENSOR_ALIGN,
};
pub use error::{ModelArtifactError, Result};
