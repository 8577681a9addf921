//! Typed artifact errors.  Hostile or corrupt bytes must surface as one
//! of these — never a panic — so a serving process can reject a bad
//! artifact and keep the incumbent model running.

use std::fmt;

/// Everything that can go wrong saving or loading a model artifact.
#[derive(Debug)]
pub enum ModelArtifactError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// The input does not start with the artifact magic — not a model
    /// artifact at all.
    BadMagic,
    /// The artifact declares a format version this build cannot read
    /// (it reads exactly one: older layouts have no second reader).
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The artifact format is little-endian; this target is not.
    UnsupportedEndianness,
    /// The input ended before a declared section was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The trailing checksum does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum stored in the artifact.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// A structurally invalid header, descriptor or tensor table entry
    /// (bad counts, out-of-range codes, non-canonical record order,
    /// unreasonable declared sizes).
    Malformed {
        /// What was wrong.
        what: String,
    },
    /// Network reconstruction rejected the decoded tensors.
    Rnn(nfm_rnn::RnnError),
}

impl fmt::Display for ModelArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
            ModelArtifactError::BadMagic => write!(f, "not a model artifact (bad magic)"),
            ModelArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not the supported version {supported}"
            ),
            ModelArtifactError::UnsupportedEndianness => {
                write!(f, "model artifacts are little-endian; this target is not")
            }
            ModelArtifactError::Truncated { what } => {
                write!(f, "artifact truncated while reading {what}")
            }
            ModelArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ModelArtifactError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            ModelArtifactError::Rnn(e) => write!(f, "artifact network rebuild: {e}"),
        }
    }
}

impl std::error::Error for ModelArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelArtifactError::Io(e) => Some(e),
            ModelArtifactError::Rnn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelArtifactError {
    fn from(e: std::io::Error) -> Self {
        ModelArtifactError::Io(e)
    }
}

impl From<nfm_rnn::RnnError> for ModelArtifactError {
    fn from(e: nfm_rnn::RnnError) -> Self {
        ModelArtifactError::Rnn(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ModelArtifactError>;
