//! Contiguous, line-aligned tensor arena for zero-copy model loading.
//!
//! A model artifact's whole payload is read into **one** [`TensorArena`]
//! (a single allocation, a single bulk read); every tensor in the model
//! then *borrows* its slice of the arena instead of owning a copy.  The
//! arena is a [`LineBuf`] of bytes, so its base sits on a 64-byte
//! cache line; the artifact writer pads every tensor to a 64-byte
//! offset, so every `f32` view (weight matrices, biases) and `u64` view
//! (the BNN mirror's packed sign words) starts on a line too, and a
//! 64-byte load of a weight row never straddles two lines.
//!
//! Views hand out plain `&[f32]` / `&[u64]` slices, so the hot kernel
//! paths are completely unaware of whether a tensor is owned or
//! arena-backed.  Mutation of an arena-backed tensor (rare: training or
//! test mutation helpers) falls back to copy-on-write in the tensor
//! types, never writes through the shared arena.

use crate::error::TensorError;
use crate::line::LineBuf;
use crate::Result;
use std::io::Read;
use std::sync::Arc;

/// One contiguous, shared, read-only buffer holding every tensor of a
/// loaded model.
///
/// The backing store is a [`LineBuf`], so the base address is always
/// 64-byte aligned.
pub struct TensorArena {
    bytes: LineBuf<u8>,
}

impl TensorArena {
    /// Reads exactly `len_bytes` from `reader` into a fresh arena — the
    /// single bulk copy a model load performs — handing `each_chunk` each
    /// 256 KiB chunk (the last may be shorter) while it is still in L2.
    /// A byte slice is a reader: `read_exact_from(&mut &bytes[..], len, |_| {})`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (including unexpected EOF).
    pub fn read_exact_from(
        reader: &mut impl Read,
        len_bytes: usize,
        mut each_chunk: impl FnMut(&[u8]),
    ) -> std::io::Result<Self> {
        let mut bytes = LineBuf::zeros(len_bytes);
        for chunk in bytes.chunks_mut(256 << 10) {
            reader.read_exact(chunk)?;
            each_chunk(chunk);
        }
        Ok(TensorArena { bytes })
    }

    /// Payload length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the arena holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whole payload as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Borrows `count` `f32` values starting at `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if the offset is not
    /// 4-byte aligned or the range escapes the arena.
    pub fn f32s(&self, byte_offset: usize, count: usize) -> Result<&[f32]> {
        let bytes = count.checked_mul(4).ok_or(TensorError::InvalidParameter {
            what: "f32 view length overflows",
        })?;
        let end = byte_offset
            .checked_add(bytes)
            .ok_or(TensorError::InvalidParameter {
                what: "f32 view range overflows",
            })?;
        if !byte_offset.is_multiple_of(4) {
            return Err(TensorError::InvalidParameter {
                what: "f32 view offset must be 4-byte aligned",
            });
        }
        if end > self.bytes.len() {
            return Err(TensorError::InvalidParameter {
                what: "f32 view escapes the arena",
            });
        }
        // SAFETY: range checked above; the base is 64-byte aligned and
        // the offset a multiple of 4, so the pointer is f32-aligned; f32
        // has no invalid bit patterns.
        Ok(unsafe {
            std::slice::from_raw_parts(self.bytes.as_ptr().add(byte_offset) as *const f32, count)
        })
    }

    /// Borrows `count` `u64` words starting at `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if the offset is not
    /// 8-byte aligned or the range escapes the arena.
    pub fn u64s(&self, byte_offset: usize, count: usize) -> Result<&[u64]> {
        let bytes = count.checked_mul(8).ok_or(TensorError::InvalidParameter {
            what: "u64 view length overflows",
        })?;
        let end = byte_offset
            .checked_add(bytes)
            .ok_or(TensorError::InvalidParameter {
                what: "u64 view range overflows",
            })?;
        if !byte_offset.is_multiple_of(8) {
            return Err(TensorError::InvalidParameter {
                what: "u64 view offset must be 8-byte aligned",
            });
        }
        if end > self.bytes.len() {
            return Err(TensorError::InvalidParameter {
                what: "u64 view escapes the arena",
            });
        }
        // SAFETY: range checked above; the base is 64-byte aligned and
        // the offset a multiple of 8, so the pointer is u64-aligned.
        Ok(unsafe {
            std::slice::from_raw_parts(self.bytes.as_ptr().add(byte_offset) as *const u64, count)
        })
    }
}

impl std::fmt::Debug for TensorArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorArena")
            .field("len_bytes", &self.bytes.len())
            .finish()
    }
}

/// A borrowed `f32` window into a shared [`TensorArena`].
///
/// Cloning a view clones the `Arc`, never the data.
#[derive(Clone)]
pub struct ArenaF32 {
    arena: Arc<TensorArena>,
    byte_offset: usize,
    len: usize,
}

impl ArenaF32 {
    /// Creates a view of `len` `f32`s at `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] on misalignment or an
    /// out-of-range window.
    pub fn new(arena: Arc<TensorArena>, byte_offset: usize, len: usize) -> Result<Self> {
        arena.f32s(byte_offset, len)?;
        Ok(ArenaF32 {
            arena,
            byte_offset,
            len,
        })
    }

    /// The viewed slice.
    pub fn as_slice(&self) -> &[f32] {
        self.arena
            .f32s(self.byte_offset, self.len)
            .expect("validated at construction")
    }

    /// Number of `f32` elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for ArenaF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaF32")
            .field("byte_offset", &self.byte_offset)
            .field("len", &self.len)
            .finish()
    }
}

/// A borrowed `u64` window into a shared [`TensorArena`] (packed sign
/// words of the BNN mirror).
#[derive(Clone)]
pub struct ArenaU64 {
    arena: Arc<TensorArena>,
    byte_offset: usize,
    len: usize,
}

impl ArenaU64 {
    /// Creates a view of `len` words at `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] on misalignment or an
    /// out-of-range window.
    pub fn new(arena: Arc<TensorArena>, byte_offset: usize, len: usize) -> Result<Self> {
        arena.u64s(byte_offset, len)?;
        Ok(ArenaU64 {
            arena,
            byte_offset,
            len,
        })
    }

    /// The viewed words.
    pub fn as_slice(&self) -> &[u64] {
        self.arena
            .u64s(self.byte_offset, self.len)
            .expect("validated at construction")
    }

    /// Number of words in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for ArenaU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaU64")
            .field("byte_offset", &self.byte_offset)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_of(bytes: &[u8]) -> TensorArena {
        TensorArena::read_exact_from(&mut &bytes[..], bytes.len(), |_| {}).unwrap()
    }

    fn arena_of_f32s(values: &[f32]) -> Arc<TensorArena> {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Arc::new(arena_of(&bytes))
    }

    #[test]
    fn f32_view_round_trips_on_little_endian() {
        if cfg!(target_endian = "big") {
            return; // arenas reinterpret LE payload bytes natively
        }
        let arena = arena_of_f32s(&[1.0, -2.5, 3.25]);
        assert_eq!(arena.f32s(0, 3).unwrap(), &[1.0, -2.5, 3.25]);
        assert_eq!(arena.f32s(4, 2).unwrap(), &[-2.5, 3.25]);
    }

    #[test]
    fn u64_view_reads_words() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xDEAD_BEEF_0123_4567u64.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let arena = arena_of(&bytes);
        if cfg!(target_endian = "little") {
            assert_eq!(arena.u64s(0, 2).unwrap(), &[0xDEAD_BEEF_0123_4567, 7]);
            assert_eq!(arena.u64s(8, 1).unwrap(), &[7]);
        }
    }
}
