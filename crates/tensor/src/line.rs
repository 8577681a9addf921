//! A growable buffer whose element 0 starts on a 64-byte cache line:
//! `malloc` aligns a `Vec<f32>` to 16 bytes, so three 64-byte loads in
//! four from one straddle two lines.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// # Safety
///
/// A [`LineBuf`] element: every bit pattern, all-zero included, must be
/// a valid value, and the alignment must divide 8.
pub unsafe trait Element: Copy + Default + PartialEq + std::fmt::Debug + 'static {}

// SAFETY: for all five, any bits are a value and the alignment is ≤ 8.
unsafe impl Element for u8 {}
unsafe impl Element for f32 {}
unsafe impl Element for u32 {}
unsafe impl Element for i32 {}
unsafe impl Element for u64 {}

/// A growable buffer of `T` whose element 0 is word `start`, a line, of
/// a zeroed `Vec<u64>` (`calloc` reuses the heap where an over-aligned
/// allocation maps a large one afresh).  New elements are zero; `Clone`,
/// `PartialEq` and `Debug` see only the `len` elements.
#[derive(Default)]
pub struct LineBuf<T: Element> {
    words: Vec<u64>,
    start: usize,
    len: usize,
    elem: PhantomData<T>,
}

impl<T: Element> LineBuf<T> {
    /// `len` zeros.
    pub fn zeros(len: usize) -> Self {
        let bytes = len.checked_mul(std::mem::size_of::<T>());
        let words = vec![0u64; bytes.expect("LineBuf length overflows").div_ceil(8) + 7];
        // A line starts within the (8-byte aligned) Vec's first 8 words.
        let start = (words.as_ptr() as usize).wrapping_neg() % 64 / 8;
        LineBuf {
            words,
            start,
            len,
            elem: PhantomData,
        }
    }

    /// Sets the length to `len`; elements past the old length are zero.
    /// Storage is kept on a shrink and doubles when it must grow.
    pub fn resize(&mut self, len: usize) {
        if len > (self.words.len() - self.start) * 8 / std::mem::size_of::<T>() {
            let mut grown = Self::zeros(len.max(2 * self.len));
            grown[..self.len].copy_from_slice(self);
            grown.len = len;
            *self = grown;
        } else if len > self.len {
            let old = std::mem::replace(&mut self.len, len);
            self[old..].fill(T::default());
        } else {
            self.len = len;
        }
    }

    /// The elements' bytes, in memory order, to read into.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        let bytes = std::mem::size_of_val::<[T]>(self);
        // SAFETY: the elements' own bytes, which `&mut self` makes unique;
        // a `u8` needs no alignment, and any bytes written are a `T`.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr().cast(), bytes) }
    }
}

impl<T: Element> Deref for LineBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `resize` keeps `len` elements' worth of initialized words
        // from `start` on; a word's alignment suffices for every Element,
        // and any bytes are a `T`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().add(self.start).cast(), self.len) }
    }
}

impl<T: Element> DerefMut for LineBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        let (start, len) = (self.start, self.len);
        // SAFETY: as in `deref`; `&mut self` makes the view unique.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().add(start).cast(), len) }
    }
}

impl<T: Element> From<&[T]> for LineBuf<T> {
    fn from(values: &[T]) -> Self {
        let mut buf = Self::zeros(values.len());
        buf.copy_from_slice(values);
        buf
    }
}

impl<T: Element> Clone for LineBuf<T> {
    fn clone(&self) -> Self {
        Self::from(&**self)
    }
}

impl<T: Element> PartialEq for LineBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Element> std::fmt::Debug for LineBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_a_line<T: Element>(buf: &LineBuf<T>) -> bool {
        (buf.as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn every_element_type_starts_on_a_line() {
        for len in [0, 1, 15, 16, 17, 1000] {
            assert!(on_a_line(&LineBuf::<u8>::zeros(len)), "u8 len={len}");
            assert!(on_a_line(&LineBuf::<f32>::zeros(len)), "f32 len={len}");
            assert!(on_a_line(&LineBuf::<u32>::zeros(len)), "u32 len={len}");
            assert!(on_a_line(&LineBuf::<i32>::zeros(len)), "i32 len={len}");
            assert!(on_a_line(&LineBuf::<u64>::zeros(len)), "u64 len={len}");
        }
    }

    #[test]
    fn growth_is_zero_filled() {
        let mut buf = LineBuf::<u64>::zeros(3);
        assert_eq!(*buf, [0, 0, 0]);
        buf.fill(7);
        buf.resize(20);
        assert_eq!(buf[..3], [7, 7, 7]);
        assert!(buf[3..].iter().all(|&w| w == 0));
        assert!(on_a_line(&buf));
    }

    #[test]
    fn shrink_then_regrow_zeroes_what_the_shrink_cut() {
        let mut buf = LineBuf::<f32>::zeros(40);
        buf.fill(1.5);
        buf.resize(5);
        assert_eq!(buf.len(), 5);
        buf.resize(40);
        assert_eq!(buf[..5], [1.5; 5]);
        assert!(buf[5..].iter().all(|&v| v == 0.0), "{buf:?}");
        buf.resize(0);
        assert!(buf.is_empty());
        buf.resize(2);
        assert_eq!(*buf, [0.0, 0.0]);
    }

    #[test]
    fn the_byte_view_covers_every_element_in_memory_order() {
        let mut words = LineBuf::<u64>::zeros(2);
        assert_eq!(words.as_bytes_mut().len(), 16);
        words.as_bytes_mut()[8..].copy_from_slice(&7u64.to_ne_bytes());
        assert_eq!(*words, [0, 7]);
        let mut floats = LineBuf::<f32>::zeros(3);
        floats.as_bytes_mut()[4..8].copy_from_slice(&1.5f32.to_ne_bytes());
        assert_eq!(*floats, [0.0, 1.5, 0.0]);
        assert!(LineBuf::<u8>::zeros(0).as_bytes_mut().is_empty());
    }

    #[test]
    fn clone_eq_and_debug_see_only_len_elements() {
        let mut a = LineBuf::<i32>::from(&[1, -2, 3][..]);
        let mut b = LineBuf::<i32>::zeros(16);
        b.fill(9);
        b[..3].copy_from_slice(&[1, -2, 3]);
        b.resize(3);
        // The same elements with different slack in the last line.
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[1, -2, 3]");
        assert_eq!(format!("{b:?}"), format!("{:?}", vec![1, -2, 3]));
        let c = b.clone();
        assert_eq!(c, a);
        assert!(on_a_line(&c));
        a[0] = 0;
        assert_ne!(a, b);
        assert_ne!(LineBuf::<u32>::zeros(2), LineBuf::<u32>::zeros(3));
    }
}
