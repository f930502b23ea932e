//! Cache-line padding against false sharing.
//!
//! [`CachePadded`] wraps a value in a full cache line, used for
//! per-thread counters — the paper's Appendix D fix for false sharing
//! between OpenMP threads ("aligning them on cache line boundaries (e.g.,
//! by padding) significantly reduces the false sharing opportunities").

use std::ops::{Deref, DerefMut};

/// Pads a value to a full cache line so adjacent instances never share a
/// line (the classic `crossbeam_utils::CachePadded`, reimplemented here to
/// keep the dependency surface minimal).
///
/// # Example
///
/// ```
/// use slide_kernels::CachePadded;
///
/// let counters: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
/// assert!(std::mem::size_of::<CachePadded<u64>>() >= 64);
/// assert_eq!(*counters[2], 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_layout() {
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
        let v: Vec<CachePadded<u32>> = (0..3).map(CachePadded::new).collect();
        let a0 = &v[0] as *const _ as usize;
        let a1 = &v[1] as *const _ as usize;
        assert!(a1 - a0 >= 64, "adjacent values share a cache line");
    }

    #[test]
    fn cache_padded_deref() {
        let mut c = CachePadded::new(41u32);
        *c += 1;
        assert_eq!(c.into_inner(), 42);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CachePadded<u64>>();
    }
}
