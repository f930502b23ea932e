//! Lock-free shared parameter storage for HOGWILD-style SGD.
//!
//! The paper (§3.1) relies on Recht et al.'s HOGWILD result: with very
//! sparse gradients, threads may update shared weights *without any
//! synchronization* — occasional lost updates are statistically harmless
//! and convergence is unaffected. In C++ this is a plain `float*` racing
//! across OpenMP threads. In Rust, unsynchronized aliased writes are
//! undefined behaviour, so we get the same machine behaviour soundly with
//! **relaxed atomics**: a relaxed `AtomicU32` load/store of an `f32` bit
//! pattern compiles to the very same `mov` instructions as the C++ race,
//! with defined semantics.
//!
//! [`HogwildArray::add_racy`] is the paper's update: read-modify-write as
//! two independent atomic ops, so concurrent adds may drop one update
//! (exactly the HOGWILD tolerance). [`HogwildArray::add_cas`] is the
//! strict alternative (a compare-exchange loop) used as the ablation
//! baseline in the `hogwild_accumulate` bench.

use std::sync::atomic::{AtomicU32, Ordering};

/// A shared array of `f32` supporting lock-free concurrent reads and
/// writes with relaxed ordering.
///
/// # Example
///
/// ```
/// use slide_core::hogwild::HogwildArray;
///
/// let a = HogwildArray::zeroed(4);
/// a.set(2, 1.5);
/// a.add_racy(2, 0.5);
/// assert_eq!(a.get(2), 2.0);
/// ```
#[derive(Debug)]
pub struct HogwildArray {
    data: Vec<AtomicU32>,
}

impl HogwildArray {
    /// Allocates `len` zeros.
    ///
    /// The cells come from the allocator's zeroed path, so a large array
    /// is backed by fresh zero pages that are not written, or faulted in,
    /// until first use: an Adam moment page that training never touches
    /// costs nothing.
    pub fn zeroed(len: usize) -> Self {
        let mut zeros = std::mem::ManuallyDrop::new(vec![0u32; len]);
        let (ptr, len, cap) = (zeros.as_mut_ptr(), zeros.len(), zeros.capacity());
        // SAFETY: `AtomicU32` has the same size, alignment and bit
        // validity as `u32`, so `zeros`' allocation, length and capacity
        // describe a valid `Vec<AtomicU32>` with the same layout; `zeros`
        // is never dropped, so the allocation has one owner.
        let data = unsafe { Vec::from_raw_parts(ptr.cast::<AtomicU32>(), len, cap) };
        Self { data }
    }

    /// Builds from existing values.
    pub fn from_values(values: &[f32]) -> Self {
        Self {
            data: values.iter().map(|v| AtomicU32::new(v.to_bits())).collect(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        f32::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Relaxed store of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, value: f32) {
        self.data[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// HOGWILD add: `a[i] += delta` as a racy load-then-store. Concurrent
    /// adds to the same element may lose one of the updates — the
    /// documented HOGWILD semantics the paper depends on.
    #[inline]
    pub fn add_racy(&self, i: usize, delta: f32) {
        let cell = &self.data[i];
        let old = f32::from_bits(cell.load(Ordering::Relaxed));
        cell.store((old + delta).to_bits(), Ordering::Relaxed);
    }

    /// Lossless concurrent add via a compare-exchange loop. Slower under
    /// contention; the ablation comparator for [`HogwildArray::add_racy`].
    #[inline]
    pub fn add_cas(&self, i: usize, delta: f32) {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + delta).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The backing atomic cells as a slice, for handing whole parameter
    /// ranges to the fused kernels in `slide_kernels::fused`.
    ///
    /// The cells follow the **bit-level HOGWILD slice protocol** those
    /// kernels document: every cell holds an `f32` bit pattern, read with
    /// a relaxed load + `f32::from_bits` ([`slide_kernels::fused::read`])
    /// and written with `f32::to_bits` + a relaxed store
    /// ([`slide_kernels::fused::write`]). No read-modify-write is atomic,
    /// so concurrent updates may lose one — the documented HOGWILD
    /// tolerance.
    #[inline]
    pub fn as_atomics(&self) -> &[AtomicU32] {
        &self.data
    }

    /// The cells of `[start, start + len)` as a slice (see
    /// [`HogwildArray::as_atomics`] for the access protocol).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn atomic_slice(&self, start: usize, len: usize) -> &[AtomicU32] {
        &self.data[start..start + len]
    }

    /// Prefetches the cache line holding element `i` (hint only).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if i < self.data.len() {
            slide_kernels::ops::prefetch_read(self.data.as_ptr().wrapping_add(i));
        }
    }

    /// Copies element range `[start, start + out.len())` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_into(&self, start: usize, out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.get(start + j);
        }
    }

    /// Snapshot of the whole array.
    pub fn to_vec(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Overwrites all elements from a slice.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.set(i, v);
        }
    }
}

impl Clone for HogwildArray {
    fn clone(&self) -> Self {
        Self::from_values(&self.to_vec())
    }
}

/// A row-major 2-D view over a [`HogwildArray`]: `rows × cols` weights
/// where row `r` is one neuron's fan-in weight vector.
#[derive(Debug, Clone)]
pub struct HogwildMatrix {
    data: HogwildArray,
    rows: usize,
    cols: usize,
}

impl HogwildMatrix {
    /// Allocates a zeroed matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        Self {
            data: HogwildArray::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Builds from a row-major value slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_values(rows: usize, cols: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), rows * cols, "shape mismatch");
        Self {
            data: HogwildArray::from_values(values),
            rows,
            cols,
        }
    }

    /// Number of rows (neurons).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (fan-in).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat element index of `(row, col)`.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Relaxed load of `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data.get(self.index(row, col))
    }

    /// Relaxed store of `(row, col)`.
    #[inline]
    pub fn set(&self, row: usize, col: usize, value: f32) {
        self.data.set(self.index(row, col), value);
    }

    /// Row `row`'s cells as an atomic slice of length `cols`, the unit
    /// the fused kernels consume (one neuron's fan-in weights or Adam
    /// moments). Access follows the bit-level protocol documented on
    /// [`HogwildArray::as_atomics`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row(&self, row: usize) -> &[AtomicU32] {
        self.data.atomic_slice(row * self.cols, self.cols)
    }

    /// Every row's cells back to back (`rows × cols`, row `r` at
    /// `r · cols`), the unit the input-major kernels consume: they index
    /// whole rows by id. Access follows the bit-level protocol documented
    /// on [`HogwildArray::as_atomics`].
    #[inline]
    pub fn all_rows(&self) -> &[AtomicU32] {
        self.data.as_atomics()
    }

    /// Copies row `row` into `out` (`out.len()` must equal `cols`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn read_row_into(&self, row: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "row buffer size mismatch");
        self.data.read_into(row * self.cols, out);
    }

    /// The backing flat array.
    #[inline]
    pub fn flat(&self) -> &HogwildArray {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_get_set() {
        let a = HogwildArray::zeroed(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), 0.0);
        a.set(1, -2.5);
        assert_eq!(a.get(1), -2.5);
    }

    #[test]
    fn from_values_roundtrip() {
        let v = vec![1.0f32, -2.0, 3.5];
        let a = HogwildArray::from_values(&v);
        assert_eq!(a.to_vec(), v);
    }

    #[test]
    fn add_variants_agree_single_threaded() {
        let a = HogwildArray::from_values(&[1.0, 1.0]);
        a.add_racy(0, 0.5);
        a.add_cas(1, 0.5);
        assert_eq!(a.get(0), a.get(1));
    }

    #[test]
    fn cas_add_is_lossless_under_contention() {
        let a = Arc::new(HogwildArray::zeroed(1));
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        a.add_cas(0, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.get(0), (threads * per_thread) as f32);
    }

    #[test]
    fn racy_add_loses_few_updates_under_contention() {
        // HOGWILD's premise: racy adds lose *some* updates under
        // contention. This test hammers a SINGLE element from all threads
        // — the worst case, far harsher than SLIDE's sparse updates — so
        // only require that a nontrivial fraction survives and that
        // updates are never fabricated.
        let a = Arc::new(HogwildArray::zeroed(1));
        let threads = 4;
        let per_thread = 50_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        a.add_racy(0, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread) as f32;
        let got = a.get(0);
        assert!(got > total * 0.2, "kept only {got} of {total}");
        assert!(got <= total, "gained updates from nowhere: {got}");
    }

    #[test]
    fn matrix_indexing() {
        let m = HogwildMatrix::zeroed(3, 4);
        m.set(2, 3, 7.0);
        assert_eq!(m.get(2, 3), 7.0);
        assert_eq!(m.flat().get(11), 7.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn matrix_row_read() {
        let m = HogwildMatrix::from_values(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut row = [0.0f32; 3];
        m.read_row_into(1, &mut row);
        assert_eq!(row, [4.0, 5.0, 6.0]);
    }

    #[test]
    fn atomic_row_views_follow_bit_protocol() {
        let m = HogwildMatrix::from_values(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let row = m.row(1);
        assert_eq!(row.len(), 3);
        assert_eq!(slide_kernels::fused::read(&row[2]), 6.0);
        slide_kernels::fused::write(&row[0], -4.5);
        assert_eq!(m.get(1, 0), -4.5);
        // The flat view aliases the same cells.
        assert_eq!(m.flat().as_atomics().len(), 6);
        assert_eq!(
            slide_kernels::fused::read(&m.flat().atomic_slice(3, 1)[0]),
            -4.5
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matrix_shape_validated() {
        let _ = HogwildMatrix::from_values(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concurrent_disjoint_writes_are_exact() {
        // Threads writing disjoint elements must never interfere — the
        // actual sparse-update pattern SLIDE produces.
        let a = Arc::new(HogwildArray::zeroed(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let idx = t * 8 + i;
                        for _ in 0..1000 {
                            a.add_racy(idx, 1.0);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..64 {
            assert_eq!(a.get(i), 1000.0, "element {i}");
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HogwildArray>();
        assert_send_sync::<HogwildMatrix>();
    }
}
