//! Batched signed-projection hashing kernel (paper §3.2, §5.4).
//!
//! SimHash-style families evaluate `P = K × L` sparse hyperplanes with
//! coefficients in `{+1, 0, −1}` against one input vector per selection
//! event ([`SignedPlanes::project_dense`] / `project_sparse`, the entry
//! behind `HashFamily::hash_dense_mode`) and against every weight row of
//! a layer per table rebuild ([`SignedPlanes::project_dense_rows`], the
//! entry behind `HashFamily::hash_dense_rows_mode`). The reference
//! implementation walks each plane's nonzero index list; this module adds
//! a blocked layout that computes **all planes at once** in register
//! passes:
//!
//! * planes are packed eight per block, one plane per SIMD lane, with the
//!   coefficients of every input index stored contiguously
//!   (`packed[block][index][lane]`, one `i8` each);
//! * projecting broadcasts one input value and fused-multiply-adds the
//!   eight-lane coefficient column into eight running projections, so a
//!   pass over the input advances eight planes together (AVX2/FMA; on a
//!   CPU without them, `Vectorized` runs the scalar reference, whose
//!   bits it equals anyway);
//! * the row entry tiles [`ROW_TILE`] rows against each block, so every
//!   widened coefficient column feeds [`ROW_TILE`] fused multiply-adds
//!   instead of one (the widen, not the FMA, bounds the one-row pass).
//!
//! ## Exactness
//!
//! Unusually for a SIMD rewrite, every path here is **bit-identical**,
//! not merely close:
//!
//! * multiplying by a coefficient of `±1.0` is exact, so
//!   `fma(c, x, acc)` equals the reference's `acc + c·x` with no
//!   double-rounding difference;
//! * each lane accumulates its own plane's terms in ascending input-index
//!   order — the same order as the scalar reference loop — and a row tile
//!   keeps one accumulator per (row, plane), so tiling rows changes which
//!   register a sum lives in, never its order;
//! * coefficient-zero terms contribute `±0.0`, which cannot change a
//!   running sum except in the sign of an exactly-zero projection, and
//!   `-0.0 + x == 0.0 + x` for every nonzero `x` while `+0.0 + -0.0`
//!   rounds to `+0.0`; accumulators start at `+0.0`, so even raw
//!   projections match bit-for-bit.
//!
//! The same argument covers the sparse path (skipping zero *input*
//! values), so dense and sparse evaluation of the same vector agree
//! exactly — the property `slide-lsh`'s proptests pin.

use crate::ops::KernelMode;

/// Rows per pass of [`SignedPlanes::project_dense_rows`]'s tiled kernel;
/// callers that hash many rows hand it multiples of this.
pub const ROW_TILE: usize = 4;

/// `P` sparse signed hyperplanes over `R^dim` in both a per-plane sparse
/// form (the scalar reference, coefficient lookup) and a blocked
/// plane-per-lane packed form (the vectorized kernel).
///
/// Build with [`SignedPlanesBuilder`]. Project with
/// [`SignedPlanes::project_dense`] / [`SignedPlanes::project_sparse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedPlanes {
    dim: usize,
    planes: usize,
    /// `planes + 1` offsets into `idx`/`sign`.
    offsets: Vec<usize>,
    /// Nonzero coefficient indices, strictly ascending within a plane.
    idx: Vec<u32>,
    /// `±1` coefficient signs, parallel to `idx`.
    sign: Vec<i8>,
    /// Blocked layout: `ceil(planes / 8)` blocks of `dim × 8` coefficients;
    /// block `b`, input index `i`, lane `l` (= plane `b·8 + l`) lives at
    /// `packed[b·dim·8 + i·8 + l]`. Lanes past the last plane stay zero.
    packed: Vec<i8>,
}

/// Incremental constructor for [`SignedPlanes`]: push each plane's sorted
/// nonzero `(index, sign)` entries, then [`SignedPlanesBuilder::finish`].
#[derive(Debug, Clone)]
pub struct SignedPlanesBuilder {
    dim: usize,
    offsets: Vec<usize>,
    idx: Vec<u32>,
    sign: Vec<i8>,
}

impl SignedPlanesBuilder {
    /// Starts a builder for planes over `R^dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            offsets: vec![0],
            idx: Vec::new(),
            sign: Vec::new(),
        }
    }

    /// Appends one plane given its nonzero entries in strictly ascending
    /// index order; signs must be `+1` or `-1`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index, a non-ascending index, or a sign
    /// outside `{-1, +1}`.
    pub fn push_plane<I: IntoIterator<Item = (u32, i8)>>(&mut self, entries: I) {
        let start = self.idx.len();
        for (i, s) in entries {
            assert!(
                (i as usize) < self.dim,
                "plane index {i} out of range for dim {}",
                self.dim
            );
            assert!(s == 1 || s == -1, "plane sign must be +1 or -1, got {s}");
            if let Some(&prev) = self.idx[start..].last() {
                assert!(i > prev, "plane indices must be strictly ascending");
            }
            self.idx.push(i);
            self.sign.push(s);
        }
        self.offsets.push(self.idx.len());
    }

    /// Seals the builder, computing the packed blocked layout.
    ///
    /// # Panics
    ///
    /// Panics if no plane was pushed.
    pub fn finish(self) -> SignedPlanes {
        let planes = self.offsets.len() - 1;
        assert!(planes > 0, "at least one plane is required");
        let nblocks = planes.div_ceil(8);
        let mut packed = vec![0i8; nblocks * self.dim * 8];
        for p in 0..planes {
            let base = (p / 8) * self.dim * 8 + p % 8;
            for e in self.offsets[p]..self.offsets[p + 1] {
                packed[base + self.idx[e] as usize * 8] = self.sign[e];
            }
        }
        SignedPlanes {
            dim: self.dim,
            planes,
            offsets: self.offsets,
            idx: self.idx,
            sign: self.sign,
            packed,
        }
    }
}

impl SignedPlanes {
    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of planes `P`.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Plane `p`'s nonzero entries as parallel `(indices, signs)` slices.
    pub fn plane_entries(&self, p: usize) -> (&[u32], &[i8]) {
        let (lo, hi) = (self.offsets[p], self.offsets[p + 1]);
        (&self.idx[lo..hi], &self.sign[lo..hi])
    }

    /// Coefficient of plane `p` at input index `i`: `+1.0`, `-1.0` or
    /// `0.0`.
    pub fn coeff(&self, p: usize, i: u32) -> f32 {
        let (idx, sign) = self.plane_entries(p);
        match idx.binary_search(&i) {
            Ok(e) => sign[e] as f32,
            Err(_) => 0.0,
        }
    }

    /// Projects a dense input onto every plane: `out[p] = plane_p · input`.
    ///
    /// `Scalar` walks each plane's sparse entries sequentially (the
    /// reference); `Vectorized` runs the blocked plane-per-lane kernel
    /// where the CPU has AVX2+FMA, and the reference elsewhere. Both
    /// orders produce bit-identical projections (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != dim` or `out.len() != planes`.
    pub fn project_dense(&self, input: &[f32], out: &mut [f32], mode: KernelMode) {
        assert_eq!(input.len(), self.dim, "project_dense: input length");
        assert_eq!(out.len(), self.planes, "project_dense: output length");
        #[cfg(target_arch = "x86_64")]
        if blocked(mode) {
            // SAFETY: AVX2+FMA presence checked; packed holds
            // ceil(planes/8) blocks of dim×8 coefficients.
            unsafe { avxh::project_dense(&self.packed, self.dim, self.planes, input, out) };
            return;
        }
        for (p, o) in out.iter_mut().enumerate() {
            let (idx, sign) = self.plane_entries(p);
            let mut acc = 0.0f32;
            for (&i, &s) in idx.iter().zip(sign) {
                acc += s as f32 * input[i as usize];
            }
            *o = acc;
        }
    }

    /// Projects `n = rows.len() / dim` dense rows, stored row-major, onto
    /// every plane: `out[r·planes + p] = plane_p · rows[r]`.
    ///
    /// `Vectorized` runs whole tiles of [`ROW_TILE`] rows through one pass
    /// per block pair and the remaining rows through
    /// [`SignedPlanes::project_dense`]; `Scalar` is `n` reference calls.
    /// Every (row, plane) accumulator starts at `+0.0` and sums in
    /// ascending index order, so the output is bit-identical to `n` calls
    /// of [`SignedPlanes::project_dense`] in either mode.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `dim` or
    /// `out.len() != n · planes`.
    pub fn project_dense_rows(&self, rows: &[f32], out: &mut [f32], mode: KernelMode) {
        let (dim, planes) = (self.dim, self.planes);
        assert_eq!(rows.len() % dim, 0, "project_dense_rows: input length");
        let n = rows.len() / dim;
        assert_eq!(out.len(), n * planes, "project_dense_rows: output length");
        let tiled = if blocked(mode) { n - n % ROW_TILE } else { 0 };
        let (tiles, rest) = rows.split_at(tiled * dim);
        let (tiles_out, rest_out) = out.split_at_mut(tiled * planes);
        #[cfg(target_arch = "x86_64")]
        if tiled > 0 {
            // SAFETY: rows are tiled only when AVX2+FMA is present;
            // `tiles` holds whole tiles of dim-long rows and `tiles_out`
            // planes per row.
            unsafe { avxh::project_rows(&self.packed, dim, planes, tiles, tiles_out) };
        }
        for (row, o) in rest
            .chunks_exact(dim)
            .zip(rest_out.chunks_exact_mut(planes))
        {
            self.project_dense(row, o, mode);
        }
    }

    /// Projects a sparse input given as parallel `(indices, values)`
    /// slices with strictly ascending indices.
    ///
    /// `Scalar` is the reference per-plane loop over the input's nonzeros
    /// with a coefficient lookup per term (the historical sparse path);
    /// `Vectorized` feeds the nonzeros through the same blocked kernel as
    /// the dense path. Projections agree bit-for-bit with each other and
    /// with [`SignedPlanes::project_dense`] of the densified vector.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ, `out.len() != planes`, or an
    /// index is out of range.
    pub fn project_sparse(
        &self,
        indices: &[u32],
        values: &[f32],
        out: &mut [f32],
        mode: KernelMode,
    ) {
        assert_eq!(indices.len(), values.len(), "project_sparse: input lengths");
        assert_eq!(out.len(), self.planes, "project_sparse: output length");
        if let Some(&max) = indices.last() {
            assert!(
                (max as usize) < self.dim,
                "project_sparse: index {max} out of range for dim {}",
                self.dim
            );
        }
        #[cfg(target_arch = "x86_64")]
        if blocked(mode) {
            // SAFETY: AVX2+FMA presence checked; indices validated
            // against dim above (ascending => last is max).
            unsafe {
                avxh::project_sparse(&self.packed, self.dim, self.planes, indices, values, out)
            };
            return;
        }
        for (p, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&i, &v) in indices.iter().zip(values) {
                acc += self.coeff(p, i) * v;
            }
            *o = acc;
        }
    }
}

/// Whether `mode` runs the blocked AVX2+FMA kernel: `Vectorized` on a
/// CPU with both. Everywhere else the scalar reference runs, whose bits
/// the blocked kernel equals (see the module docs).
fn blocked(mode: KernelMode) -> bool {
    #[cfg(target_arch = "x86_64")]
    if mode == KernelMode::Vectorized {
        return crate::fused::have_avx2_fma();
    }
    false
}

/// AVX2/FMA blocked projection (x86-64 only); callers check
/// `have_avx2_fma()` first. Blocks are processed four at a time so four
/// independent FMA chains hide the instruction latency while each lane
/// still accumulates in strict ascending-index order.
#[cfg(target_arch = "x86_64")]
mod avxh {
    use std::arch::x86_64::*;

    /// Loads one 8-coefficient column (8 × i8) and widens it to `f32`
    /// lanes; both conversions are exact for `{-1, 0, 1}`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must point at 8 readable bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn column(p: *const i8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// Stores a block group's accumulators, spilling a final partial
    /// block through a stack buffer.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out.len() == planes`; blocks `b0..b0+G` exist.
    #[target_feature(enable = "avx2")]
    unsafe fn store<const G: usize>(acc: [__m256; G], b0: usize, planes: usize, out: &mut [f32]) {
        for (g, a) in acc.iter().enumerate() {
            let p0 = (b0 + g) * 8;
            if planes - p0 >= 8 {
                _mm256_storeu_ps(out.as_mut_ptr().add(p0), *a);
            } else {
                let mut tmp = [0.0f32; 8];
                _mm256_storeu_ps(tmp.as_mut_ptr(), *a);
                out[p0..planes].copy_from_slice(&tmp[..planes - p0]);
            }
        }
    }

    /// Projects `G` blocks over a sparse input's `(indices, values)`.
    ///
    /// # Safety
    ///
    /// As [`rows_group`] with one row, plus every index below `dim` and
    /// `indices.len() == values.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sparse_group<const G: usize>(
        packed: &[i8],
        dim: usize,
        b0: usize,
        planes: usize,
        indices: &[u32],
        values: &[f32],
        out: &mut [f32],
    ) {
        let mut acc = [_mm256_setzero_ps(); G];
        let bases: [*const i8; G] =
            std::array::from_fn(|g| packed.as_ptr().add((b0 + g) * dim * 8));
        for (&i, &x) in indices.iter().zip(values) {
            let xv = _mm256_set1_ps(x);
            for g in 0..G {
                acc[g] = _mm256_fmadd_ps(column(bases[g].add(i as usize * 8)), xv, acc[g]);
            }
        }
        store(acc, b0, planes, out);
    }

    /// Projects `R` rows (`rows`: `R × dim`) onto `G` blocks (planes
    /// `b0·8 .. (b0+G)·8`) in one pass: each widened column feeds `R`
    /// FMAs, one per row, into that row's own accumulators. With `R = 1`
    /// this is the one-row selection pass.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `packed` laid out as in `SignedPlanes`;
    /// `rows.len() == R·dim`; `out.len() == R·planes`; blocks
    /// `b0..b0+G` exist.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_group<const R: usize, const G: usize>(
        packed: &[i8],
        dim: usize,
        b0: usize,
        planes: usize,
        rows: &[f32],
        out: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); G]; R];
        let bases: [*const i8; G] =
            std::array::from_fn(|g| packed.as_ptr().add((b0 + g) * dim * 8));
        let mut cols = [_mm256_setzero_ps(); G];
        for i in 0..dim {
            for g in 0..G {
                cols[g] = column(bases[g].add(i * 8));
            }
            for (r, row_acc) in acc.iter_mut().enumerate() {
                let xv = _mm256_broadcast_ss(&*rows.as_ptr().add(r * dim + i));
                for (a, &c) in row_acc.iter_mut().zip(&cols) {
                    *a = _mm256_fmadd_ps(c, xv, *a);
                }
            }
        }
        for (r, a) in acc.into_iter().enumerate() {
            store(a, b0, planes, &mut out[r * planes..(r + 1) * planes]);
        }
    }

    /// Projects whole tiles of [`super::ROW_TILE`] rows, two blocks per
    /// pass (the last block of an odd count alone).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `packed` laid out as in `SignedPlanes`;
    /// `rows.len()` a multiple of `ROW_TILE·dim`; `out.len()` the same
    /// number of rows times `planes`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn project_rows(
        packed: &[i8],
        dim: usize,
        planes: usize,
        rows: &[f32],
        out: &mut [f32],
    ) {
        const R: usize = super::ROW_TILE;
        let nblocks = planes.div_ceil(8);
        for (t, o) in rows
            .chunks_exact(R * dim)
            .zip(out.chunks_exact_mut(R * planes))
        {
            let mut b = 0;
            while b + 2 <= nblocks {
                rows_group::<R, 2>(packed, dim, b, planes, t, o);
                b += 2;
            }
            if b < nblocks {
                rows_group::<R, 1>(packed, dim, b, planes, t, o);
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA; `packed` laid out as in `SignedPlanes`;
    /// `input.len() == dim`; `out.len() == planes`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn project_dense(
        packed: &[i8],
        dim: usize,
        planes: usize,
        input: &[f32],
        out: &mut [f32],
    ) {
        let nblocks = planes.div_ceil(8);
        let mut b = 0;
        while b < nblocks {
            match nblocks - b {
                1 => rows_group::<1, 1>(packed, dim, b, planes, input, out),
                2 => rows_group::<1, 2>(packed, dim, b, planes, input, out),
                3 => rows_group::<1, 3>(packed, dim, b, planes, input, out),
                _ => rows_group::<1, 4>(packed, dim, b, planes, input, out),
            }
            b += (nblocks - b).min(4);
        }
    }

    /// # Safety
    ///
    /// As [`project_dense`], with the sparse-input requirements of
    /// [`sparse_group`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn project_sparse(
        packed: &[i8],
        dim: usize,
        planes: usize,
        indices: &[u32],
        values: &[f32],
        out: &mut [f32],
    ) {
        let nblocks = planes.div_ceil(8);
        let mut b = 0;
        while b < nblocks {
            match nblocks - b {
                1 => sparse_group::<1>(packed, dim, b, planes, indices, values, out),
                2 => sparse_group::<2>(packed, dim, b, planes, indices, values, out),
                3 => sparse_group::<3>(packed, dim, b, planes, indices, values, out),
                _ => sparse_group::<4>(packed, dim, b, planes, indices, values, out),
            }
            b += (nblocks - b).min(4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic xorshift for test data (no external RNG dep here).
    struct TinyRng(u64);

    impl TinyRng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn f32(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        }
    }

    fn random_planes(dim: usize, planes: usize, seed: u64) -> SignedPlanes {
        let mut rng = TinyRng(seed | 1);
        let mut b = SignedPlanesBuilder::new(dim);
        for _ in 0..planes {
            let mut entries: Vec<(u32, i8)> = Vec::new();
            for i in 0..dim as u32 {
                if rng.next().is_multiple_of(3) {
                    entries.push((i, if rng.next().is_multiple_of(2) { 1 } else { -1 }));
                }
            }
            b.push_plane(entries);
        }
        b.finish()
    }

    #[test]
    fn builder_validates() {
        let mut b = SignedPlanesBuilder::new(10);
        b.push_plane([(1, 1), (3, -1), (9, 1)]);
        b.push_plane([]); // empty plane is legal
        let sp = b.finish();
        assert_eq!(sp.dim(), 10);
        assert_eq!(sp.planes(), 2);
        assert_eq!(sp.plane_entries(0).0, &[1, 3, 9]);
        assert_eq!(sp.plane_entries(0).1, &[1, -1, 1]);
        assert_eq!(sp.plane_entries(1).0, &[] as &[u32]);
        assert_eq!(sp.coeff(0, 3), -1.0);
        assert_eq!(sp.coeff(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn builder_rejects_unsorted() {
        let mut b = SignedPlanesBuilder::new(10);
        b.push_plane([(3, 1), (1, -1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = SignedPlanesBuilder::new(4);
        b.push_plane([(4, 1)]);
    }

    #[test]
    #[should_panic(expected = "sign")]
    fn builder_rejects_bad_sign() {
        let mut b = SignedPlanesBuilder::new(4);
        b.push_plane([(0, 2)]);
    }

    #[test]
    fn dense_modes_agree_exactly() {
        // Partial last block (planes = 13) and a dim crossing several
        // cache lines: Scalar and Vectorized must match to the bit.
        for &(dim, planes, seed) in &[
            (32usize, 13usize, 7u64),
            (96, 8, 11),
            (5, 1, 3),
            (128, 72, 42),
        ] {
            let sp = random_planes(dim, planes, seed);
            let mut rng = TinyRng(seed.wrapping_mul(0x9E37));
            let input: Vec<f32> = (0..dim).map(|_| rng.f32()).collect();
            let mut a = vec![0.0f32; planes];
            let mut b = vec![1.0f32; planes];
            sp.project_dense(&input, &mut a, KernelMode::Scalar);
            sp.project_dense(&input, &mut b, KernelMode::Vectorized);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    /// `rows` projected one row at a time by the scalar reference.
    fn per_row(sp: &SignedPlanes, rows: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len() / sp.dim() * sp.planes()];
        for (row, o) in rows
            .chunks_exact(sp.dim())
            .zip(out.chunks_exact_mut(sp.planes()))
        {
            sp.project_dense(row, o, KernelMode::Scalar);
        }
        out
    }

    /// `n` rows of test data: some rows all `±0.0`, the rest random
    /// values with `±0.0` sprinkled in.
    fn rows_with_zeros(rng: &mut TinyRng, n: usize, dim: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let all_zero = rng.next().is_multiple_of(4);
            for _ in 0..dim {
                let zero = all_zero || rng.next().is_multiple_of(4);
                rows.push(match (zero, rng.next().is_multiple_of(2)) {
                    (true, true) => 0.0,
                    (true, false) => -0.0,
                    (false, _) => rng.f32() * 4.0,
                });
            }
        }
        rows
    }

    /// Asserts the row kernel (both modes) equals per-row `project_dense`
    /// to the bit.
    fn check_rows(sp: &SignedPlanes, rows: &[f32]) {
        let want = per_row(sp, rows);
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let mut got = vec![f32::NAN; want.len()];
            sp.project_dense_rows(rows, &mut got, mode);
            for (x, y) in want.iter().zip(&got) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mode}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn dense_rows_match_per_row_exactly() {
        // Odd and even block counts, a partial last block, and row counts
        // below, at and past whole tiles.
        for &(dim, planes, n, seed) in &[
            (32usize, 13usize, 9usize, 7u64),
            (128, 450, 10, 42),
            (5, 1, 4, 3),
            (64, 40, 3, 11),
            (17, 24, 8, 13),
        ] {
            let sp = random_planes(dim, planes, seed);
            let mut rng = TinyRng(seed.wrapping_mul(0x9E37));
            check_rows(&sp, &rows_with_zeros(&mut rng, n, dim));
        }
    }

    #[test]
    fn dense_rows_of_signed_zeros_project_to_positive_zero() {
        let sp = random_planes(24, 19, 5);
        let rows: Vec<f32> = (0..24 * 6)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        check_rows(&sp, &rows);
        let mut out = vec![f32::NAN; 6 * 19];
        sp.project_dense_rows(&rows, &mut out, KernelMode::Vectorized);
        assert!(out.iter().all(|p| p.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "project_dense_rows: input length")]
    fn dense_rows_reject_a_ragged_input() {
        let sp = random_planes(8, 3, 1);
        sp.project_dense_rows(&[0.0; 12], &mut [0.0; 3], KernelMode::Vectorized);
    }

    #[test]
    fn sparse_modes_agree_exactly() {
        let sp = random_planes(64, 24, 17);
        let mut rng = TinyRng(23);
        let indices: Vec<u32> = (0..64u32)
            .filter(|_| rng.next().is_multiple_of(4))
            .collect();
        let values: Vec<f32> = indices.iter().map(|_| rng.f32()).collect();
        let mut a = vec![0.0f32; 24];
        let mut b = vec![0.0f32; 24];
        sp.project_sparse(&indices, &values, &mut a, KernelMode::Scalar);
        sp.project_sparse(&indices, &values, &mut b, KernelMode::Vectorized);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sparse_matches_densified_dense() {
        let dim = 40;
        let sp = random_planes(dim, 11, 29);
        let mut rng = TinyRng(31);
        let indices: Vec<u32> = (0..dim as u32)
            .filter(|_| rng.next().is_multiple_of(3))
            .collect();
        let values: Vec<f32> = indices.iter().map(|_| rng.f32()).collect();
        let mut dense = vec![0.0f32; dim];
        for (&i, &v) in indices.iter().zip(&values) {
            dense[i as usize] = v;
        }
        let mut a = vec![0.0f32; 11];
        let mut b = vec![0.0f32; 11];
        sp.project_sparse(&indices, &values, &mut a, KernelMode::Vectorized);
        sp.project_dense(&dense, &mut b, KernelMode::Vectorized);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_dense_modes_bit_identical(
            seed in 1u64..5000,
            dim in 1usize..80,
            planes in 1usize..40,
        ) {
            let sp = random_planes(dim, planes, seed);
            let mut rng = TinyRng(seed.wrapping_mul(0xA5A5) | 1);
            let input: Vec<f32> = (0..dim).map(|_| rng.f32() * 4.0).collect();
            let mut a = vec![0.0f32; planes];
            let mut b = vec![0.0f32; planes];
            sp.project_dense(&input, &mut a, KernelMode::Scalar);
            sp.project_dense(&input, &mut b, KernelMode::Vectorized);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn prop_dense_rows_bit_identical(
            seed in 1u64..5000,
            dim in 1usize..80,
            planes in 1usize..40,
            n in 0usize..11,
        ) {
            let sp = random_planes(dim, planes, seed);
            let mut rng = TinyRng(seed.wrapping_mul(0x3C3C) | 1);
            check_rows(&sp, &rows_with_zeros(&mut rng, n, dim));
        }

        #[test]
        fn prop_sparse_modes_bit_identical(
            seed in 1u64..5000,
            dim in 1usize..80,
            planes in 1usize..40,
        ) {
            let sp = random_planes(dim, planes, seed);
            let mut rng = TinyRng(seed.wrapping_mul(0x5A5A) | 1);
            let indices: Vec<u32> =
                (0..dim as u32).filter(|_| !rng.next().is_multiple_of(3)).collect();
            let values: Vec<f32> = indices.iter().map(|_| rng.f32() * 4.0).collect();
            let mut a = vec![0.0f32; planes];
            let mut b = vec![0.0f32; planes];
            sp.project_sparse(&indices, &values, &mut a, KernelMode::Scalar);
            sp.project_sparse(&indices, &values, &mut b, KernelMode::Vectorized);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
