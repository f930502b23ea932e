//! SimHash — signed sparse random projection (paper §3.2, Appendix A).
//!
//! Each hash function is a random hyperplane with entries in `{+1, 0, −1}`;
//! the code is the sign bit of the projection. Following the paper (and
//! Li et al. 2006, "very sparse random projections") the planes are kept
//! sparse — only a `sparsity` fraction of the `dim` components is nonzero —
//! so projecting costs additions only, no multiplications.
//!
//! Plane storage and evaluation live in
//! [`slide_kernels::SignedPlanes`]: a per-plane sorted entry list (the
//! scalar reference and the coefficient lookup) plus a blocked
//! plane-per-lane packed layout that computes all `K × L` projections in
//! SIMD register passes. Because every coefficient is `±1`, the
//! vectorized kernel is **bit-identical** to the scalar reference — the
//! codes cannot depend on the dispatched ISA, which is what lets both
//! table rebuilds ([`HashFamily::hash_dense_rows_mode`], row-tiled) and
//! per-example selection ([`HashFamily::hash_dense_mode`]) use whichever
//! is fastest.
//!
//! The paper's §4.2(3) optimization memoizes each neuron's projections
//! and updates them in `O(d′)` after a sparse weight change. This crate
//! does not keep such a memo: the layer's table build stands in for it
//! by rehashing only the rows written since the last build (the dirty
//! rows of `slide_core`'s `LayerLsh`), so an untouched neuron costs no
//! projection work at all.

use slide_data::rng::Rng;
use slide_data::SparseVector;
use slide_kernels::{KernelMode, SignedPlanes, SignedPlanesBuilder, ROW_TILE};

use crate::family::{check_args, check_rows, HashFamily, HashFamilyKind};

/// Projection floats kept on the stack per hashed row: 2 KB, which covers
/// the paper's shapes (SimHash K=9 L=50 is 450 planes).
const STACK_PLANES: usize = 512;

/// Runs `f` on a zeroed projection buffer of `len` floats, stack
/// allocated up to `STACK` floats (heap above).
fn with_projections<const STACK: usize, R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len <= STACK {
        let mut buf = [0.0f32; STACK];
        f(&mut buf[..len])
    } else {
        let mut buf = vec![0.0f32; len];
        f(&mut buf)
    }
}

/// The SimHash family: `K × L` sparse signed random projections.
///
/// # Example
///
/// ```
/// use slide_lsh::{family::HashFamily, simhash::SimHash};
/// use slide_data::rng::Xoshiro256PlusPlus;
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
/// let h = SimHash::new(64, 6, 10, 1.0 / 3.0, &mut rng);
/// assert_eq!(h.num_codes(), 60);
/// assert_eq!(h.code_range(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SimHash {
    dim: usize,
    k: usize,
    l: usize,
    planes: SignedPlanes,
}

impl SimHash {
    /// Creates `k × l` planes over `R^dim`, each with `⌈sparsity · dim⌉`
    /// nonzero ±1 entries (paper default: 1/3).
    ///
    /// # Panics
    ///
    /// Panics if `dim`, `k` or `l` is zero, or `sparsity ∉ (0, 1]`.
    pub fn new<R: Rng>(dim: usize, k: usize, l: usize, sparsity: f64, rng: &mut R) -> Self {
        assert!(dim > 0 && k > 0 && l > 0, "dim, k, l must be positive");
        assert!(
            sparsity > 0.0 && sparsity <= 1.0,
            "sparsity {sparsity} outside (0, 1]"
        );
        let nnz = ((dim as f64 * sparsity).ceil() as usize).clamp(1, dim);
        let mut builder = SignedPlanesBuilder::new(dim);
        for _ in 0..k * l {
            let mut idx = rng.sample_distinct(dim, nnz);
            idx.sort_unstable();
            builder.push_plane(idx.into_iter().map(|i| {
                let sign: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
                (i as u32, sign)
            }));
        }
        Self {
            dim,
            k,
            l,
            planes: builder.finish(),
        }
    }

    /// Converts projections into hash codes: the sign bit of each.
    fn codes_from_projections(&self, projections: &[f32], out: &mut [u32]) {
        assert_eq!(projections.len(), self.num_codes());
        assert_eq!(out.len(), self.num_codes());
        for (o, &p) in out.iter_mut().zip(projections) {
            *o = (p >= 0.0) as u32;
        }
    }
}

impl HashFamily for SimHash {
    fn k(&self) -> usize {
        self.k
    }

    fn l(&self) -> usize {
        self.l
    }

    fn code_range(&self) -> u32 {
        2
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn kind(&self) -> HashFamilyKind {
        HashFamilyKind::SimHash
    }

    fn hash_dense(&self, input: &[f32], out: &mut [u32]) {
        self.hash_dense_mode(input, out, KernelMode::Scalar);
    }

    fn hash_sparse(&self, input: &SparseVector, out: &mut [u32]) {
        self.hash_sparse_mode(input, out, KernelMode::Scalar);
    }

    fn hash_dense_mode(&self, input: &[f32], out: &mut [u32], mode: KernelMode) {
        check_args(self.dim, input.len(), self.num_codes(), out.len());
        with_projections::<STACK_PLANES, _>(self.num_codes(), |proj| {
            self.planes.project_dense(input, proj, mode);
            self.codes_from_projections(proj, out);
        });
    }

    /// One [`SignedPlanes::project_dense_rows`] call over all rows, then
    /// the sign rule per row; a rebuild's [`ROW_TILE`]-row chunk stays on
    /// the stack.
    fn hash_dense_rows_mode(&self, rows: &[f32], out: &mut [u32], mode: KernelMode) {
        let nc = self.num_codes();
        check_rows(self.dim, rows.len(), nc, out.len());
        with_projections::<{ ROW_TILE * STACK_PLANES }, _>(out.len(), |proj| {
            self.planes.project_dense_rows(rows, proj, mode);
            for (p, o) in proj.chunks_exact(nc).zip(out.chunks_exact_mut(nc)) {
                self.codes_from_projections(p, o);
            }
        });
    }

    fn hash_sparse_mode(&self, input: &SparseVector, out: &mut [u32], mode: KernelMode) {
        assert_eq!(out.len(), self.num_codes(), "bad output buffer length");
        with_projections::<STACK_PLANES, _>(self.num_codes(), |proj| {
            self.planes
                .project_sparse(input.indices(), input.values(), proj, mode);
            self.codes_from_projections(proj, out);
        });
    }

    fn dense_exact(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slide_data::rng::Rng;
    use slide_data::rng::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    fn random_vec(rng: &mut Xoshiro256PlusPlus, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| rng.next_normal() as f32).collect()
    }

    #[test]
    fn construction_validates() {
        let h = SimHash::new(100, 3, 5, 0.3, &mut rng(1));
        assert_eq!(h.k(), 3);
        assert_eq!(h.l(), 5);
        assert_eq!(h.num_codes(), 15);
        assert_eq!(h.dim(), 100);
        assert_eq!(h.kind(), HashFamilyKind::SimHash);
        assert!(h.dense_exact());
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn rejects_bad_sparsity() {
        let _ = SimHash::new(10, 1, 1, 0.0, &mut rng(1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_dim() {
        let _ = SimHash::new(0, 1, 1, 0.5, &mut rng(1));
    }

    #[test]
    fn codes_are_binary() {
        let h = SimHash::new(50, 4, 6, 0.5, &mut rng(2));
        let mut r = rng(3);
        let v = random_vec(&mut r, 50);
        let mut codes = vec![99u32; h.num_codes()];
        h.hash_dense(&v, &mut codes);
        assert!(codes.iter().all(|&c| c < 2));
    }

    #[test]
    fn deterministic() {
        let h = SimHash::new(50, 4, 6, 0.5, &mut rng(2));
        let mut r = rng(3);
        let v = random_vec(&mut r, 50);
        let mut a = vec![0u32; h.num_codes()];
        let mut b = vec![0u32; h.num_codes()];
        h.hash_dense(&v, &mut a);
        h.hash_dense(&v, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let h = SimHash::new(80, 3, 7, 0.4, &mut rng(4));
        let mut r = rng(5);
        let pairs: Vec<(u32, f32)> = (0..12)
            .map(|_| (r.gen_range(0, 80) as u32, r.next_normal() as f32))
            .collect();
        let sv = SparseVector::from_pairs(pairs);
        let dense = sv.to_dense(80);
        let mut cs = vec![0u32; h.num_codes()];
        let mut cd = vec![0u32; h.num_codes()];
        h.hash_sparse(&sv, &mut cs);
        h.hash_dense(&dense, &mut cd);
        assert_eq!(cs, cd);
    }

    #[test]
    fn scale_invariance() {
        // Sign of a projection is invariant to positive scaling — the
        // defining property of a cosine-similarity LSH.
        let h = SimHash::new(60, 5, 5, 1.0, &mut rng(6));
        let mut r = rng(7);
        let v = random_vec(&mut r, 60);
        let scaled: Vec<f32> = v.iter().map(|x| x * 7.5).collect();
        let mut a = vec![0u32; h.num_codes()];
        let mut b = vec![0u32; h.num_codes()];
        h.hash_dense(&v, &mut a);
        h.hash_dense(&scaled, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn collision_rate_tracks_cosine_similarity() {
        // Empirical collision probability of a single-bit SimHash should
        // approximate 1 − θ/π (paper Appendix B). Use many planes as
        // independent trials.
        let dim = 128;
        let h = SimHash::new(dim, 1, 2000, 1.0, &mut rng(8));
        let mut r = rng(9);
        let a = random_vec(&mut r, dim);
        // b = a rotated slightly: high similarity.
        let mut b = a.clone();
        for x in b.iter_mut().take(16) {
            *x += r.next_normal() as f32 * 0.5;
        }
        let dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        let cos = (dot / (na * nb)).clamp(-1.0, 1.0) as f64;
        let expected = crate::prob::simhash_collision_prob(cos);

        let mut ca = vec![0u32; h.num_codes()];
        let mut cb = vec![0u32; h.num_codes()];
        h.hash_dense(&a, &mut ca);
        h.hash_dense(&b, &mut cb);
        let collisions = ca.iter().zip(&cb).filter(|(x, y)| x == y).count();
        let rate = collisions as f64 / h.num_codes() as f64;
        assert!(
            (rate - expected).abs() < 0.05,
            "rate {rate:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn vectorized_dense_codes_bit_identical_to_scalar() {
        // Also exercises > 512 planes (heap projection buffer).
        for &(dim, k, l) in &[
            (64usize, 6usize, 12usize),
            (37, 3, 5),
            (128, 9, 31),
            (128, 9, 60),
        ] {
            let h = SimHash::new(dim, k, l, 1.0 / 3.0, &mut rng(40 + dim as u64));
            let mut r = rng(41 + dim as u64);
            let v = random_vec(&mut r, dim);
            let mut a = vec![0u32; h.num_codes()];
            let mut b = vec![0u32; h.num_codes()];
            h.hash_dense_mode(&v, &mut a, KernelMode::Scalar);
            h.hash_dense_mode(&v, &mut b, KernelMode::Vectorized);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn vectorized_sparse_codes_bit_identical_to_scalar() {
        let h = SimHash::new(200, 5, 8, 1.0 / 3.0, &mut rng(50));
        let mut r = rng(51);
        let pairs: Vec<(u32, f32)> = (0..30)
            .map(|_| (r.gen_range(0, 200) as u32, r.next_normal() as f32))
            .collect();
        let sv = SparseVector::from_pairs(pairs);
        let mut a = vec![0u32; h.num_codes()];
        let mut b = vec![0u32; h.num_codes()];
        h.hash_sparse_mode(&sv, &mut a, KernelMode::Scalar);
        h.hash_sparse_mode(&sv, &mut b, KernelMode::Vectorized);
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_sparse_dense_agree(
            seed in 0u64..1000,
            pairs in proptest::collection::btree_map(0u32..40, -5.0f32..5.0, 1..10),
        ) {
            let h = SimHash::new(40, 3, 4, 0.5, &mut rng(seed));
            let sv = SparseVector::from_pairs(pairs.into_iter());
            let dense = sv.to_dense(40);
            let mut cs = vec![0u32; h.num_codes()];
            let mut cd = vec![0u32; h.num_codes()];
            h.hash_sparse(&sv, &mut cs);
            h.hash_dense(&dense, &mut cd);
            prop_assert_eq!(cs, cd);
        }

        #[test]
        fn prop_codes_binary(seed in 0u64..1000) {
            let h = SimHash::new(30, 2, 3, 1.0, &mut rng(seed));
            let mut r = rng(seed + 1);
            let v = random_vec(&mut r, 30);
            let mut codes = vec![0u32; h.num_codes()];
            h.hash_dense(&v, &mut codes);
            prop_assert!(codes.iter().all(|&c| c < h.code_range()));
        }

        /// SIMD codes pinned bit-identical to the scalar reference on
        /// dense inputs (the rebuild path's row shape).
        #[test]
        fn prop_dense_mode_codes_bit_identical(
            seed in 0u64..1000,
            dim in 4usize..96,
        ) {
            let h = SimHash::new(dim, 3, 7, 1.0 / 3.0, &mut rng(seed));
            let mut r = rng(seed ^ 0xABCD);
            let v = random_vec(&mut r, dim);
            let mut a = vec![0u32; h.num_codes()];
            let mut b = vec![0u32; h.num_codes()];
            h.hash_dense_mode(&v, &mut a, KernelMode::Scalar);
            h.hash_dense_mode(&v, &mut b, KernelMode::Vectorized);
            prop_assert_eq!(a, b);
        }

        /// The rebuild entry pinned to per-row `hash_dense_mode` in both
        /// modes: row counts around whole tiles, plane counts off the
        /// 8-lane blocks, and chunks past the stack buffer.
        #[test]
        fn prop_dense_rows_codes_match_per_row(
            seed in 0u64..1000,
            dim in 1usize..64,
            k in 1usize..10,
            l in 1usize..30,
            n in 0usize..11,
        ) {
            let h = SimHash::new(dim, k, l, 1.0 / 3.0, &mut rng(seed));
            let mut r = rng(seed ^ 0x5EED);
            let rows = random_vec(&mut r, n * dim);
            let nc = h.num_codes();
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let mut want = vec![0u32; n * nc];
                for (row, o) in rows.chunks_exact(dim).zip(want.chunks_exact_mut(nc)) {
                    h.hash_dense_mode(row, o, mode);
                }
                let mut got = vec![9u32; n * nc];
                h.hash_dense_rows_mode(&rows, &mut got, mode);
                prop_assert_eq!(&want, &got);
            }
        }

        /// SIMD codes pinned bit-identical on *centered* rows (the
        /// mean-subtracted shape `rebuild_tables` hashes when row
        /// centering is on): exercises negative-heavy, near-cancelling
        /// inputs.
        #[test]
        fn prop_centered_row_codes_bit_identical(
            seed in 0u64..1000,
            dim in 8usize..64,
        ) {
            let h = SimHash::new(dim, 4, 6, 1.0 / 3.0, &mut rng(seed));
            let mut r = rng(seed ^ 0x1234);
            let mut v = random_vec(&mut r, dim);
            let mean = v.iter().sum::<f32>() / dim as f32;
            for x in v.iter_mut() {
                *x -= mean;
            }
            let mut a = vec![0u32; h.num_codes()];
            let mut b = vec![0u32; h.num_codes()];
            h.hash_dense_mode(&v, &mut a, KernelMode::Scalar);
            h.hash_dense_mode(&v, &mut b, KernelMode::Vectorized);
            prop_assert_eq!(a, b);
        }

        /// SIMD sparse-path codes pinned bit-identical to the scalar
        /// sparse reference, and to the dense path on the densified
        /// vector (the `dense_exact` contract).
        #[test]
        fn prop_sparse_mode_codes_bit_identical(
            seed in 0u64..1000,
            pairs in proptest::collection::btree_map(0u32..60, -4.0f32..4.0, 1..14),
        ) {
            let h = SimHash::new(60, 3, 5, 1.0 / 3.0, &mut rng(seed));
            let sv = SparseVector::from_pairs(pairs.into_iter());
            let dense = sv.to_dense(60);
            let mut scalar = vec![0u32; h.num_codes()];
            let mut simd = vec![0u32; h.num_codes()];
            let mut dense_simd = vec![0u32; h.num_codes()];
            h.hash_sparse_mode(&sv, &mut scalar, KernelMode::Scalar);
            h.hash_sparse_mode(&sv, &mut simd, KernelMode::Vectorized);
            h.hash_dense_mode(&dense, &mut dense_simd, KernelMode::Vectorized);
            prop_assert_eq!(&scalar, &simd);
            prop_assert_eq!(&scalar, &dense_simd);
        }
    }
}
