//! The [`HashFamily`] trait: a source of `K × L` randomized hash codes.
//!
//! A family instance is constructed once per layer (paper §3.1: "K × L LSH
//! hash functions are initialized along with L hash tables for each of the
//! layers") and then queried with either a dense vector (a neuron's weight
//! row, a dense layer input) or a sparse vector (the raw input features).

use slide_data::SparseVector;
use slide_kernels::KernelMode;

/// Identifies one of the four supported hash families.
///
/// Used in network configuration; see the paper's §3.2 for when each is
/// appropriate (SimHash for cosine similarity, WTA/DWTA for rank
/// correlation on dense/sparse data, DOPH for binary/min-wise similarity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashFamilyKind {
    /// Signed random projection (cosine similarity).
    SimHash,
    /// Winner-takes-all (rank correlation, dense inputs).
    Wta,
    /// Densified winner-takes-all (rank correlation, sparse inputs).
    Dwta,
    /// Densified one-permutation minwise hashing over binarized inputs.
    Doph,
}

impl std::fmt::Display for HashFamilyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HashFamilyKind::SimHash => write!(f, "simhash"),
            HashFamilyKind::Wta => write!(f, "wta"),
            HashFamilyKind::Dwta => write!(f, "dwta"),
            HashFamilyKind::Doph => write!(f, "doph"),
        }
    }
}

/// A family of `K × L` locality-sensitive hash functions over `R^dim`.
///
/// Codes are written into a caller-provided `&mut [u32]` of length
/// [`HashFamily::num_codes`] laid out as `L` consecutive groups of `K`
/// codes — group `t` feeds hash table `t`. Each code lies in
/// `[0, code_range())`.
///
/// Implementations must be deterministic: hashing the same vector twice
/// yields the same codes (collision randomness comes from function
/// construction, not evaluation).
pub trait HashFamily: Send + Sync {
    /// Number of hash functions per table (the paper's `K`).
    fn k(&self) -> usize;

    /// Number of tables (the paper's `L`).
    fn l(&self) -> usize;

    /// Total codes produced per input: `K × L`.
    fn num_codes(&self) -> usize {
        self.k() * self.l()
    }

    /// Exclusive upper bound of each code value.
    fn code_range(&self) -> u32;

    /// Input dimensionality this family was constructed for.
    fn dim(&self) -> usize;

    /// Which family this is (for reporting).
    fn kind(&self) -> HashFamilyKind;

    /// Hashes a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.dim()` or
    /// `out.len() != self.num_codes()`.
    fn hash_dense(&self, input: &[f32], out: &mut [u32]);

    /// Hashes a sparse vector (indices must be `< self.dim()`).
    ///
    /// The default implementation densifies; families with a native sparse
    /// path (SimHash, DWTA, DOPH) override it.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_codes()` or an index is out of
    /// range.
    fn hash_sparse(&self, input: &SparseVector, out: &mut [u32]) {
        let dense = input.to_dense(self.dim());
        self.hash_dense(&dense, out);
    }

    /// Mode-aware [`HashFamily::hash_dense`] — the entry point
    /// per-example selection hashes layer inputs through. Table rebuilds
    /// hash weight rows through [`HashFamily::hash_dense_rows_mode`],
    /// whose codes must equal this method's row by row, so a vectorized
    /// kernel can never diverge from what the tables were built with.
    ///
    /// The default ignores the mode and runs the scalar reference;
    /// families with a vectorized kernel (SimHash) override it. Overrides
    /// must produce codes bit-identical to `hash_dense` in every mode.
    fn hash_dense_mode(&self, input: &[f32], out: &mut [u32], mode: KernelMode) {
        let _ = mode;
        self.hash_dense(input, out);
    }

    /// Hashes `n = rows.len() / dim` dense rows, stored row-major, into
    /// `out` (`n × num_codes`, row `r`'s codes at `r · num_codes`) — the
    /// entry point table rebuilds hash weight rows through. Same contract
    /// as [`HashFamily::hash_dense_mode`]: every row's codes are
    /// bit-identical to `hash_dense_mode` of that row in every mode.
    ///
    /// The default hashes one row at a time through `hash_dense_mode`;
    /// SimHash overrides it with its row-tiled projection kernel.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `self.dim()` or
    /// `out.len()` is not `n × self.num_codes()`.
    fn hash_dense_rows_mode(&self, rows: &[f32], out: &mut [u32], mode: KernelMode) {
        check_rows(self.dim(), rows.len(), self.num_codes(), out.len());
        for (row, codes) in rows
            .chunks_exact(self.dim())
            .zip(out.chunks_exact_mut(self.num_codes()))
        {
            self.hash_dense_mode(row, codes, mode);
        }
    }

    /// Mode-aware [`HashFamily::hash_sparse`]; same contract as
    /// [`HashFamily::hash_dense_mode`].
    fn hash_sparse_mode(&self, input: &SparseVector, out: &mut [u32], mode: KernelMode) {
        let _ = mode;
        self.hash_sparse(input, out);
    }

    /// Whether hashing a densified vector via `hash_dense*` yields codes
    /// **bit-identical** to hashing the sparse original via
    /// `hash_sparse*`.
    ///
    /// True for SimHash (±1 arithmetic is exact in every evaluation
    /// order); false by default — e.g. DWTA's dense path scans all bin
    /// coordinates while its sparse path only sees nonzeros, so bins full
    /// of tied zeros break differently. Selection uses this to take the
    /// cheap dense path on dense-identity layer inputs without changing
    /// training behavior.
    fn dense_exact(&self) -> bool {
        false
    }
}

/// Validates the common `hash_*` preconditions; shared by implementations.
pub(crate) fn check_args(dim: usize, input_len: usize, num_codes: usize, out_len: usize) {
    assert!(
        input_len == dim,
        "input length {input_len} does not match family dim {dim}"
    );
    assert!(
        out_len == num_codes,
        "output buffer length {out_len} does not match num_codes {num_codes}"
    );
}

/// Validates the `hash_dense_rows_mode` preconditions.
pub(crate) fn check_rows(dim: usize, rows_len: usize, num_codes: usize, out_len: usize) {
    assert!(
        rows_len.is_multiple_of(dim),
        "rows length {rows_len} is not a multiple of family dim {dim}"
    );
    assert!(
        out_len == rows_len / dim * num_codes,
        "output buffer length {out_len} does not match {} rows of {num_codes} codes",
        rows_len / dim
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(HashFamilyKind::SimHash.to_string(), "simhash");
        assert_eq!(HashFamilyKind::Dwta.to_string(), "dwta");
        assert_eq!(HashFamilyKind::Wta.to_string(), "wta");
        assert_eq!(HashFamilyKind::Doph.to_string(), "doph");
    }
}
