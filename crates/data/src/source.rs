//! [`ExampleSource`] — the one interface the trainer, the benches and
//! the examples consume datasets through — and [`MmapDataset`], the
//! memory-mapped implementation over a compiled [`crate::cache`] file.
//!
//! Two source flavors share the trait:
//!
//! * an in-memory [`Dataset`] (the zero-copy fast path:
//!   [`ExampleSource::as_examples`] exposes the slice directly);
//! * a [`MmapDataset`] backed by `mmap(2)` — the kernel pages example
//!   bytes in on demand, so corpora far larger than RAM train with the
//!   page cache as the only buffer.
//!
//! `mmap` is reached through a direct `extern "C"` binding (the build
//! environment has no `libc` crate). 64-bit Linux is the one supported
//! platform; any other target fails to compile here.
//!
//! ## Integrity and panics
//!
//! [`MmapDataset::open`] maps the file, then parses the one mapped
//! slice: it verifies the trailing FNV-1a checksum and structurally
//! validates the whole file (index-pointer monotonicity, per-example
//! strictly increasing feature indices, in-range labels), so the
//! per-example decode path can run without per-read validation.
//! [`ExampleSource::read_into`] therefore panics only if the file is
//! mutated *after* open — the same contract as slice indexing.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("slide-data binds mmap(2) directly and supports only 64-bit Linux");

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::cache::{fnv1a, CacheError, CacheLayout, CACHE_MAGIC, CACHE_VERSION, HEADER_BYTES};
use crate::dataset::{Dataset, Example};

/// A random-access stream of training examples: the single interface
/// the batch-parallel trainer, the bench binaries and the examples
/// consume in-memory, streamed-from-disk and memory-mapped corpora
/// through.
///
/// Implementations must be cheap to read from concurrently
/// (`Sync` is a supertrait): the trainer calls
/// [`read_into`](ExampleSource::read_into) from every worker thread.
pub trait ExampleSource: Sync {
    /// Number of examples.
    fn len(&self) -> usize;

    /// Whether the source holds no examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimension every example's indices fall below.
    fn feature_dim(&self) -> usize;

    /// Label dimension (number of classes).
    fn label_dim(&self) -> usize;

    /// Decodes example `index` into `out`, reusing its allocations.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` — and, for disk-backed sources,
    /// if the underlying file was corrupted after open or a read fails
    /// (see the implementor's docs).
    fn read_into(&self, index: usize, out: &mut Example);

    /// The examples as a contiguous slice, if the source is resident in
    /// memory — the trainer's zero-copy fast path. Disk-backed sources
    /// return `None`.
    fn as_examples(&self) -> Option<&[Example]> {
        None
    }

    /// Locality hint for epoch shuffling: examples this many indices
    /// apart are cheap to access together. `None` means uniform access
    /// cost (shuffle globally); disk-backed sources return a window
    /// sized so one shard's pages fit comfortably in cache, and the
    /// trainer then shuffles *shards* and shuffles *within* shards —
    /// still a full permutation, but one whose working set is bounded.
    fn shard_len(&self) -> Option<usize> {
        None
    }
}

impl ExampleSource for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn feature_dim(&self) -> usize {
        Dataset::feature_dim(self)
    }

    fn label_dim(&self) -> usize {
        Dataset::label_dim(self)
    }

    fn read_into(&self, index: usize, out: &mut Example) {
        out.copy_from(&self.examples()[index]);
    }

    fn as_examples(&self) -> Option<&[Example]> {
        Some(self.examples())
    }
}

// ---------------------------------------------------------------------
// mmap via a direct extern "C" binding (no libc crate in the build
// environment).

mod mm {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    #[derive(Debug)]
    pub struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region exclusively owns its mapping and the pages are
    // PROT_READ, so moving it to another thread moves plain immutable
    // bytes.
    unsafe impl Send for MmapRegion {}
    // SAFETY: the mapping is read-only for its whole lifetime; sharing
    // &MmapRegion across threads is sharing &[u8].
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        pub fn map(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                // mmap(len = 0) is EINVAL; an empty region needs no map.
                return Ok(Self {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            // SAFETY: anonymous-address read-only private file mapping;
            // the fd stays valid for the duration of the call and the
            // mapping outlives it by design.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the region is mapped for self.len bytes and stays
            // mapped until drop. A concurrent truncation of the
            // underlying file could SIGBUS — documented at the
            // MmapDataset level as post-open mutation being UB-adjacent.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: ptr/len came from a successful mmap.
                unsafe {
                    munmap(self.ptr as *mut c_void, self.len);
                }
            }
        }
    }
}

/// Options for [`MmapDataset::open_with`]. Open always verifies the
/// checksum and validates every example (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOptions {
    /// Override the [`ExampleSource::shard_len`] locality hint.
    pub shard_len: Option<usize>,
}

/// Shards default to roughly this many payload bytes so a shard's pages
/// stay resident while the trainer sweeps it.
const TARGET_SHARD_BYTES: u64 = 8 << 20;

/// A memory-mapped dataset cache opened for random access, implementing
/// [`ExampleSource`] for the batch-parallel trainer.
///
/// See the [module docs](self) for the integrity model and
/// [`crate::cache`] for the byte format.
///
/// # Example
///
/// ```
/// use slide_data::cache::build_cache_from_reader;
/// use slide_data::source::{ExampleSource, MmapDataset};
/// use slide_data::stream::StreamingSvmReader;
///
/// let dir = std::env::temp_dir().join("slide-source-doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("doc.slidecache");
///
/// let text = "2 5 3\n0,2 1:0.5 3:1.0\n1 0:2.0\n";
/// build_cache_from_reader(StreamingSvmReader::new(text.as_bytes())?, &path)?;
///
/// let ds = MmapDataset::open(&path)?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.feature_dim(), 5);
/// let ex = ds.read(0);
/// assert_eq!(ex.labels, vec![0, 2]);
/// assert_eq!(ex.features.get(3), 1.0);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MmapDataset {
    path: PathBuf,
    layout: CacheLayout,
    feat_indptr: Vec<u64>,
    label_indptr: Vec<u64>,
    region: mm::MmapRegion,
    shard_len: usize,
}

impl MmapDataset {
    /// Opens a cache with default options (full verification).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on I/O failure, bad magic, an unsupported
    /// version, any structural inconsistency, or a checksum mismatch.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, CacheError> {
        Self::open_with(path, CacheOptions::default())
    }

    /// Opens a cache with explicit [`CacheOptions`]: maps the whole
    /// file, then validates the mapped bytes.
    ///
    /// # Errors
    ///
    /// See [`MmapDataset::open`].
    pub fn open_with<P: AsRef<Path>>(path: P, options: CacheOptions) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let region = mm::MmapRegion::map(&file, file.metadata()?.len() as usize)?;
        let (layout, feat_indptr, label_indptr) = parse(region.bytes())?;
        let shard_len = options.shard_len.unwrap_or_else(|| {
            let payload = layout.file_len.saturating_sub(layout.indices_off).max(1);
            let avg = (payload / layout.num_examples.max(1)).max(1);
            (TARGET_SHARD_BYTES / avg).clamp(256, layout.num_examples.max(256)) as usize
        });
        Ok(Self {
            path,
            layout,
            feat_indptr,
            label_indptr,
            region,
            shard_len,
        })
    }

    /// The cache file this dataset reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cache file size, bytes.
    pub fn file_len(&self) -> u64 {
        self.layout.file_len
    }

    /// Total feature nonzeros across the corpus.
    pub fn total_nnz(&self) -> u64 {
        self.layout.total_nnz
    }

    /// Decodes example `index` into a fresh [`Example`] (allocating
    /// convenience form of [`ExampleSource::read_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn read(&self, index: usize) -> Example {
        let mut out = Example::empty();
        ExampleSource::read_into(self, index, &mut out);
        out
    }

    /// Materializes the whole cache as an in-memory [`Dataset`] —
    /// useful for tests and small corpora; defeats the purpose at
    /// scale.
    pub fn to_dataset(&self) -> Dataset {
        let mut ds = Dataset::new(
            self.layout.feature_dim as usize,
            self.layout.label_dim as usize,
        );
        for i in 0..self.layout.num_examples as usize {
            ds.push(self.read(i));
        }
        ds
    }
}

impl ExampleSource for MmapDataset {
    fn len(&self) -> usize {
        self.layout.num_examples as usize
    }

    fn feature_dim(&self) -> usize {
        self.layout.feature_dim as usize
    }

    fn label_dim(&self) -> usize {
        self.layout.label_dim as usize
    }

    fn read_into(&self, index: usize, out: &mut Example) {
        assert!(
            index < self.len(),
            "example index {index} out of range ({} examples)",
            self.len()
        );
        let (s, e) = (
            self.feat_indptr[index] as usize,
            self.feat_indptr[index + 1] as usize,
        );
        let (ls, le) = (
            self.label_indptr[index] as usize,
            self.label_indptr[index + 1] as usize,
        );
        let bytes = self.region.bytes();
        let at = |off: u64, a: usize, b: usize| &bytes[off as usize + 4 * a..off as usize + 4 * b];
        let pairs = u32s(at(self.layout.indices_off, s, e))
            .zip(u32s(at(self.layout.values_off, s, e)).map(f32::from_bits));
        out.features
            .refill_from_sorted_iter(pairs)
            .expect("cache validated at open; file mutated afterwards?");
        out.labels.clear();
        out.labels.extend(u32s(at(self.layout.labels_off, ls, le)));
    }

    fn shard_len(&self) -> Option<usize> {
        Some(self.shard_len)
    }
}

// ---------------------------------------------------------------------
// Open-time verification: one parse of the mapped bytes.

/// The little-endian `u32`s of `bytes`.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The little-endian `u64`s of `bytes`.
fn u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Validates a whole cache file and returns its layout and the two
/// index-pointer arrays (kept in RAM: 16 bytes/example).
fn parse(bytes: &[u8]) -> Result<(CacheLayout, Vec<u64>, Vec<u64>), CacheError> {
    if bytes.len() < HEADER_BYTES as usize + 8 {
        return Err(CacheError::Corrupt("file shorter than header"));
    }
    if &bytes[..8] != CACHE_MAGIC {
        return Err(CacheError::BadMagic);
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != CACHE_VERSION {
        return Err(CacheError::UnsupportedVersion(version));
    }
    // Header counts are untrusted: offsets are derived with checked
    // arithmetic so a crafted header is a typed error, not overflow.
    let layout =
        CacheLayout::try_from_counts(u64_at(16), u64_at(24), u64_at(32), u64_at(40), u64_at(48))
            .ok_or(CacheError::Corrupt("header counts overflow"))?;
    if layout.file_len != bytes.len() as u64 {
        return Err(CacheError::Corrupt("file length disagrees with header"));
    }
    let n = bytes.len();
    if fnv1a(&bytes[..n - 8]) != u64_at(n - 8) {
        return Err(CacheError::ChecksumMismatch);
    }
    // Every offset is now inside `bytes`: the layout sums to its length.
    let section = |from: u64, to: u64| &bytes[from as usize..to as usize];
    let feat_indptr: Vec<u64> =
        u64s(section(layout.feat_indptr_off, layout.label_indptr_off)).collect();
    let label_indptr: Vec<u64> =
        u64s(section(layout.label_indptr_off, layout.indices_off)).collect();
    validate_indptr(&feat_indptr, layout.total_nnz, "feature")?;
    validate_indptr(&label_indptr, layout.total_labels, "label")?;
    scan_u32_rows(
        section(layout.indices_off, layout.values_off),
        &feat_indptr,
        layout.feature_dim,
        "feature indices not strictly increasing or out of range",
    )?;
    scan_u32_rows(
        section(layout.labels_off, layout.checksum_off),
        &label_indptr,
        layout.label_dim,
        "labels not sorted/unique or out of range",
    )?;
    Ok((layout, feat_indptr, label_indptr))
}

fn validate_indptr(indptr: &[u64], total: u64, what: &'static str) -> Result<(), CacheError> {
    if indptr.first() != Some(&0) {
        return Err(match what {
            "feature" => CacheError::Corrupt("feature indptr must start at 0"),
            _ => CacheError::Corrupt("label indptr must start at 0"),
        });
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(match what {
            "feature" => CacheError::Corrupt("feature indptr not monotone"),
            _ => CacheError::Corrupt("label indptr not monotone"),
        });
    }
    if indptr.last() != Some(&total) {
        return Err(match what {
            "feature" => CacheError::Corrupt("feature indptr does not end at total_nnz"),
            _ => CacheError::Corrupt("label indptr does not end at total_labels"),
        });
    }
    Ok(())
}

/// Checks each row of `section` (rows delimited by `indptr`, which
/// starts at 0, is monotone and ends at the section's `u32` count) is
/// strictly increasing and `< dim` — the shared requirement of both the
/// feature-index and label sections (sorted unique labels are exactly a
/// strictly increasing row).
fn scan_u32_rows(
    section: &[u8],
    indptr: &[u64],
    dim: u64,
    message: &'static str,
) -> Result<(), CacheError> {
    let mut values = u32s(section);
    for w in indptr.windows(2) {
        let mut last: Option<u32> = None;
        for v in values.by_ref().take((w[1] - w[0]) as usize) {
            if v as u64 >= dim || last.is_some_and(|l| l >= v) {
                return Err(CacheError::Corrupt(message));
            }
            last = Some(v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DatasetBuilder;
    use crate::sparse::SparseVector;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("slide-source-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Recomputes the trailing checksum over tampered bytes.
    fn refix(bytes: &mut [u8]) {
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
    }

    fn build_sample(path: &Path) -> Vec<Example> {
        let examples = vec![
            Example::new(SparseVector::from_pairs([(2, 1.5), (7, -0.25)]), vec![1]),
            Example::new(SparseVector::new(), vec![]),
            Example::new(SparseVector::from_pairs([(0, 3.0)]), vec![0, 3]),
        ];
        let mut b = DatasetBuilder::create(path, 10, 4).unwrap();
        for e in &examples {
            b.push(e).unwrap();
        }
        b.finish().unwrap();
        examples
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let path = tmp("roundtrip.slidecache");
        let examples = build_sample(&path);
        let ds = MmapDataset::open(&path).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.feature_dim(), 10);
        assert_eq!(ds.label_dim(), 4);
        let mut out = Example::empty();
        for (i, want) in examples.iter().enumerate() {
            ds.read_into(i, &mut out);
            assert_eq!(&out, want, "example {i}");
            // Bit-level equality of values.
            let got: Vec<u32> = out.features.values().iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want.features.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dataset_implements_source_with_slice_fast_path() {
        let mut ds = Dataset::new(10, 4);
        ds.push(Example::new(SparseVector::from_pairs([(1, 1.0)]), vec![2]));
        let src: &dyn ExampleSource = &ds;
        assert_eq!(src.len(), 1);
        assert!(src.as_examples().is_some());
        assert_eq!(src.shard_len(), None);
        let mut out = Example::empty();
        src.read_into(0, &mut out);
        assert_eq!(&out, &ds.examples()[0]);
    }

    #[test]
    fn corruption_is_detected_at_open() {
        let path = tmp("corrupt.slidecache");
        build_sample(&path);
        let good = std::fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        let mid = bad.len() - 16;
        bad[mid] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MmapDataset::open(&path),
            Err(CacheError::ChecksumMismatch)
        ));

        // Truncate: length disagrees with header.
        std::fs::write(&path, &good[..good.len() - 9]).unwrap();
        assert!(matches!(
            MmapDataset::open(&path),
            Err(CacheError::Corrupt(_))
        ));

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MmapDataset::open(&path),
            Err(CacheError::BadMagic)
        ));

        // Future version (checksum fixed up so only the version trips).
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        refix(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MmapDataset::open(&path),
            Err(CacheError::UnsupportedVersion(99))
        ));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflowing_header_counts_are_a_typed_error() {
        // A crafted header whose counts overflow the offset arithmetic
        // must be Corrupt, not a wrap (or a debug-build panic).
        let path = tmp("overflow.slidecache");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(crate::cache::CACHE_MAGIC);
        bytes.extend_from_slice(&crate::cache::CACHE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for v in [1u64, 10, 4, u64::MAX / 4, 1] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 16]); // padding past the min-length gate
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapDataset::open(&path).unwrap_err();
        assert!(
            matches!(err, CacheError::Corrupt("header counts overflow")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crafted_payload_caught_by_structural_validation() {
        // Valid checksum, invalid content: an out-of-range feature
        // index with the checksum recomputed over the tampered bytes.
        let path = tmp("crafted.slidecache");
        build_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let layout = CacheLayout::from_counts(3, 10, 4, 3, 3);
        let off = layout.indices_off as usize;
        bytes[off..off + 4].copy_from_slice(&1000u32.to_le_bytes());
        refix(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapDataset::open(&path).unwrap_err();
        assert!(matches!(err, CacheError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_len_hint_present_and_overridable() {
        let path = tmp("shard.slidecache");
        build_sample(&path);
        let ds = MmapDataset::open(&path).unwrap();
        assert!(ds.shard_len().is_some());
        let ds = MmapDataset::open_with(&path, CacheOptions { shard_len: Some(2) }).unwrap();
        assert_eq!(ds.shard_len(), Some(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn to_dataset_matches_reads() {
        let path = tmp("todataset.slidecache");
        let examples = build_sample(&path);
        let ds = MmapDataset::open(&path).unwrap();
        let eager = ds.to_dataset();
        assert_eq!(eager.examples(), &examples[..]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every truncation, every inverted byte (checksum recomputed, so the
    /// structural checks are what run) and extreme values in the version
    /// field and each header count: `open` returns a typed error, or it
    /// succeeds and then every example decodes without a panic — the
    /// "validated at open, decoded unvalidated" contract.
    #[test]
    fn adversarial_caches_never_panic() {
        let path = tmp("adversarial.slidecache");
        build_sample(&path);
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        let mut inputs: Vec<Vec<u8>> = (0..n).map(|cut| good[..cut].to_vec()).collect();
        for at in 0..n - 8 {
            let mut b = good.clone();
            b[at] ^= 0xFF;
            refix(&mut b);
            inputs.push(b);
        }
        let fields = [(8, 4), (16, 8), (24, 8), (32, 8), (40, 8), (48, 8)];
        for (at, width) in fields {
            for v in [0, 1, u32::MAX as u64, (1 << 62) + 1, u64::MAX] {
                let mut b = good.clone();
                b[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                refix(&mut b);
                inputs.push(b);
            }
        }
        let (mut opened, mut panicked) = (0, 0);
        for bytes in &inputs {
            std::fs::write(&path, bytes).unwrap();
            let outcome = std::panic::catch_unwind(|| {
                let Ok(ds) = MmapDataset::open(&path) else {
                    return false;
                };
                let mut out = Example::empty();
                for i in 0..ds.len() {
                    ds.read_into(i, &mut out);
                }
                true
            });
            match outcome {
                Ok(ok) => opened += ok as usize,
                Err(_) => panicked += 1,
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(inputs.len() > 300, "{} inputs", inputs.len());
        assert!(
            opened > 0,
            "no input opened: the sweep never reached decode"
        );
        assert_eq!(
            panicked,
            0,
            "{panicked} of {} inputs panicked",
            inputs.len()
        );
    }
}
