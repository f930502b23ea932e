//! [`ExampleSource`] — the one interface the trainer, the benches and
//! the examples consume datasets through — and [`MmapDataset`], the
//! memory-mapped implementation over a compiled [`crate::cache`] file.
//!
//! Three source flavors share the trait:
//!
//! * an in-memory [`Dataset`] (the zero-copy fast path:
//!   [`ExampleSource::as_examples`] exposes the slice directly);
//! * a [`MmapDataset`] backed by `mmap(2)` — the kernel pages example
//!   bytes in on demand, so corpora far larger than RAM train with the
//!   page cache as the only buffer;
//! * the same [`MmapDataset`] backed by positioned reads
//!   ([`CacheAccess::ReadAt`]) when mmap is unavailable or undesired
//!   (32-bit targets, non-unix platforms, or files on filesystems where
//!   mapping misbehaves).
//!
//! `mmap` is reached through a direct `extern "C"` binding (the build
//! environment has no `libc` crate); on targets without the binding the
//! [`CacheAccess::Auto`] mode silently degrades to positioned reads.
//!
//! ## Integrity and panics
//!
//! [`MmapDataset::open`] verifies the trailing FNV-1a checksum and
//! structurally validates the whole file (index-pointer monotonicity,
//! per-example strictly increasing feature indices, in-range labels) in
//! two sequential scans, so the per-example decode path can run without
//! per-read validation. [`ExampleSource::read_into`] therefore panics
//! only if the file is mutated *after* open (or an I/O error hits the
//! read-at fallback) — the same contract as slice indexing.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::cache::{CacheError, CacheLayout, Fnv1a, CACHE_MAGIC, CACHE_VERSION, HEADER_BYTES};
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
// environment). 64-bit unix only; everything else falls back to pread.

#[cfg(all(unix, target_pointer_width = "64"))]
mod mm {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // Stable across Linux and the BSD/macOS family for these two flags.
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

    pub const AVAILABLE: bool = true;
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod mm {
    use std::fs::File;
    use std::io;

    /// Stub for targets without the mmap binding; never constructed.
    #[derive(Debug)]
    pub struct MmapRegion;

    impl MmapRegion {
        pub fn map(_file: &File, _len: usize) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap is not available on this target",
            ))
        }

        pub fn bytes(&self) -> &[u8] {
            &[]
        }
    }

    pub const AVAILABLE: bool = false;
}

/// Whether this build can memory-map caches at all (64-bit unix).
pub fn mmap_available() -> bool {
    mm::AVAILABLE
}

/// Positioned-read file handle: lock-free `pread` on unix; elsewhere a
/// **per-file** mutex around seek+read (the shared cursor must be
/// serialized, but two open caches never contend with each other).
#[derive(Debug)]
struct PFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl PFile {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read as _, Seek as _};
            let mut f = self.file.lock().expect("poisoned");
            f.seek(std::io::SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

// ---------------------------------------------------------------------

/// How [`MmapDataset::open_with`] should reach the cache bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheAccess {
    /// Memory-map when the target supports it, otherwise positioned
    /// reads. The default.
    #[default]
    Auto,
    /// Memory-map, failing if unavailable.
    Mmap,
    /// Positioned reads (`pread`), never mapping.
    ReadAt,
}

/// Options for [`MmapDataset::open_with`]. Open always verifies the
/// checksum and validates every example (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOptions {
    /// Access mode (default [`CacheAccess::Auto`]).
    pub access: CacheAccess,
    /// Override the [`ExampleSource::shard_len`] locality hint.
    pub shard_len: Option<usize>,
}

#[derive(Debug)]
enum Backing {
    Mmap(mm::MmapRegion),
    ReadAt(PFile),
}

/// Shards default to roughly this many payload bytes so a shard's pages
/// stay resident while the trainer sweeps it.
const TARGET_SHARD_BYTES: u64 = 8 << 20;

/// A dataset cache opened for random access — memory-mapped where
/// possible, positioned reads otherwise — implementing
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
    backing: Backing,
    shard_len: usize,
}

impl MmapDataset {
    /// Opens a cache with default options (auto access, full
    /// verification).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on I/O failure, bad magic, an unsupported
    /// version, any structural inconsistency, or a checksum mismatch.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, CacheError> {
        Self::open_with(path, CacheOptions::default())
    }

    /// Opens a cache with explicit [`CacheOptions`].
    ///
    /// # Errors
    ///
    /// See [`MmapDataset::open`]; additionally fails with
    /// [`CacheError::Io`] if [`CacheAccess::Mmap`] was demanded on a
    /// target without mmap.
    pub fn open_with<P: AsRef<Path>>(path: P, options: CacheOptions) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();

        // Header.
        let mut header = [0u8; HEADER_BYTES as usize];
        if file_len < HEADER_BYTES + 8 {
            return Err(CacheError::Corrupt("file shorter than header"));
        }
        {
            let mut head_reader = BufReader::new(&file);
            head_reader.read_exact(&mut header)?;
        }
        if &header[..8] != CACHE_MAGIC {
            return Err(CacheError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != CACHE_VERSION {
            return Err(CacheError::UnsupportedVersion(version));
        }
        // Header counts are untrusted: offsets are derived with checked
        // arithmetic so a crafted header is a typed error, not overflow.
        let layout = CacheLayout::try_from_counts(
            u64_at(16),
            u64_at(24),
            u64_at(32),
            u64_at(40),
            u64_at(48),
        )
        .ok_or(CacheError::Corrupt("header counts overflow"))?;
        if layout.num_examples > usize::MAX as u64 / 16 {
            return Err(CacheError::Corrupt("example count implausibly large"));
        }
        // The decode path does usize arithmetic on offsets (slice
        // ranges, pread lengths); a cache addressable only with 64 bits
        // must be rejected on 32-bit targets, not silently truncated.
        if u128::from(layout.file_len) > usize::MAX as u128 {
            return Err(CacheError::Corrupt("cache too large for this target"));
        }
        if layout.file_len != file_len {
            return Err(CacheError::Corrupt("file length disagrees with header"));
        }

        verify_checksum(&file, file_len)?;

        // Index pointers (kept in RAM: 16 bytes/example).
        let n = layout.num_examples as usize;
        let mut reader = BufReader::new(&file);
        reader.seek(SeekFrom::Start(layout.feat_indptr_off))?;
        let feat_indptr = read_u64s(&mut reader, n + 1)?;
        let label_indptr = read_u64s(&mut reader, n + 1)?;
        validate_indptr(&feat_indptr, layout.total_nnz, "feature")?;
        validate_indptr(&label_indptr, layout.total_labels, "label")?;

        validate_payload(&file, &layout, &feat_indptr, &label_indptr)?;

        let backing = match options.access {
            CacheAccess::ReadAt => Backing::ReadAt(PFile::new(file)),
            CacheAccess::Mmap => Backing::Mmap(
                mm::MmapRegion::map(&file, file_len as usize).map_err(CacheError::Io)?,
            ),
            CacheAccess::Auto => match mm::MmapRegion::map(&file, file_len as usize) {
                Ok(region) => Backing::Mmap(region),
                Err(_) => Backing::ReadAt(PFile::new(file)),
            },
        };

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
            backing,
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

    /// `"mmap"` or `"read-at"` — which backing `open` settled on.
    pub fn access_mode(&self) -> &'static str {
        match self.backing {
            Backing::Mmap(_) => "mmap",
            Backing::ReadAt(_) => "read-at",
        }
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

    /// The byte ranges of example `index`'s feature indices, feature
    /// values and labels in the cache file.
    fn ranges(&self, index: usize) -> [Range<usize>; 3] {
        let (s, e) = (
            self.feat_indptr[index] as usize,
            self.feat_indptr[index + 1] as usize,
        );
        let (ls, le) = (
            self.label_indptr[index] as usize,
            self.label_indptr[index + 1] as usize,
        );
        let at = |off: u64, a: usize, b: usize| off as usize + 4 * a..off as usize + 4 * b;
        [
            at(self.layout.indices_off, s, e),
            at(self.layout.values_off, s, e),
            at(self.layout.labels_off, ls, le),
        ]
    }
}

/// Decodes one example from its feature-index, feature-value and label
/// bytes — the one decode body behind both backings.
fn decode(indices: &[u8], values: &[u8], labels: &[u8], out: &mut Example) {
    let u32_at = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let pairs = indices
        .chunks_exact(4)
        .zip(values.chunks_exact(4))
        .map(|(i, v)| (u32_at(i), f32::from_bits(u32_at(v))));
    out.features
        .refill_from_sorted_iter(pairs)
        .expect("cache validated at open; file mutated afterwards?");
    out.labels.clear();
    out.labels.extend(labels.chunks_exact(4).map(u32_at));
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
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<[Vec<u8>; 3]> =
                const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
        }
        assert!(
            index < self.len(),
            "example index {index} out of range ({} examples)",
            self.len()
        );
        let [indices, values, labels] = self.ranges(index);
        match &self.backing {
            Backing::Mmap(region) => {
                let bytes = region.bytes();
                decode(&bytes[indices], &bytes[values], &bytes[labels], out);
            }
            Backing::ReadAt(file) => SCRATCH.with(|cell| {
                let bufs = &mut *cell.borrow_mut();
                for (buf, range) in bufs.iter_mut().zip([indices, values, labels]) {
                    buf.resize(range.len(), 0);
                    file.read_exact_at(buf, range.start as u64)
                        .expect("dataset cache read failed");
                }
                decode(&bufs[0], &bufs[1], &bufs[2], out);
            }),
        }
    }

    fn shard_len(&self) -> Option<usize> {
        Some(self.shard_len)
    }
}

// ---------------------------------------------------------------------
// Open-time verification.

fn verify_checksum(file: &File, file_len: u64) -> Result<(), CacheError> {
    let mut reader = BufReader::with_capacity(1 << 20, file);
    reader.seek(SeekFrom::Start(0))?;
    let mut hash = Fnv1a::new();
    let mut remaining = file_len - 8;
    let mut buf = vec![0u8; 1 << 20];
    while remaining > 0 {
        let take = remaining.min(buf.len() as u64) as usize;
        reader.read_exact(&mut buf[..take])?;
        hash.update(&buf[..take]);
        remaining -= take as u64;
    }
    let mut stored = [0u8; 8];
    reader.read_exact(&mut stored)?;
    if hash.finish() != u64::from_le_bytes(stored) {
        return Err(CacheError::ChecksumMismatch);
    }
    Ok(())
}

fn read_u64s<R: Read>(reader: &mut R, count: usize) -> Result<Vec<u64>, CacheError> {
    let mut out = Vec::with_capacity(count);
    let mut buf = [0u8; 8];
    for _ in 0..count {
        reader.read_exact(&mut buf)?;
        out.push(u64::from_le_bytes(buf));
    }
    Ok(out)
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

/// Streams the indices and labels sections once, checking each example's
/// feature indices are strictly increasing and `< feature_dim` and its
/// labels sorted, unique and `< label_dim`.
fn validate_payload(
    file: &File,
    layout: &CacheLayout,
    feat_indptr: &[u64],
    label_indptr: &[u64],
) -> Result<(), CacheError> {
    let mut reader = BufReader::with_capacity(1 << 20, file);

    reader.seek(SeekFrom::Start(layout.indices_off))?;
    scan_u32_rows(
        &mut reader,
        feat_indptr,
        layout.feature_dim,
        "feature indices not strictly increasing or out of range",
    )?;

    reader.seek(SeekFrom::Start(layout.labels_off))?;
    scan_u32_rows(
        &mut reader,
        label_indptr,
        layout.label_dim,
        "labels not sorted/unique or out of range",
    )?;
    Ok(())
}

/// Checks each row's values are strictly increasing and `< dim` — the
/// shared requirement of both the feature-index and label sections
/// (sorted unique labels are exactly a strictly increasing row).
fn scan_u32_rows<R: Read>(
    reader: &mut R,
    indptr: &[u64],
    dim: u64,
    message: &'static str,
) -> Result<(), CacheError> {
    let mut buf = [0u8; 4];
    for w in indptr.windows(2) {
        let mut last: Option<u32> = None;
        for _ in w[0]..w[1] {
            reader.read_exact(&mut buf)?;
            let v = u32::from_le_bytes(buf);
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
    fn roundtrip_both_backings_bit_identical() {
        let path = tmp("roundtrip.slidecache");
        let examples = build_sample(&path);
        for access in [CacheAccess::Auto, CacheAccess::ReadAt] {
            let ds = MmapDataset::open_with(
                &path,
                CacheOptions {
                    access,
                    ..CacheOptions::default()
                },
            )
            .unwrap();
            assert_eq!(ds.len(), 3);
            assert_eq!(ds.feature_dim(), 10);
            assert_eq!(ds.label_dim(), 4);
            let mut out = Example::empty();
            for (i, want) in examples.iter().enumerate() {
                ds.read_into(i, &mut out);
                assert_eq!(&out, want, "example {i} via {}", ds.access_mode());
                // Bit-level equality of values.
                let got: Vec<u32> = out.features.values().iter().map(|v| v.to_bits()).collect();
                let exp: Vec<u32> = want.features.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, exp);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn auto_prefers_mmap_on_supported_targets() {
        let path = tmp("auto.slidecache");
        build_sample(&path);
        let ds = MmapDataset::open(&path).unwrap();
        if mmap_available() {
            assert_eq!(ds.access_mode(), "mmap");
        } else {
            assert_eq!(ds.access_mode(), "read-at");
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
        let n = bad.len();
        let mut h = Fnv1a::new();
        h.update(&bad[..n - 8]);
        let check = h.finish().to_le_bytes();
        bad[n - 8..].copy_from_slice(&check);
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
        let n = bytes.len();
        let mut h = Fnv1a::new();
        h.update(&bytes[..n - 8]);
        let check = h.finish().to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
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
        let ds = MmapDataset::open_with(
            &path,
            CacheOptions {
                shard_len: Some(2),
                ..CacheOptions::default()
            },
        )
        .unwrap();
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
}
