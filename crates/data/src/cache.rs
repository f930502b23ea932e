//! The compiled dataset cache: a versioned, checksummed binary format
//! that [`MmapDataset`](crate::source::MmapDataset) can memory-map.
//!
//! Text svmlight is the interchange format; it is a poor *training*
//! format — parsing floats per epoch, unpredictable record lengths, no
//! random access. [`DatasetBuilder`] compiles any example stream into a
//! flat CSR-style layout in **one pass** and **constant memory** (only
//! the two index-pointer arrays, 16 bytes per example, are buffered in
//! RAM; the variable-length payload streams through temporary section
//! files), so corpora far larger than RAM compile without ever being
//! materialized.
//!
//! ## Format (version 1, little-endian)
//!
//! ```text
//! magic         b"SLIDCACH"                                8 bytes
//! version       u32 = 1
//! reserved      u32 = 0
//! num_examples  u64
//! feature_dim   u64
//! label_dim     u64
//! total_nnz     u64
//! total_labels  u64
//! feat_indptr   u64 × (num_examples + 1)   CSR row pointers, features
//! label_indptr  u64 × (num_examples + 1)   CSR row pointers, labels
//! indices       u32 × total_nnz            strictly increasing per row
//! values        u32 × total_nnz            f32 bit patterns
//! labels        u32 × total_labels         sorted unique per row
//! checksum      u64 FNV-1a over everything above
//! ```
//!
//! Example `i`'s features are `indices/values[feat_indptr[i] ..
//! feat_indptr[i+1]]` and its labels `labels[label_indptr[i] ..
//! label_indptr[i+1]]`. Every section offset is derivable from the five
//! header counts, floats are stored as raw bit patterns (a decode is
//! bit-identical to the parsed text — pinned by `tests/ingestion.rs`),
//! and the trailing checksum is the same FNV-1a the network snapshot
//! format uses, so torn writes and bit rot are detected at open time.
//!
//! ## Example
//!
//! ```
//! use slide_data::cache::DatasetBuilder;
//! use slide_data::source::{ExampleSource, MmapDataset};
//! use slide_data::{Dataset, Example, SparseVector};
//!
//! let dir = std::env::temp_dir().join("slide-cache-doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("tiny.slidecache");
//!
//! let mut builder = DatasetBuilder::create(&path, 10, 4)?;
//! builder.push(&Example::new(SparseVector::from_pairs([(2, 1.5)]), vec![1]))?;
//! builder.push(&Example::new(SparseVector::from_pairs([(0, -1.0), (9, 2.0)]), vec![0, 3]))?;
//! let summary = builder.finish()?;
//! assert_eq!(summary.examples, 2);
//!
//! let ds = MmapDataset::open(&path)?;
//! assert_eq!(ds.len(), 2);
//! let mut ex = Example::empty();
//! ds.read_into(1, &mut ex);
//! assert_eq!(ex.features.get(9), 2.0);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::dataset::Example;
use crate::stream::StreamingSvmReader;
use crate::svmlight::SvmlightError;

/// First 8 bytes of every dataset cache file.
pub const CACHE_MAGIC: &[u8; 8] = b"SLIDCACH";
/// Newest cache format version this build reads and writes.
pub const CACHE_VERSION: u32 = 1;

pub(crate) const HEADER_BYTES: u64 = 56;

/// Error building or opening a dataset cache.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem failure reading or writing cache bytes.
    Io(std::io::Error),
    /// The file does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream is truncated or internally inconsistent.
    Corrupt(&'static str),
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch,
    /// The svmlight source being compiled was malformed.
    Svmlight(SvmlightError),
    /// An example pushed into [`DatasetBuilder`] violates the declared
    /// dimensions.
    InvalidExample {
        /// Zero-based index of the offending example.
        index: u64,
        /// What was out of range.
        message: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io: {e}"),
            CacheError::BadMagic => write!(f, "not a SLIDE dataset cache (bad magic)"),
            CacheError::UnsupportedVersion(v) => {
                write!(f, "unsupported cache version {v} (max {CACHE_VERSION})")
            }
            CacheError::Corrupt(what) => write!(f, "corrupt dataset cache: {what}"),
            CacheError::ChecksumMismatch => write!(f, "dataset cache checksum mismatch"),
            CacheError::Svmlight(e) => write!(f, "svmlight source: {e}"),
            CacheError::InvalidExample { index, message } => {
                write!(f, "invalid example {index}: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Svmlight(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<SvmlightError> for CacheError {
    fn from(e: SvmlightError) -> Self {
        CacheError::Svmlight(e)
    }
}

// ---------------------------------------------------------------------
// FNV-1a — the checksum both this format and the network snapshot
// format trail with.

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        self.0 = h;
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A writer that FNV-hashes every byte it forwards.
struct HashingWriter<W> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------
// Layout arithmetic shared by the builder and the open path.

/// Absolute byte offsets of every section, derived from the header
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheLayout {
    pub num_examples: u64,
    pub feature_dim: u64,
    pub label_dim: u64,
    pub total_nnz: u64,
    pub total_labels: u64,
    pub feat_indptr_off: u64,
    pub label_indptr_off: u64,
    pub indices_off: u64,
    pub values_off: u64,
    pub labels_off: u64,
    pub checksum_off: u64,
    pub file_len: u64,
}

impl CacheLayout {
    /// Derives all section offsets from the five header counts with
    /// checked arithmetic — the counts may come from an untrusted file
    /// header, so overflow is a typed `None` (→ corrupt), never a wrap
    /// or a debug-build panic.
    pub(crate) fn try_from_counts(
        num_examples: u64,
        feature_dim: u64,
        label_dim: u64,
        total_nnz: u64,
        total_labels: u64,
    ) -> Option<Self> {
        let indptr_bytes = num_examples.checked_add(1)?.checked_mul(8)?;
        let feat_indptr_off = HEADER_BYTES;
        let label_indptr_off = feat_indptr_off.checked_add(indptr_bytes)?;
        let indices_off = label_indptr_off.checked_add(indptr_bytes)?;
        let values_off = indices_off.checked_add(total_nnz.checked_mul(4)?)?;
        let labels_off = values_off.checked_add(total_nnz.checked_mul(4)?)?;
        let checksum_off = labels_off.checked_add(total_labels.checked_mul(4)?)?;
        Some(Self {
            num_examples,
            feature_dim,
            label_dim,
            total_nnz,
            total_labels,
            feat_indptr_off,
            label_indptr_off,
            indices_off,
            values_off,
            labels_off,
            checksum_off,
            file_len: checksum_off.checked_add(8)?,
        })
    }

    /// Infallible form for trusted counts (the builder's own tallies,
    /// bounded by bytes it actually wrote).
    pub(crate) fn from_counts(
        num_examples: u64,
        feature_dim: u64,
        label_dim: u64,
        total_nnz: u64,
        total_labels: u64,
    ) -> Self {
        Self::try_from_counts(
            num_examples,
            feature_dim,
            label_dim,
            total_nnz,
            total_labels,
        )
        .expect("builder counts are bounded by written bytes")
    }
}

// ---------------------------------------------------------------------
// Builder.

/// What [`DatasetBuilder::finish`] compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSummary {
    /// Examples written.
    pub examples: u64,
    /// Total feature nonzeros across all examples.
    pub total_nnz: u64,
    /// Total labels across all examples.
    pub total_labels: u64,
    /// Final cache file size, bytes.
    pub bytes: u64,
    /// Where the cache was written.
    pub path: PathBuf,
}

/// One-pass compiler from an example stream to a cache file.
///
/// Push examples in corpus order, then [`finish`](DatasetBuilder::finish).
/// The variable-length payload (indices, values, labels) streams through
/// three sibling temporary files while only the 16-bytes-per-example
/// index pointers stay in RAM; `finish` stitches header + pointers +
/// sections into `<path>.tmp` under a running FNV-1a, appends the
/// checksum, and atomically renames onto `path` — a crashed build never
/// leaves a plausible-looking cache behind.
///
/// See the [module docs](self) for the byte format and an example;
/// [`build_cache_from_svmlight`] is the svmlight-file front door.
#[derive(Debug)]
pub struct DatasetBuilder {
    path: PathBuf,
    feature_dim: u64,
    label_dim: u64,
    feat_indptr: Vec<u64>,
    label_indptr: Vec<u64>,
    sections: Option<[Section; 3]>,
    scratch: Vec<u8>,
}

#[derive(Debug)]
struct Section {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Section {
    fn create(path: PathBuf) -> Result<Self, CacheError> {
        let writer = BufWriter::new(File::create(&path)?);
        Ok(Self { path, writer })
    }
}

const SEC_IDX: usize = 0;
const SEC_VAL: usize = 1;
const SEC_LAB: usize = 2;

impl DatasetBuilder {
    /// Starts a cache build at `path` for the given dimensions.
    ///
    /// Creates `<path>.tmp` plus three `<path>.sec*.tmp` section files
    /// next to the target (so the final rename never crosses a
    /// filesystem); all temporaries are removed by `finish` and
    /// clobbered by the next build after a crash.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] if the temporaries cannot be created.
    pub fn create<P: AsRef<Path>>(
        path: P,
        feature_dim: usize,
        label_dim: usize,
    ) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        let sec = |tag: &str| -> PathBuf {
            let mut s = path.as_os_str().to_os_string();
            s.push(tag);
            PathBuf::from(s)
        };
        let sections = [
            Section::create(sec(".sec-idx.tmp"))?,
            Section::create(sec(".sec-val.tmp"))?,
            Section::create(sec(".sec-lab.tmp"))?,
        ];
        Ok(Self {
            path,
            feature_dim: feature_dim as u64,
            label_dim: label_dim as u64,
            feat_indptr: vec![0],
            label_indptr: vec![0],
            sections: Some(sections),
            scratch: Vec::new(),
        })
    }

    /// Examples pushed so far.
    pub fn len(&self) -> usize {
        self.feat_indptr.len() - 1
    }

    /// Whether no examples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one example.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidExample`] if a feature index or
    /// label is out of range for the declared dimensions (the
    /// [`crate::sparse::SparseVector`] invariant already guarantees
    /// strictly increasing feature indices), or if the labels are not
    /// sorted and unique — `Example::new` guarantees that, but
    /// `Example.labels` is a public field, and the cache format (and
    /// its open-time validation) requires it. Also returns
    /// [`CacheError::Io`] on a write failure.
    pub fn push(&mut self, example: &Example) -> Result<(), CacheError> {
        let index = self.len() as u64;
        if example.features.min_dim() > self.feature_dim as usize {
            return Err(CacheError::InvalidExample {
                index,
                message: format!(
                    "feature index {} out of range (feature_dim {})",
                    example.features.min_dim() - 1,
                    self.feature_dim
                ),
            });
        }
        for (pos, &l) in example.labels.iter().enumerate() {
            if l as u64 >= self.label_dim {
                return Err(CacheError::InvalidExample {
                    index,
                    message: format!("label {l} out of range (label_dim {})", self.label_dim),
                });
            }
            if pos > 0 && example.labels[pos - 1] >= l {
                return Err(CacheError::InvalidExample {
                    index,
                    message: format!(
                        "labels not sorted/unique at position {pos} ({} then {l})",
                        example.labels[pos - 1]
                    ),
                });
            }
        }
        let sections = self
            .sections
            .as_mut()
            .expect("push after finish is unreachable (finish consumes self)");

        self.scratch.clear();
        for &i in example.features.indices() {
            self.scratch.extend_from_slice(&i.to_le_bytes());
        }
        sections[SEC_IDX].writer.write_all(&self.scratch)?;

        self.scratch.clear();
        for &v in example.features.values() {
            self.scratch.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        sections[SEC_VAL].writer.write_all(&self.scratch)?;

        self.scratch.clear();
        for &l in &example.labels {
            self.scratch.extend_from_slice(&l.to_le_bytes());
        }
        sections[SEC_LAB].writer.write_all(&self.scratch)?;

        let nnz = self.feat_indptr.last().expect("starts at [0]") + example.features.nnz() as u64;
        self.feat_indptr.push(nnz);
        let labs = self.label_indptr.last().expect("starts at [0]") + example.labels.len() as u64;
        self.label_indptr.push(labs);
        Ok(())
    }

    /// Stitches the final cache file and atomically renames it into
    /// place, removing all temporaries.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] on any write, sync or rename failure.
    pub fn finish(mut self) -> Result<CacheSummary, CacheError> {
        let sections = self.sections.take().expect("finish runs once");
        let layout = CacheLayout::from_counts(
            self.len() as u64,
            self.feature_dim,
            self.label_dim,
            *self.feat_indptr.last().expect("starts at [0]"),
            *self.label_indptr.last().expect("starts at [0]"),
        );

        // Flush the section temporaries and reopen them for reading.
        let mut readers = Vec::with_capacity(3);
        for s in sections {
            let mut w = s.writer;
            w.flush()?;
            drop(w);
            readers.push((s.path.clone(), BufReader::new(File::open(&s.path)?)));
        }

        let tmp = {
            let mut s = self.path.as_os_str().to_os_string();
            s.push(".tmp");
            PathBuf::from(s)
        };
        let file = File::create(&tmp)?;
        let mut out = HashingWriter::new(BufWriter::new(file));

        out.write_all(CACHE_MAGIC)?;
        out.write_all(&CACHE_VERSION.to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?;
        for v in [
            layout.num_examples,
            layout.feature_dim,
            layout.label_dim,
            layout.total_nnz,
            layout.total_labels,
        ] {
            out.write_all(&v.to_le_bytes())?;
        }
        for &p in &self.feat_indptr {
            out.write_all(&p.to_le_bytes())?;
        }
        for &p in &self.label_indptr {
            out.write_all(&p.to_le_bytes())?;
        }
        for (_, reader) in &mut readers {
            io::copy(reader, &mut out)?;
        }
        let checksum = out.hash.finish();
        let mut inner = out.inner;
        inner.write_all(&checksum.to_le_bytes())?;
        let file = inner
            .into_inner()
            .map_err(|e| CacheError::Io(io::Error::other(e.to_string())))?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &self.path)?;
        for (path, reader) in readers {
            drop(reader);
            // The cache is already complete and in place; failing to
            // unlink a section temporary must not turn success into an
            // error (the next build at this path clobbers them anyway).
            std::fs::remove_file(&path).ok();
        }

        Ok(CacheSummary {
            examples: layout.num_examples,
            total_nnz: layout.total_nnz,
            total_labels: layout.total_labels,
            bytes: layout.file_len,
            path: self.path,
        })
    }
}

/// Compiles an svmlight text file into a cache at `out` — one streaming
/// pass, constant memory (see [`DatasetBuilder`]).
///
/// # Errors
///
/// Returns [`CacheError::Svmlight`] for malformed source text and
/// [`CacheError::Io`] for filesystem failures.
pub fn build_cache_from_svmlight<P: AsRef<Path>, Q: AsRef<Path>>(
    src: P,
    out: Q,
) -> Result<CacheSummary, CacheError> {
    build_cache_from_reader(StreamingSvmReader::open(src)?, out)
}

/// Compiles an already-open [`StreamingSvmReader`] into a cache at
/// `out`.
///
/// # Errors
///
/// See [`build_cache_from_svmlight`].
pub fn build_cache_from_reader<R: BufRead, Q: AsRef<Path>>(
    mut reader: StreamingSvmReader<R>,
    out: Q,
) -> Result<CacheSummary, CacheError> {
    let header = *reader.header();
    let mut builder = DatasetBuilder::create(out, header.feature_dim, header.label_dim)?;
    let mut ex = Example::empty();
    while reader.read_into(&mut ex)? {
        builder.push(&ex)?;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVector;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("slide-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn layout_offsets_are_consistent() {
        let l = CacheLayout::from_counts(2, 10, 4, 3, 2);
        assert_eq!(l.feat_indptr_off, 56);
        assert_eq!(l.label_indptr_off, 56 + 24);
        assert_eq!(l.indices_off, 56 + 48);
        assert_eq!(l.values_off, l.indices_off + 12);
        assert_eq!(l.labels_off, l.values_off + 12);
        assert_eq!(l.checksum_off, l.labels_off + 8);
        assert_eq!(l.file_len, l.checksum_off + 8);
    }

    #[test]
    fn builder_writes_expected_bytes() {
        let path = tmp("expected-bytes.slidecache");
        let mut b = DatasetBuilder::create(&path, 10, 4).unwrap();
        b.push(&Example::new(SparseVector::from_pairs([(2, 1.5)]), vec![1]))
            .unwrap();
        b.push(&Example::new(
            SparseVector::from_pairs([(0, -1.0), (9, 2.0)]),
            vec![3, 0],
        ))
        .unwrap();
        let summary = b.finish().unwrap();
        assert_eq!(summary.examples, 2);
        assert_eq!(summary.total_nnz, 3);
        assert_eq!(summary.total_labels, 3);

        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(summary.bytes as usize, bytes.len());
        assert_eq!(&bytes[..8], CACHE_MAGIC);
        // Trailing checksum matches a recomputation.
        let mut h = Fnv1a::new();
        h.update(&bytes[..bytes.len() - 8]);
        assert_eq!(
            h.finish(),
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap())
        );
        // No temporaries left behind.
        for tag in [".tmp", ".sec-idx.tmp", ".sec-val.tmp", ".sec-lab.tmp"] {
            let mut s = path.as_os_str().to_os_string();
            s.push(tag);
            assert!(!PathBuf::from(s).exists(), "{tag} not cleaned up");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let path = tmp("oob.slidecache");
        let mut b = DatasetBuilder::create(&path, 10, 4).unwrap();
        let err = b
            .push(&Example::new(SparseVector::from_pairs([(10, 1.0)]), vec![]))
            .unwrap_err();
        assert!(err.to_string().contains("feature index 10"), "{err}");
        let err = b
            .push(&Example::new(SparseVector::new(), vec![4]))
            .unwrap_err();
        assert!(err.to_string().contains("label 4"), "{err}");
        // `labels` is a public field, so unsorted/duplicate lists can
        // reach push without going through Example::new — the format
        // requires sorted unique labels, so push must reject them
        // (and must not let an unsorted max dodge the range check).
        for labels in [vec![3, 1], vec![2, 2], vec![5, 1]] {
            let err = b
                .push(&Example {
                    features: SparseVector::new(),
                    labels,
                })
                .unwrap_err();
            assert!(matches!(err, CacheError::InvalidExample { .. }), "{err}");
        }
    }

    #[test]
    fn empty_cache_roundtrips() {
        let path = tmp("empty.slidecache");
        let summary = DatasetBuilder::create(&path, 5, 2)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(summary.examples, 0);
        let ds = crate::source::MmapDataset::open(&path).unwrap();
        assert_eq!(crate::source::ExampleSource::len(&ds), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
