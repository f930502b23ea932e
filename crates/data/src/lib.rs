//! # slide-data
//!
//! Data substrate for the SLIDE reproduction: deterministic random number
//! generation, sparse feature vectors, extreme-classification datasets
//! (both a parser for the Extreme Classification Repository text format and
//! a synthetic generator with planted label structure), mini-batching and
//! ranking metrics.
//!
//! Everything in this crate is seed-deterministic: two runs with the same
//! seed produce bit-identical datasets, which makes every experiment in the
//! benchmark harness reproducible.
//!
//! ## The data layer at scale
//!
//! Three modules form the paper-scale ingestion pipeline (see
//! `ARCHITECTURE.md` at the repo root for the full contract):
//!
//! * [`stream`] — [`StreamingSvmReader`], a buffered allocation-free
//!   svmlight tokenizer that yields validated examples without
//!   materializing the file (the eager [`svmlight::read`] is a thin
//!   wrapper over it);
//! * [`cache`] — [`DatasetBuilder`] compiles any example stream, in one
//!   pass and constant memory, into a versioned FNV-checksummed CSR
//!   binary cache;
//! * [`source`] — the [`ExampleSource`] trait the trainer and benches
//!   consume every corpus through, with [`MmapDataset`] memory-mapping
//!   a cache so corpora larger than RAM train at in-memory speed.
//!
//! ## Example
//!
//! ```
//! use slide_data::synth::{SyntheticConfig, generate};
//!
//! let cfg = SyntheticConfig::tiny().with_seed(7);
//! let data = generate(&cfg);
//! assert_eq!(data.train.len(), cfg.train_size);
//! let stats = data.train.stats();
//! assert!(stats.avg_feature_nnz > 0.0);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod dataset;
pub mod metrics;
pub mod rng;
pub mod source;
pub mod sparse;
pub mod stream;
pub mod svmlight;
pub mod synth;

pub use cache::{build_cache_from_svmlight, CacheError, CacheSummary, DatasetBuilder};
pub use dataset::{Dataset, DatasetStats, Example};
pub use metrics::{precision_at_k, recall_at_k, PrecisionTracker};
pub use rng::{Rng, SplitMix64, Xoshiro256PlusPlus};
pub use source::{CacheOptions, ExampleSource, MmapDataset};
pub use sparse::SparseVector;
pub use stream::{StreamingSvmReader, SvmHeader};
