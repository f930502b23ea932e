//! # slide — facade crate for the SLIDE reproduction
//!
//! SLIDE (Sub-LInear Deep learning Engine, Chen et al., MLSys 2020) trains
//! large fully-connected networks by *adaptive sparsity*: every layer keeps
//! locality-sensitive hash tables over its neuron weight vectors, hashes
//! each input, and activates only the neurons retrieved from the matching
//! buckets — forward and backward. Combined with HOGWILD-style lock-free
//! gradient updates across a batch-parallel thread pool, this computes
//! <1% of a dense pass while converging identically per iteration.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`data`] — sparse vectors, datasets, metrics, deterministic RNG;
//! * [`lsh`] — hash families (SimHash, WTA, DWTA, DOPH), (K, L) tables,
//!   bucket policies and active-neuron sampling strategies;
//! * [`kernels`] — scalar and vectorized numeric kernels;
//! * [`core`] — the selector-driven sparse execution engine: SLIDE and
//!   the paper's baselines are one generic trainer under different
//!   `NeuronSelector`s (LSH-adaptive, dense, static sampled); plus the
//!   inference stack (label-free LSH retrieval, in-place top-k) and the
//!   versioned network snapshot format;
//! * [`serve`] — the serving layer: a frozen-snapshot `ServingEngine`,
//!   a micro-batching `BatchServer`, an epoch-swapped `EngineHandle`
//!   for zero-downtime snapshot hot-reload, and a `std::net` HTTP/1.1
//!   front-end speaking a versioned typed wire protocol.
//!
//! ## Quickstart
//!
//! ```
//! use slide::prelude::*;
//!
//! // A tiny synthetic extreme-classification task.
//! let data = generate(&SyntheticConfig::tiny().with_seed(1));
//!
//! // A 2-layer SLIDE network: dense hidden layer, LSH-sampled output.
//! let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
//!     .hidden(16)
//!     .output_lsh(LshLayerConfig::simhash(3, 8))
//!     .seed(7)
//!     .build()
//!     .expect("valid config");
//! let mut trainer = SlideTrainer::new(config).expect("valid network");
//! let report = trainer.train(&data.train, &TrainOptions::new(1).batch_size(32));
//! assert!(report.iterations > 0);
//! let p1 = trainer.evaluate(&data.test);
//! assert!(p1 >= 0.0);
//! ```

pub use slide_core as core;
pub use slide_data as data;
pub use slide_kernels as kernels;
pub use slide_lsh as lsh;
pub use slide_serve as serve;

/// Commonly used items, re-exported for `use slide::prelude::*`.
pub mod prelude {
    pub use slide_core::{
        baseline::{DenseTrainer, SampledSoftmaxTrainer, StaticSampledSelector},
        config::{LshLayerConfig, NetworkConfig},
        inference::{InferenceSelector, TopK},
        network::Network,
        selector::{ActiveSet, DenseSelector, LshSelector, NeuronSelector},
        trainer::{SlideTrainer, TrainOptions, TrainReport, Trainer},
    };
    pub use slide_data::{
        cache::{build_cache_from_svmlight, DatasetBuilder},
        metrics::{precision_at_k, recall_at_k},
        source::{ExampleSource, MmapDataset},
        stream::StreamingSvmReader,
        synth::{generate, Scale, SyntheticConfig, SyntheticStream},
        Dataset, Example, SparseVector,
    };
    pub use slide_lsh::{
        family::HashFamily,
        retrieve::QueryBudget,
        sampling::SamplingStrategy,
        table::{LshTables, TableConfig},
    };
    pub use slide_serve::{
        BatchOptions, BatchServer, DegradeOptions, EngineHandle, FaultPlan, HttpOptions,
        HttpServer, RetryPolicy, ServeError, ServeOptions, ServingEngine, SnapshotWatcher,
    };
}
