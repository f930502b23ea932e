//! # slide-core
//!
//! The SLIDE training engine (Chen et al., *SLIDE: In Defense of Smart
//! Algorithms over Hardware Acceleration for Large-Scale Deep Learning
//! Systems*, MLSys 2020), reproduced in Rust.
//!
//! The engine trains fully connected networks by **adaptive sparsity**:
//! layers flagged with LSH keep `(K, L)` hash tables over their neuron
//! weight vectors; each input is hashed and only the retrieved neurons are
//! activated, forward and backward, so per-example work scales with the
//! *active* fraction (<1%) rather than the layer width. Batch elements run
//! on parallel threads and push gradient updates into the shared weights
//! HOGWILD-style with no synchronization.
//!
//! Architecturally, *which* neurons activate is pluggable: the
//! [`selector::NeuronSelector`] trait fills an [`selector::ActiveSet`]
//! per layer and the engine ([`network::Network`]) runs the identical
//! sparse pass over it. SLIDE and the paper's two baselines are the one
//! generic [`trainer::Trainer`] under three selectors.
//!
//! * [`config`] — network/LSH configuration with a builder;
//! * [`selector`] — the [`selector::NeuronSelector`] trait,
//!   [`selector::LshSelector`] and [`selector::DenseSelector`];
//! * [`network`] — the selector-agnostic sparse execution engine:
//!   forward, message-passing backward, evaluation, workspace pooling;
//! * [`trainer`] — the batch-parallel loop, generic
//!   [`trainer::Trainer`], and [`trainer::SlideTrainer`];
//! * [`inference`] — the serving-side stack: label-free
//!   [`inference::InferenceSelector`] retrieval and the in-place
//!   [`inference::TopK`] reduction behind `Network::predict_topk`;
//! * [`snapshot`] — versioned byte-format serialization of a trained
//!   network (weights, biases, config), hash tables built once on load,
//!   with an optional i16 fixed-point output-layer encoding;
//! * [`quant`] — [`quant::QuantizedRows`], the decoded per-row-scaled
//!   i16 output layer consumed by the fused quantized dot kernels;
//! * [`baseline`] — the paper's comparison systems (full softmax and
//!   static sampled softmax) as selectors + thin trainer aliases;
//! * [`hogwild`] — relaxed-atomic shared parameter storage;
//! * [`schedule`] — exponential-decay hash-table rebuild scheduling;
//! * [`telemetry`] — utilization and memory-traffic counters (the VTune
//!   substitute).
//!
//! ## Example
//!
//! ```
//! use slide_core::config::{LshLayerConfig, NetworkConfig};
//! use slide_core::trainer::{SlideTrainer, TrainOptions};
//! use slide_data::synth::{generate, SyntheticConfig};
//!
//! let data = generate(&SyntheticConfig::tiny().with_seed(1));
//! let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
//!     .hidden(16)
//!     .output_lsh(LshLayerConfig::simhash(3, 8))
//!     .seed(7)
//!     .build()?;
//! let mut trainer = SlideTrainer::new(config)?;
//! let report = trainer.train(&data.train, &TrainOptions::new(1).batch_size(64));
//! assert!(report.iterations > 0);
//! # Ok::<(), slide_core::error::ConfigError>(())
//! ```

pub mod baseline;
pub mod config;
pub mod error;
pub mod hogwild;
pub mod inference;
pub mod layer;
pub mod network;
pub mod quant;
pub mod schedule;
pub mod selector;
pub mod snapshot;
pub mod telemetry;
pub mod trainer;

pub use baseline::{DenseTrainer, SampledSoftmaxTrainer, StaticSampledSelector};
pub use config::{Activation, FamilySpec, LayerConfig, LshLayerConfig, NetworkConfig};
pub use error::{ConfigError, SlideError};
pub use inference::{BatchReport, BatchScratch, InferenceSelector, TopK};
pub use network::{Network, Workspace, WorkspacePool};
pub use quant::QuantizedRows;
pub use schedule::{RebuildSchedule, RebuildState};
pub use selector::{
    hash_layer_input, probe_tables, ActiveSet, DenseSelector, LshSelector, NeuronSelector,
};
pub use snapshot::{
    assemble_slices, read_slice, slice_snapshot, LoadedSlice, LoadedSnapshot, SnapshotError,
};
pub use trainer::{Checkpoint, SlideTrainer, TrainOptions, TrainReport, Trainer};
