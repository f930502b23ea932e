//! # slide-serve
//!
//! The serving layer of the SLIDE reproduction: loads a frozen
//! [`slide_core::Network`] snapshot and answers top-k classification
//! requests with sub-linear LSH-retrieval inference — in process or over
//! the wire.
//!
//! The paper trains with adaptive sparsity; this crate closes the loop by
//! *serving* with it. Where a brute-force deployment scores every output
//! class per request (O(classes)), a [`ServingEngine`] hashes the request,
//! retrieves the LSH bucket union under a probe budget, and scores only
//! those candidates — the same sub-linear economics SLIDE exploits in
//! training, now behind a versioned service API:
//!
//! * [`engine::ServingEngine`] — a frozen network + a
//!   [`slide_core::WorkspacePool`]; every fallible path returns a typed
//!   [`ServeError`] that maps 1:1 onto an HTTP status;
//! * [`batch::BatchServer`] — a micro-batching queue over a worker thread
//!   pool for concurrent in-process callers;
//! * [`handle::EngineHandle`] — epoch-counted atomic engine swapping:
//!   snapshot hot-reload with zero request downtime (plus a file-watcher
//!   poll loop);
//! * [`http::HttpServer`] — an event-driven HTTP/1.1 front-end on a
//!   dependency-free epoll/poll readiness loop ([`net`]) with
//!   per-connection incremental parsing ([`conn`]): every
//!   `POST /v1/predict` feeds one shared admission queue draining
//!   through the [`batch::BatchServer`], so concurrent singles from
//!   *different connections* coalesce into fused batch row passes.
//!   Speaks the versioned [`wire`] protocol (`POST /v1/predict`,
//!   `GET /healthz`, `GET /readyz`, `GET /v1/stats`, `POST /v1/reload`)
//!   with backpressure (`429` + `Retry-After`), idle/slow-loris
//!   timeouts, and graceful drain; [`client::Client`] is its blocking
//!   counterpart (with an opt-in [`RetryPolicy`] for backoff on `429`);
//! * [`router::Router`] — scatter-gather serving over *sliced* output
//!   layers (`slide_core::snapshot::slice_snapshot`): each shard server
//!   holds one contiguous neuron range, the router fans every
//!   `POST /v1/predict` across the fleet and merges the per-shard top-k
//!   lists into an answer bit-identical to one full box's, failing
//!   typed (`503 shard_unavailable` / `504 merge_timeout`) rather than
//!   merging partially. It is a second back-end of the same event-loop
//!   transport, so it enforces the single box's limits and timeouts;
//! * [`fault`] — a runtime fault-injection switchboard ([`FaultPlan`])
//!   the chaos drills use to prove the recovery paths: panic-isolated
//!   supervised workers, snapshot quarantine + last-good rollback, and
//!   load-adaptive query-budget degradation ([`DegradeOptions`]);
//! * [`json`] — the hand-rolled, dependency-free JSON both sides parse
//!   and print (floats cross the wire bit-exactly).
//!
//! ## Example
//!
//! ```
//! use slide_core::config::{LshLayerConfig, NetworkConfig};
//! use slide_core::Network;
//! use slide_data::synth::{generate, SyntheticConfig};
//! use slide_serve::{ServeOptions, ServingEngine};
//!
//! let data = generate(&SyntheticConfig::tiny().with_seed(1));
//! let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
//!     .hidden(16)
//!     .output_lsh(LshLayerConfig::simhash(3, 8))
//!     .build()?;
//! let network = Network::new(config)?;
//!
//! // Round-trip through the snapshot format, as a deployment would.
//! let engine = ServingEngine::from_snapshot_bytes(
//!     &network.to_snapshot_bytes(),
//!     ServeOptions::default(),
//! )?;
//! let answer = engine.predict(&data.test.examples()[0].features)?;
//! assert!(answer.topk.len() <= engine.options().top_k);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Serving the same engine over HTTP with hot reload:
//!
//! ```no_run
//! use std::sync::Arc;
//! use slide_serve::http::{HttpOptions, HttpServer};
//! use slide_serve::{EngineHandle, ServeOptions};
//!
//! let handle = Arc::new(EngineHandle::from_snapshot_file(
//!     "model.slidesnap",
//!     ServeOptions::default(),
//! )?);
//! let server = HttpServer::serve(Arc::clone(&handle), "0.0.0.0:8080", HttpOptions::default())?;
//! // ... later: hot-swap a retrained model with zero downtime.
//! handle.reload_from_file("model.slidesnap")?;
//! # server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod client;
pub mod conn;
pub mod engine;
pub mod error;
pub mod fault;
pub mod handle;
pub mod http;
pub mod json;
pub mod net;
pub mod router;
pub mod wire;

pub use batch::{BatchOptions, BatchServer, DegradeOptions, RequestHandle, ServerStats};
pub use client::{Client, ClientError, Health, RetryPolicy};
pub use engine::{EngineStats, Prediction, ServeOptions, ServingEngine};
pub use error::ServeError;
pub use fault::{FaultPlan, PublishFault};
pub use handle::{EngineHandle, SnapshotWatcher};
pub use http::{HttpOptions, HttpServer, HttpStats};
pub use router::{Router, RouterOptions, RouterStats};
pub use wire::{PredictRequest, PredictResponse, WirePrediction, API_VERSION};
