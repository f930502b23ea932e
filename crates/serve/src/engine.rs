//! The blocking inference engine: a frozen network, a workspace pool, and
//! latency/throughput counters.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use slide_core::inference::{BatchScratch, InferenceSelector, TopK};
use slide_core::{Network, WorkspacePool};
use slide_data::SparseVector;
use slide_lsh::QueryBudget;

use crate::error::ServeError;

/// Inference configuration for a [`ServingEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Classes returned per request.
    pub top_k: usize,
    /// LSH probe budget per request (tables probed / candidates unioned).
    pub budget: QueryBudget,
    /// Dense-score a layer whose retrieval found no candidates, so every
    /// request gets an answer (default on).
    pub dense_fallback: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        // min_collisions 2: a genuinely similar neuron collides with the
        // query in several of the L tables, an accidental one in one or
        // two — requiring a second hit roughly halves the candidate set
        // for ~1% argmax-recall cost.
        Self {
            top_k: 5,
            budget: QueryBudget::all().with_min_collisions(2),
            dense_fallback: true,
        }
    }
}

impl ServeOptions {
    /// Sets the classes returned per request (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `top_k == 0`.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        assert!(top_k > 0, "top_k must be positive");
        self.top_k = top_k;
        self
    }

    /// Sets the LSH probe budget (builder style).
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables/disables the empty-retrieval dense fallback (builder
    /// style).
    pub fn with_dense_fallback(mut self, enabled: bool) -> Self {
        self.dense_fallback = enabled;
        self
    }
}

/// One answered request: the ranked classes and the engine-side latency
/// (selection + scoring + reduction; queueing time excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The `top_k` best classes, best-first.
    pub topk: TopK,
    /// Time spent computing this prediction.
    pub latency: Duration,
}

/// Monotonic counters aggregated across all threads using an engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered.
    pub requests: u64,
    /// Summed compute latency, nanoseconds.
    pub total_latency_ns: u64,
    /// Worst single-request compute latency, nanoseconds.
    pub max_latency_ns: u64,
    /// Requests whose LSH output layer ran fully dense (empty retrieval
    /// fell back, or the union degenerated to the whole layer). A high
    /// ratio means the engine is serving O(classes) despite its
    /// sub-linear configuration.
    pub dense_fallbacks: u64,
}

impl EngineStats {
    /// Mean compute latency per request.
    pub fn mean_latency(&self) -> Duration {
        Duration::from_nanos(
            self.total_latency_ns
                .checked_div(self.requests)
                .unwrap_or(0),
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    total_latency_ns: AtomicU64,
    max_latency_ns: AtomicU64,
    dense_fallbacks: AtomicU64,
}

/// A frozen network behind a blocking `predict` API.
///
/// The engine owns the [`Network`] immutably — no training, no table
/// rebuilds after load — so any number of threads may call
/// [`ServingEngine::predict`] concurrently; each call checks a private
/// [`slide_core::Workspace`] out of the shared pool (created once, reused
/// forever, zero steady-state allocation).
///
/// # Example
///
/// Freeze a network to snapshot bytes, load it into an engine, answer a
/// request, and read the latency counters:
///
/// ```
/// use slide_core::config::{LshLayerConfig, NetworkConfig};
/// use slide_core::Network;
/// use slide_data::SparseVector;
/// use slide_serve::{ServeOptions, ServingEngine};
///
/// let config = NetworkConfig::builder(100, 20)
///     .hidden(8)
///     .output_lsh(LshLayerConfig::simhash(3, 4))
///     .seed(1)
///     .build()?;
/// let network = Network::new(config)?;
///
/// let engine = ServingEngine::from_snapshot_bytes(
///     &network.to_snapshot_bytes(),
///     ServeOptions::default().with_top_k(3),
/// )?;
/// let answer = engine.predict(&SparseVector::from_pairs([(4, 1.0), (17, 2.0)]))?;
/// assert!(!answer.topk.items().is_empty());
/// assert_eq!(engine.stats().requests, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServingEngine {
    network: Network,
    /// The snapshot's i16 output rows, when it carried them. Batched
    /// scoring runs the fused `dot_batch_q16` path over these instead of
    /// gathering f32 rows: each retrieved row once, against only the
    /// inputs of the batch that retrieved it.
    quantized: Option<slide_core::QuantizedRows>,
    options: ServeOptions,
    pool: WorkspacePool,
    counters: Counters,
    /// `(lo, hi, total)` for an engine loaded from a snapshot *slice*
    /// ([`ServingEngine::from_slice_bytes`]), `None` for a full model.
    /// The network scores local neurons `0..hi − lo`; every returned
    /// class id is offset by `lo` into the global space so a
    /// scatter-gather router can merge shard answers directly, and
    /// requests are validated against `total` (a shard must accept the
    /// same `k` range the unsharded engine does, then return its best
    /// `min(k, units)` rows).
    slice: Option<(usize, usize, usize)>,
}

impl ServingEngine {
    /// Wraps an already-built (typically snapshot-restored) network,
    /// switching its tables to centered-row hashing. Softmax training
    /// leaves all rows sharing a large common component that wrecks
    /// cosine retrieval; centering removes it without changing any score
    /// ranking (see `LshLayerConfig::center_rows`). No quantized rows:
    /// batches score through the f32 gather kernels.
    pub fn new(network: Network, options: ServeOptions) -> Self {
        Self::with_quantized(network, None, options)
    }

    /// [`ServingEngine::new`] with the output layer's quantized rows
    /// (typically [`slide_core::LoadedSnapshot::quantized`]) attached for
    /// the fused i16 batch-scoring path.
    ///
    /// # Panics
    ///
    /// Panics if `quantized`'s shape does not match the network's output
    /// layer.
    pub fn with_quantized(
        mut network: Network,
        quantized: Option<slide_core::QuantizedRows>,
        options: ServeOptions,
    ) -> Self {
        assert!(options.top_k > 0, "top_k must be positive");
        if let Some(q) = &quantized {
            let last = network.layers().len() - 1;
            let out = &network.layers()[last];
            assert_eq!(q.units(), out.units(), "quantized units mismatch");
            assert_eq!(q.fan_in(), out.fan_in(), "quantized fan-in mismatch");
        }
        network.set_lsh_centering(true);
        Self {
            quantized,
            // Inference draws no random number, so the streams the pool
            // seeds its workspaces with are never read.
            pool: WorkspacePool::new(0, true),
            counters: Counters::default(),
            network,
            options,
            slice: None,
        }
    }

    /// Restores a network from snapshot bytes and wraps it. Centering is
    /// applied *during* the restore, so the tables are built once in the
    /// right geometry instead of rebuilt afterwards. A quantized
    /// snapshot serves through the fused i16 batch-scoring path over its
    /// output rows, an f32 snapshot through the f32 gather kernels.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] on a malformed snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8], options: ServeOptions) -> Result<Self, ServeError> {
        let loaded = slide_core::snapshot::read_snapshot_with_centering(bytes, Some(true))?;
        Ok(Self::with_quantized(
            loaded.network,
            loaded.quantized,
            options,
        ))
    }

    /// Restores a *shard* engine from snapshot-slice bytes
    /// (`slide_core::snapshot::slice_snapshot`): a network holding only
    /// the slice's contiguous output-neuron range, scoring those rows
    /// bit-identically to the full engine — same hash family, same
    /// centering vector (carried by the slice), same weight bits — with
    /// every returned class id offset back into the global space.
    /// Requests are still validated against the *full* model's class
    /// count, so a scatter-gather router can fan the same request to
    /// every shard and merge the answers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] on malformed slice bytes.
    pub fn from_slice_bytes(bytes: &[u8], options: ServeOptions) -> Result<Self, ServeError> {
        let loaded = slide_core::snapshot::read_slice(bytes, Some(true))?;
        let mut engine =
            Self::with_quantized(loaded.snapshot.network, loaded.snapshot.quantized, options);
        engine.slice = Some((loaded.lo, loaded.hi, loaded.total));
        Ok(engine)
    }

    /// Loads a snapshot file and wraps the restored network (centering
    /// applied during the restore, as in
    /// [`ServingEngine::from_snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] on filesystem failure or a malformed
    /// snapshot.
    pub fn from_snapshot_file<P: AsRef<Path>>(
        path: P,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        use std::io::Read;
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(slide_core::snapshot::SnapshotError::from)?;
        Self::from_snapshot_bytes(&bytes, options)
    }

    /// The frozen network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Whether batched scoring runs over quantized i16 output rows.
    pub fn quantized_active(&self) -> bool {
        self.quantized.is_some()
    }

    /// The inference options.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Answers one request with the configured `top_k`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureIndexOutOfRange`] if the request's
    /// feature indices do not fit the network's input dimension.
    pub fn predict(&self, features: &SparseVector) -> Result<Prediction, ServeError> {
        self.predict_k(features, self.default_top_k())
    }

    /// The configured `top_k`, clamped to this model's class count.
    /// The clamp happens per use, not at construction, so the pristine
    /// [`ServeOptions`] carried across hot reloads keeps the operator's
    /// configured value — a later, wider model serves the full `top_k`
    /// again. Wire-supplied `k` overrides are validated strictly instead
    /// (see [`ServingEngine::validate_request`]).
    pub fn default_top_k(&self) -> usize {
        self.options.top_k.min(self.total_classes())
    }

    /// Global class id of this engine's first output neuron (non-zero
    /// only for slice-loaded shard engines).
    pub fn class_offset(&self) -> u32 {
        self.slice.map_or(0, |(lo, _, _)| lo as u32)
    }

    /// `(lo, hi, total)` of the snapshot slice this engine serves, `None`
    /// for a full model.
    pub(crate) fn slice_range(&self) -> Option<(usize, usize, usize)> {
        self.slice
    }

    /// The class-id space requests are validated against: the full
    /// model's output width, even for a slice-loaded shard engine.
    pub fn total_classes(&self) -> usize {
        self.slice
            .map_or_else(|| self.network.output_dim(), |(_, _, total)| total)
    }

    /// Answers one request with an explicit `k`, as a batch-of-1
    /// through [`ServingEngine::predict_batch_k`]. The whole serving
    /// surface therefore has ONE scoring path: the fused batch kernels
    /// accumulate each example in a fixed order independent of batch
    /// size or composition, so a request answered alone is
    /// bit-identical to the same request coalesced into a
    /// cross-connection micro-batch (pinned by
    /// `single_and_batched_predictions_are_bit_identical`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTopK`] if `k == 0`, or
    /// [`ServeError::FeatureIndexOutOfRange`] if the request's feature
    /// indices do not fit the network's input dimension.
    pub fn predict_k(&self, features: &SparseVector, k: usize) -> Result<Prediction, ServeError> {
        let mut out = self.predict_batch_k(std::slice::from_ref(features), k)?;
        // lint:allow(no-panic-paths): predict_batch_k returns exactly one
        // prediction per input on Ok, and it was given one input.
        Ok(out.pop().expect("batch-of-1 yields one prediction"))
    }

    /// The input feature dimension requests must fit in.
    pub fn input_dim(&self) -> usize {
        self.network.config().input_dim
    }

    /// Builds the selector for graceful-degradation `level`: the
    /// configured [`QueryBudget`] shrunk by [`QueryBudget::degraded`].
    /// Level 0 is the configured budget itself (`degraded(0)` is the
    /// identity), which is what every undegraded answer scores under.
    pub fn degraded_selector(&self, level: u32) -> InferenceSelector {
        InferenceSelector::new(self.options.budget.degraded(level))
            .with_dense_fallback(self.options.dense_fallback)
    }

    /// The number of output classes (also the largest accepted `top_k`).
    pub fn output_dim(&self) -> usize {
        self.network.output_dim()
    }

    /// Validates one request against the engine: `k` positive and at
    /// most the *full model's* class count (`TopK` preallocates `k`
    /// slots — a wire-supplied `k` must not be able to demand an
    /// arbitrary allocation), every feature index inside the input
    /// dimension. Runs before any weight access — an unchecked
    /// out-of-range index would read another neuron's weights or index
    /// past the weight array inside the forward pass. Slice-loaded shard
    /// engines validate against `total_classes`, not their local width,
    /// so every shard accepts exactly the requests the full engine
    /// would.
    pub fn validate_request(&self, features: &SparseVector, k: usize) -> Result<(), ServeError> {
        let max = self.total_classes();
        if k == 0 || k > max {
            return Err(ServeError::InvalidTopK { k, max });
        }
        let needed = features.min_dim();
        if needed > self.input_dim() {
            return Err(ServeError::FeatureIndexOutOfRange {
                needed_dim: needed,
                input_dim: self.input_dim(),
            });
        }
        Ok(())
    }

    /// Checks a workspace out of the engine's pool; long-lived callers
    /// (the batch server's workers) hold one across many requests.
    pub(crate) fn checkout_workspace(&self) -> slide_core::network::PooledWorkspace<'_> {
        self.pool.acquire(&self.network)
    }

    /// Workspaces the engine's pool has built.
    #[cfg(test)]
    pub(crate) fn workspaces_created(&self) -> u64 {
        self.pool.created()
    }

    /// Answers a batch of requests with the configured `top_k` through
    /// the fused owner-masked scoring path (each candidate weight row
    /// streams through the cache once, scored against exactly the
    /// requests that retrieved it). Results are *bit-identical* to
    /// per-request [`ServingEngine::predict`] — the kernels accumulate
    /// each example in a fixed order independent of which other examples
    /// share a row, and singles route through the same path as a
    /// batch-of-1 — so batching is purely an execution detail.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureIndexOutOfRange`] if any request's
    /// feature indices do not fit the network's input dimension; the
    /// whole batch is rejected before any compute.
    pub fn predict_batch(&self, features: &[SparseVector]) -> Result<Vec<Prediction>, ServeError> {
        self.predict_batch_k(features, self.default_top_k())
    }

    /// [`ServingEngine::predict_batch`] with an explicit `k` for every
    /// request (the HTTP front-end's per-request `top_k` override).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTopK`] if `k == 0`, or
    /// [`ServeError::FeatureIndexOutOfRange`] if any request's feature
    /// indices do not fit the network's input dimension.
    pub fn predict_batch_k(
        &self,
        features: &[SparseVector],
        k: usize,
    ) -> Result<Vec<Prediction>, ServeError> {
        // Batched-scoring scratch is reused per calling thread, mirroring
        // what the batch server's workers do explicitly: a thread that
        // calls in repeatedly allocates nothing but the results after
        // its first batch. (The scratch holds no network-specific state
        // — it is cleared and refilled per call — so sharing one per
        // thread across engines/epochs is sound.)
        thread_local! {
            static SCRATCH: std::cell::RefCell<BatchScratch> =
                std::cell::RefCell::new(BatchScratch::default());
        }
        let mut ws = self.checkout_workspace();
        let ks = vec![k; features.len()];
        let mut out = Vec::with_capacity(features.len());
        let selector = self.degraded_selector(0);
        SCRATCH.with(|scratch| {
            self.predict_batch_in(
                &mut ws,
                &mut scratch.borrow_mut(),
                features,
                &ks,
                &mut out,
                &selector,
            )
        })?;
        Ok(out)
    }

    /// Batched prediction through caller-held workspace and scratch (the
    /// batch server's workers hold both for their lifetime), scoring
    /// through `selector` — [`ServingEngine::degraded_selector`] at the
    /// current graceful-degradation level. Pushes one [`Prediction`] per
    /// request onto `out`, in request order; each request is attributed
    /// an equal share of the batch's compute latency. Every request is
    /// validated before any compute, so a malformed batch is rejected
    /// whole with a typed error.
    ///
    /// # Panics
    ///
    /// Panics if `features` and `ks` lengths differ (a caller bug, not a
    /// request property).
    pub(crate) fn predict_batch_in(
        &self,
        ws: &mut slide_core::Workspace,
        scratch: &mut BatchScratch,
        features: &[SparseVector],
        ks: &[usize],
        out: &mut Vec<Prediction>,
        selector: &InferenceSelector,
    ) -> Result<(), ServeError> {
        assert_eq!(features.len(), ks.len(), "features/ks length mismatch");
        if features.is_empty() {
            return Ok(());
        }
        for (f, &k) in features.iter().zip(ks) {
            self.validate_request(f, k)?;
        }
        // A shard engine holds fewer neurons than `total_classes`; its
        // local reduction can only ever keep `output_dim` entries, so
        // clamp the preallocation (the router merges shard lists back up
        // to the requested k).
        let dim = self.network.output_dim();
        let mut topks: Vec<TopK> = ks.iter().map(|&k| TopK::new(k.min(dim))).collect();
        let t0 = Instant::now();
        let report = match &self.quantized {
            Some(q) => self
                .network
                .predict_topk_batch_quantized(selector, ws, scratch, features, &mut topks, q),
            None => self
                .network
                .predict_topk_batch(selector, ws, scratch, features, &mut topks),
        };
        let latency = t0.elapsed() / features.len() as u32;
        let last = self.network.layers().len() - 1;
        let lsh_output = self.network.layers()[last].lsh().is_some();
        let offset = self.class_offset();
        for mut topk in topks {
            if offset != 0 {
                topk.offset_ids(offset);
            }
            self.record(latency);
            out.push(Prediction { topk, latency });
        }
        if lsh_output && report.dense_examples > 0 {
            self.counters
                .dense_fallbacks
                .fetch_add(report.dense_examples as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn record(&self, latency: Duration) {
        let ns = latency.as_nanos() as u64;
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .total_latency_ns
            .fetch_add(ns, Ordering::Relaxed);
        self.counters
            .max_latency_ns
            .fetch_max(ns, Ordering::Relaxed);
    }

    /// A snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            total_latency_ns: self.counters.total_latency_ns.load(Ordering::Relaxed),
            max_latency_ns: self.counters.max_latency_ns.load(Ordering::Relaxed),
            dense_fallbacks: self.counters.dense_fallbacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_data::synth::{generate, SyntheticConfig};

    fn tiny_engine(options: ServeOptions) -> (ServingEngine, slide_data::synth::SyntheticData) {
        let data = generate(&SyntheticConfig::tiny().with_seed(4));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(5)
            .build()
            .unwrap();
        let network = Network::new(config).unwrap();
        (ServingEngine::new(network, options), data)
    }

    #[test]
    fn predict_returns_k_ranked_classes() {
        let (engine, data) = tiny_engine(ServeOptions::default().with_top_k(3));
        let p = engine.predict(&data.test.examples()[0].features).unwrap();
        assert!(p.topk.len() <= 3);
        assert!(!p.topk.is_empty());
        for w in p.topk.items().windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(p.latency > Duration::ZERO);
    }

    #[test]
    fn out_of_range_features_return_typed_error() {
        let (engine, _) = tiny_engine(ServeOptions::default());
        let dim = engine.input_dim();
        let bad = SparseVector::from_pairs([(dim as u32, 1.0)]);
        match engine.predict(&bad) {
            Err(ServeError::FeatureIndexOutOfRange {
                needed_dim,
                input_dim,
            }) => {
                assert_eq!(needed_dim, dim + 1);
                assert_eq!(input_dim, dim);
            }
            other => panic!("expected FeatureIndexOutOfRange, got {other:?}"),
        }
        // The batch path rejects the whole batch on one bad request.
        let good = SparseVector::from_pairs([(0, 1.0)]);
        assert!(matches!(
            engine.predict_batch(&[good, bad]),
            Err(ServeError::FeatureIndexOutOfRange { .. })
        ));
        // Nothing was counted for rejected requests.
        assert_eq!(engine.stats().requests, 0);
    }

    #[test]
    fn out_of_bounds_k_returns_typed_error() {
        let (engine, data) = tiny_engine(ServeOptions::default());
        let features = &data.test.examples()[0].features;
        assert!(matches!(
            engine.predict_k(features, 0),
            Err(ServeError::InvalidTopK { .. })
        ));
        // The upper bound caps the TopK preallocation: a wire-supplied
        // giant k must be rejected, not allocated.
        match engine.predict_k(features, engine.output_dim() + 1) {
            Err(ServeError::InvalidTopK { k, max }) => {
                assert_eq!(k, engine.output_dim() + 1);
                assert_eq!(max, engine.output_dim());
            }
            other => panic!("expected InvalidTopK, got {other:?}"),
        }
        // k == output_dim is the largest accepted value.
        assert!(engine.predict_k(features, engine.output_dim()).is_ok());
    }

    #[test]
    fn counters_aggregate_across_calls() {
        let (engine, data) = tiny_engine(ServeOptions::default());
        for ex in data.test.iter().take(10) {
            engine.predict(&ex.features).unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.requests, 10);
        assert!(s.total_latency_ns > 0);
        assert!(s.max_latency_ns <= s.total_latency_ns);
        assert!(s.mean_latency() > Duration::ZERO);
    }

    #[test]
    fn snapshot_round_trip_through_engine() {
        let (direct, data) = tiny_engine(ServeOptions::default().with_top_k(1));
        let bytes = direct.network().to_snapshot_bytes();
        let restored =
            ServingEngine::from_snapshot_bytes(&bytes, ServeOptions::default().with_top_k(1))
                .unwrap();
        for ex in data.test.iter().take(20) {
            assert_eq!(
                direct.predict(&ex.features).unwrap().topk.top1(),
                restored.predict(&ex.features).unwrap().topk.top1()
            );
        }
    }

    #[test]
    fn slice_engines_merge_bit_identically_to_the_full_engine() {
        // Scatter-gather's foundation: slice one snapshot into shard
        // engines, fan a request to all of them, merge the globally
        // offset per-shard answers — classes AND score bits must equal
        // the single full engine's. Dense fallback stays off on every
        // engine: the full engine falling back would score neurons no
        // shard retrieves.
        let (direct, data) = tiny_engine(ServeOptions::default());
        let opts = ServeOptions::default()
            .with_top_k(3)
            .with_dense_fallback(false);
        for bytes in [
            direct.network().to_snapshot_bytes(),
            direct.network().to_quantized_snapshot_bytes(),
        ] {
            let full = ServingEngine::from_snapshot_bytes(&bytes, opts).unwrap();
            // The precondition: no output bucket of the full engine ever
            // evicted an id (see `slice_answers_dominate_after_overflow`).
            assert!(!any_bucket_overflowed(&full));
            let slices = slide_core::snapshot::slice_snapshot(&bytes, 3).unwrap();
            let shards: Vec<ServingEngine> = slices
                .iter()
                .map(|s| ServingEngine::from_slice_bytes(s, opts).unwrap())
                .collect();
            let mut offset = 0usize;
            for shard in &shards {
                assert_eq!(shard.class_offset() as usize, offset);
                assert_eq!(shard.total_classes(), full.output_dim());
                assert_eq!(shard.default_top_k(), full.default_top_k());
                offset += shard.output_dim();
            }
            assert_eq!(offset, full.output_dim());
            for ex in data.test.iter().take(20) {
                let want = full.predict(&ex.features).unwrap().topk;
                let mut merged = TopK::new(3);
                for shard in &shards {
                    let p = shard.predict(&ex.features).unwrap();
                    for &(id, score) in p.topk.items() {
                        // Ids already lifted into the global space.
                        assert!((id as usize) < full.output_dim());
                        merged.offer(id, score);
                    }
                }
                merged.finish();
                assert_eq!(merged.to_bits(), want.to_bits());
            }
            // Shards validate k against the FULL width, not their own.
            let f = &data.test.examples()[0].features;
            assert!(shards[0].predict_k(f, full.output_dim()).is_ok());
            assert!(matches!(
                shards[0].predict_k(f, full.output_dim() + 1),
                Err(ServeError::InvalidTopK { .. })
            ));
        }
    }

    fn any_bucket_overflowed(engine: &ServingEngine) -> bool {
        let out = engine.network().layers().last().unwrap();
        out.lsh()
            .unwrap()
            .tables()
            .tables()
            .iter()
            .any(|t| (0..t.num_buckets()).any(|b| t.count(b) as usize > t.capacity()))
    }

    #[test]
    fn slice_answers_dominate_after_overflow() {
        // What holds once a bucket overflows: each shard rebuilds its
        // FIFO buckets over its own range and keeps ids the full table
        // evicted, so the shards retrieve a superset and the merged top-k
        // can only gain items and score; it need not be the full
        // engine's answer.
        let data = generate(&SyntheticConfig::tiny().with_seed(4));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8).with_tables(12, 2))
            .seed(5)
            .build()
            .unwrap();
        let network = Network::new(config).unwrap();
        let opts = ServeOptions::default()
            .with_top_k(5)
            .with_dense_fallback(false);
        let bytes = network.to_snapshot_bytes();
        let full = ServingEngine::from_snapshot_bytes(&bytes, opts).unwrap();
        assert!(any_bucket_overflowed(&full));
        let shards: Vec<ServingEngine> = slide_core::snapshot::slice_snapshot(&bytes, 3)
            .unwrap()
            .iter()
            .map(|s| ServingEngine::from_slice_bytes(s, opts).unwrap())
            .collect();
        let mut differing = 0;
        for ex in data.test.iter().take(40) {
            let want = full.predict(&ex.features).unwrap().topk;
            let mut merged = TopK::new(5);
            for shard in &shards {
                for &(id, score) in shard.predict(&ex.features).unwrap().topk.items() {
                    merged.offer(id, score);
                }
            }
            merged.finish();
            assert!(merged.len() >= want.len());
            for (m, w) in merged.items().iter().zip(want.items()) {
                assert!(m.1 >= w.1, "merged rank scored {} < full {}", m.1, w.1);
            }
            differing += usize::from(merged.to_bits() != want.to_bits());
        }
        assert!(differing > 0, "no input shows the precondition matters");
    }

    #[test]
    fn quantized_snapshot_activates_fused_path() {
        let (direct, data) = tiny_engine(ServeOptions::default().with_top_k(3));
        let qbytes = direct.network().to_quantized_snapshot_bytes();
        let qengine =
            ServingEngine::from_snapshot_bytes(&qbytes, ServeOptions::default().with_top_k(3))
                .unwrap();
        assert!(qengine.quantized_active());
        // f32 snapshots never activate it.
        let fbytes = direct.network().to_snapshot_bytes();
        let fengine = ServingEngine::from_snapshot_bytes(&fbytes, ServeOptions::default()).unwrap();
        assert!(!fengine.quantized_active());
        // The quantized batch path answers and counts like any other.
        let features: Vec<_> = data
            .test
            .iter()
            .take(8)
            .map(|ex| ex.features.clone())
            .collect();
        let preds = qengine.predict_batch(&features).unwrap();
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|p| !p.topk.is_empty()));
        assert_eq!(qengine.stats().requests, 8);
    }

    #[test]
    fn quantized_and_f32_paths_agree_on_dequantized_weights() {
        // Both engines hold the SAME quantized weights — the dequantized
        // codes — one scoring through i16, the other (built without the
        // rows) through the f32 gather kernels. Scores differ only in
        // floating-point rounding, so rankings must agree essentially
        // everywhere.
        let (direct, data) = tiny_engine(ServeOptions::default().with_top_k(1));
        let qbytes = direct.network().to_quantized_snapshot_bytes();
        let q = ServingEngine::from_snapshot_bytes(&qbytes, ServeOptions::default().with_top_k(1))
            .unwrap();
        let dequantized = slide_core::snapshot::read_snapshot_with_centering(&qbytes, Some(true))
            .unwrap()
            .network;
        let f = ServingEngine::new(dequantized, ServeOptions::default().with_top_k(1));
        assert!(q.quantized_active() && !f.quantized_active());
        let features: Vec<_> = data
            .test
            .iter()
            .take(30)
            .map(|ex| ex.features.clone())
            .collect();
        let qp = q.predict_batch(&features).unwrap();
        let fp = f.predict_batch(&features).unwrap();
        let agree = qp
            .iter()
            .zip(&fp)
            .filter(|(a, b)| a.topk.top1() == b.topk.top1())
            .count();
        assert!(
            agree * 10 >= features.len() * 9,
            "{agree}/{}",
            features.len()
        );
    }

    #[test]
    fn single_and_batched_predictions_are_bit_identical() {
        // The cross-connection coalescing front-end relies on this: a
        // single answered alone must equal the same single scored inside
        // an arbitrary micro-batch, down to the score bits, in BOTH the
        // f32 gather path and the fused i16 quantized path.
        let (f32_engine, data) = tiny_engine(ServeOptions::default().with_top_k(3));
        let qbytes = f32_engine.network().to_quantized_snapshot_bytes();
        let q_engine =
            ServingEngine::from_snapshot_bytes(&qbytes, ServeOptions::default().with_top_k(3))
                .unwrap();
        assert!(q_engine.quantized_active());
        let features: Vec<_> = data
            .test
            .iter()
            .take(16)
            .map(|ex| ex.features.clone())
            .collect();
        for engine in [&f32_engine, &q_engine] {
            let batched = engine.predict_batch(&features).unwrap();
            for (f, b) in features.iter().zip(&batched) {
                let single = engine.predict(f).unwrap();
                let s_items = single.topk.items();
                let b_items = b.topk.items();
                assert_eq!(s_items.len(), b_items.len());
                for (s, bb) in s_items.iter().zip(b_items) {
                    assert_eq!(s.0, bb.0, "class mismatch");
                    assert_eq!(s.1.to_bits(), bb.1.to_bits(), "score bits mismatch");
                }
            }
        }
    }

    #[test]
    fn a_huge_input_does_not_disturb_its_batch_neighbours() {
        // The wire accepts any finite value up to f32::MAX; such inputs
        // overflow hidden sums to ±inf and logits to NaN. Their batch
        // must still answer, every neighbour bit-identically to its solo
        // answer, with no panic in the top-k sort.
        let (engine, data) = tiny_engine(ServeOptions::default().with_top_k(5));
        let dim = engine.input_dim() as u32;
        let huge = SparseVector::from_pairs((0..dim).step_by(3).map(|i| (i, f32::MAX)));
        let mut features: Vec<_> = data
            .test
            .iter()
            .take(8)
            .map(|ex| ex.features.clone())
            .collect();
        features.insert(3, huge);
        let solo = engine
            .predict_batch_k(&features[3..4], engine.output_dim())
            .unwrap();
        assert!(
            solo[0].topk.items().iter().any(|&(_, s)| s.is_nan()),
            "the huge input must actually produce NaN logits"
        );
        let batched = engine.predict_batch(&features).unwrap();
        for (f, b) in features.iter().zip(&batched) {
            let single = engine.predict(f).unwrap();
            assert_eq!(b.topk.to_bits(), single.topk.to_bits());
        }
    }

    #[test]
    fn concurrent_predicts_are_safe() {
        let (engine, data) = tiny_engine(ServeOptions::default());
        let engine = std::sync::Arc::new(engine);
        let data = std::sync::Arc::new(data);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let engine = std::sync::Arc::clone(&engine);
                let data = std::sync::Arc::clone(&data);
                std::thread::spawn(move || {
                    for ex in data.test.iter().skip(t * 10).take(10) {
                        let p = engine.predict(&ex.features).unwrap();
                        assert!(!p.topk.is_empty());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.stats().requests, 40);
    }
}
