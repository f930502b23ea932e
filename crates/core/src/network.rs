//! The sparse execution engine: selector-agnostic forward pass, sparse
//! message-passing backpropagation, and HOGWILD parameter updates (paper
//! §3.1, Alg. 1).
//!
//! The engine never decides *which* neurons run — a
//! [`NeuronSelector`] fills an [`ActiveSet`] per layer and the engine
//! computes forward and backward over exactly those neurons. SLIDE, the
//! full-softmax baseline and sampled softmax are the same [`Network`]
//! under different selectors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;
use slide_data::{Dataset, SparseVector};

use crate::config::{Activation, NetworkConfig};
use crate::error::ConfigError;
use crate::layer::Layer;
use crate::selector::{
    ActiveSet, DenseSelector, NeuronSelector, SelectionContext, SelectorScratch,
};

/// Per-thread scratch for one example's forward/backward pass.
///
/// Mirrors the paper's per-neuron activation/gradient arrays indexed by
/// batch slot (§3.1): each thread owns one workspace, so "the gradient
/// computation is independent across different instances in the batch".
/// All buffers (including the selector scratch) are reused across
/// examples; steady-state training performs no allocation here.
#[derive(Debug)]
pub struct Workspace {
    /// Active neurons per layer.
    pub(crate) active: Vec<ActiveSet>,
    /// Activation per active neuron, parallel to `active`.
    pub(crate) acts: Vec<Vec<f32>>,
    /// Error signal per active neuron, parallel to `active`.
    pub(crate) deltas: Vec<Vec<f32>>,
    /// Selection state (hash-code buffers, sampler scratch, RNG).
    pub(crate) scratch: SelectorScratch,
}

impl Workspace {
    /// Active output neurons of the last forward pass (ids, probability),
    /// for inspecting predictions.
    pub fn output(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        let last = self.active.len() - 1;
        self.active[last]
            .ids()
            .iter()
            .copied()
            .zip(self.acts[last].iter().copied())
    }

    /// Number of active neurons per layer in the last pass.
    pub fn active_counts(&self) -> Vec<usize> {
        self.active.iter().map(|a| a.len()).collect()
    }

    /// The active set of layer `l` in the last pass.
    pub fn active_set(&self, l: usize) -> &ActiveSet {
        &self.active[l]
    }

    /// The activations of layer `l` in the last pass, parallel to
    /// [`Workspace::active_set`].
    pub fn activations(&self, l: usize) -> &[f32] {
        &self.acts[l]
    }

    /// The selection scratch (for custom selectors and tests).
    pub fn scratch_mut(&mut self) -> &mut SelectorScratch {
        &mut self.scratch
    }
}

/// A lock-protected free list of [`Workspace`]s, shared by the worker
/// threads of a training run so workspaces are created once and reused
/// across examples, batches and epochs (the tentpole of the "no
/// per-example heap allocation in the hot loop" claim).
///
/// With pooling disabled it degrades to fresh allocation per checkout —
/// kept as a mode so tests can prove pooling is behavior-neutral.
#[derive(Debug)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    next_seed: AtomicU64,
    base_seed: u64,
    pooled: bool,
}

impl WorkspacePool {
    /// Creates a pool whose workspaces draw RNG streams
    /// `base_seed, base_seed + 1, …` in checkout order.
    pub fn new(base_seed: u64, pooled: bool) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            next_seed: AtomicU64::new(base_seed),
            base_seed,
            pooled,
        }
    }

    /// Checks a workspace out of the pool (or builds one for `network`).
    /// The workspace returns to the pool when the guard drops.
    pub fn acquire<'p>(&'p self, network: &Network) -> PooledWorkspace<'p> {
        let ws = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| network.workspace(self.next_seed.fetch_add(1, Ordering::Relaxed)));
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
        }
    }

    /// Workspaces created over the pool's lifetime.
    pub fn created(&self) -> u64 {
        self.next_seed.load(Ordering::Relaxed) - self.base_seed
    }
}

/// Checkout guard for a pooled [`Workspace`]; dereferences to it.
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    ws: Option<Workspace>,
    pool: &'p WorkspacePool,
}

impl PooledWorkspace<'_> {
    /// Drops the workspace instead of returning it to the pool, for a
    /// caller that caught a panic mid-use and so cannot vouch for its
    /// state; the pool's next checkout builds a fresh one.
    pub fn discard(mut self) {
        self.ws = None;
    }
}

impl std::ops::Deref for PooledWorkspace<'_> {
    type Target = Workspace;

    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if self.pool.pooled {
            if let Some(ws) = self.ws.take() {
                self.pool
                    .free
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(ws);
            }
        }
    }
}

/// Whether layer `li` of an `n`-layer network stores its weights
/// input-major: the first layer reads the sparse input, so each example
/// touches one contiguous row per feature id, unless it is also the
/// output layer, whose rows serving retrieves and scores by class.
fn stores_input_major(li: usize, n: usize) -> bool {
    li == 0 && n > 1
}

/// The network: layers plus the shared optimizer step counter.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    layers: Vec<Layer>,
    step: AtomicU64,
}

impl Network {
    /// Builds the network: initializes weights, constructs hash families
    /// and performs the initial table build (paper: "this construction of
    /// LSH hash tables in each layer is a one-time operation").
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(config: NetworkConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = slide_data::rng::Xoshiro256PlusPlus::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.layers.len());
        let mut fan_in = config.input_dim;
        for (li, layer_cfg) in config.layers.iter().enumerate() {
            layers.push(Layer::new(
                fan_in,
                layer_cfg,
                config.kernel_mode,
                &mut rng,
                stores_input_major(li, config.layers.len()),
            ));
            fan_in = layer_cfg.units;
        }
        Ok(Self {
            config,
            layers,
            step: AtomicU64::new(0),
        })
    }

    /// The network a snapshot restore fills in: every layer's weights
    /// zeroed and its hash tables not yet built, with the hash families
    /// drawn from exactly the RNG positions [`Network::new`] draws them
    /// from. Each layer advances the RNG past the Glorot draws
    /// [`Network::new`] would make (one per weight) in O(log n) instead
    /// of making them, and its tables count that skipped initial build,
    /// so the one build after the weights are installed inserts from the
    /// RNG stream of [`Network::new`]'s second build.
    ///
    /// With `init_output_units` set, the output layer advances as if it
    /// had that many neurons: a snapshot *slice* holds only a shard's rows
    /// of a wider layer, and its family must land where the full
    /// network's did, or the shard's codes would diverge from the
    /// unsharded engine's.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub(crate) fn for_restore(
        config: NetworkConfig,
        init_output_units: Option<usize>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = slide_data::rng::Xoshiro256PlusPlus::seed_from_u64(config.seed);
        let n = config.layers.len();
        let mut layers = Vec::with_capacity(n);
        let mut fan_in = config.input_dim;
        for (li, layer_cfg) in config.layers.iter().enumerate() {
            let init_units = match init_output_units {
                Some(units) if li + 1 == n => units,
                _ => layer_cfg.units,
            };
            // Counted in u128: a crafted slice width cannot overflow it.
            rng.advance(init_units as u128 * fan_in as u128);
            let layer = Layer::zeroed(
                fan_in,
                layer_cfg,
                config.kernel_mode,
                stores_input_major(li, n),
            );
            layers.push(layer.with_lsh(layer_cfg, &mut rng, 1));
            fan_in = layer_cfg.units;
        }
        Ok(Self {
            config,
            layers,
            step: AtomicU64::new(0),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The layers, input-to-output.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (rebuilds, inspection).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Switches every LSH layer to centered (or raw) row hashing and
    /// rebuilds the affected tables. No-op for layers already in the
    /// requested mode. Returns the number of layers rebuilt.
    ///
    /// Centering preserves each layer's score ranking (see
    /// [`crate::config::LshLayerConfig::center_rows`]); the serving
    /// engine calls this on load because retrieval quality at inference
    /// depends on it, while training defaults to the paper's raw-row
    /// hashing.
    pub fn set_lsh_centering(&mut self, on: bool) -> usize {
        let mut rebuilt = 0;
        for (layer, cfg) in self.layers.iter_mut().zip(&mut self.config.layers) {
            let needs = matches!(layer.lsh(), Some(lsh) if lsh.centered() != on);
            if needs {
                if let Some(lsh_cfg) = &mut cfg.lsh {
                    lsh_cfg.center_rows = on;
                }
                layer.set_centered(on);
                layer.rebuild_tables();
                rebuilt += 1;
            }
        }
        rebuilt
    }

    /// Output dimension (classes).
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("validated nonempty").units()
    }

    /// Optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step.load(Ordering::Relaxed)
    }

    /// Starts one optimizer step (one batch): bumps the shared step
    /// counter and returns the bias-corrected Adam step size.
    pub fn begin_step(&self) -> f32 {
        let t = self.step.fetch_add(1, Ordering::Relaxed) + 1;
        self.config.adam.corrected_lr(t)
    }

    /// Allocates a per-thread workspace. The workspace carries scratch
    /// for every built-in selector, so one workspace serves training and
    /// dense evaluation alike.
    pub fn workspace(&self, seed: u64) -> Workspace {
        let n = self.layers.len();
        Workspace {
            active: vec![ActiveSet::new(); n],
            acts: vec![Vec::new(); n],
            deltas: vec![Vec::new(); n],
            scratch: SelectorScratch::new(&self.layers, seed),
        }
    }

    /// Fills `ws.active[l]` for layer `l`: asks the selector, then (for
    /// the output layer during training) forces the true labels in so the
    /// loss is defined, unless the selector opts out via
    /// [`NeuronSelector::force_label_activation`]. Layers `< l` must
    /// already hold this example's state.
    pub(crate) fn select_layer(
        &self,
        l: usize,
        selector: &dyn NeuronSelector,
        ws: &mut Workspace,
        features: &SparseVector,
        labels: Option<&[u32]>,
    ) {
        let layer = &self.layers[l];
        let is_output = l == self.layers.len() - 1;
        let mut active = std::mem::take(&mut ws.active[l]);
        active.clear();
        {
            let prev = if l == 0 {
                None
            } else {
                Some((ws.active[l - 1].ids(), ws.acts[l - 1].as_slice()))
            };
            let ctx = SelectionContext {
                layer_index: l,
                is_output,
                layer,
                features,
                prev,
                labels,
            };
            selector.select(&ctx, &mut ws.scratch, &mut active);
        }
        if is_output && selector.force_label_activation() {
            if let Some(labels) = labels {
                for &label in labels {
                    if !active.contains(label) {
                        active.push(label);
                    }
                }
            }
        }
        ws.active[l] = active;
    }

    /// Computes `ws.acts[l]` over the already-selected `ws.active[l]`:
    /// one fused [`slide_kernels::gather_dot`] per active neuron (next
    /// row prefetched in vectorized mode) — or, for an input-major layer,
    /// one [`slide_kernels::gather_dot_input_major`] pass over the input
    /// rows — then the nonlinearity.
    pub(crate) fn compute_layer(&self, l: usize, ws: &mut Workspace, features: &SparseVector) {
        let layer = &self.layers[l];
        let active = std::mem::take(&mut ws.active[l]);
        let mut acts = std::mem::take(&mut ws.acts[l]);
        acts.clear();
        acts.resize(active.len(), 0.0);
        {
            let (prev_ids, prev_vals): (&[u32], &[f32]) = if l == 0 {
                (features.indices(), features.values())
            } else {
                (ws.active[l - 1].ids(), &ws.acts[l - 1])
            };
            let mode = self.config.kernel_mode;
            if layer.input_major() {
                layer.input_major_z(prev_ids, prev_vals, active.ids(), &mut acts, mode);
            } else {
                for (slot, &j) in active.ids().iter().enumerate() {
                    if mode == slide_kernels::KernelMode::Vectorized {
                        if let Some(&next) = active.ids().get(slot + 1) {
                            layer.prefetch_row(next);
                        }
                    }
                    acts[slot] = layer.neuron_z(j, prev_ids, prev_vals, mode);
                }
            }
        }
        match layer.activation() {
            Activation::Relu => slide_kernels::relu_in_place(&mut acts, self.config.kernel_mode),
            Activation::Softmax => {
                slide_kernels::softmax_in_place(&mut acts, self.config.kernel_mode)
            }
        }
        ws.active[l] = active;
        ws.acts[l] = acts;
    }

    /// Runs selection + computation for layers `[0, upto)` — the shared
    /// prefix of [`Network::forward`] and the batched inference path,
    /// which stops before the output layer to score it differently.
    pub(crate) fn forward_prefix(
        &self,
        upto: usize,
        selector: &dyn NeuronSelector,
        ws: &mut Workspace,
        features: &SparseVector,
        labels: Option<&[u32]>,
    ) {
        for l in 0..upto {
            self.select_layer(l, selector, ws, features, labels);
            self.compute_layer(l, ws, features);
        }
    }

    /// Sparse forward pass (paper Alg. 1 lines 9–13): `selector` picks
    /// each layer's active set, the engine computes pre-activations and
    /// nonlinearities over it. Returns the cross-entropy loss when
    /// `labels` are supplied (training) or 0.0 otherwise.
    ///
    /// During training the true labels are forced into the output active
    /// set (as in the reference SLIDE implementation) unless the selector
    /// opts out via [`NeuronSelector::force_label_activation`].
    pub fn forward(
        &self,
        selector: &dyn NeuronSelector,
        ws: &mut Workspace,
        features: &SparseVector,
        labels: Option<&[u32]>,
    ) -> f32 {
        let n = self.layers.len();
        self.forward_prefix(n, selector, ws, features, labels);

        // Cross-entropy against the uniform distribution over the true
        // labels (multi-label extreme classification).
        match labels {
            Some(labels) if !labels.is_empty() => {
                let last = n - 1;
                let y = 1.0 / labels.len() as f32;
                let mut loss = 0.0f32;
                for (&j, &p) in ws.active[last].ids().iter().zip(&ws.acts[last]) {
                    if labels.binary_search(&j).is_ok() {
                        loss -= y * p.max(1e-30).ln();
                    }
                }
                loss
            }
            _ => 0.0,
        }
    }

    /// Sparse backpropagation with immediate asynchronous updates (paper
    /// Alg. 1 lines 14–16; §3.1 "Sparse Backpropagation or Gradient
    /// Update"). Must be called right after [`Network::forward`] with the
    /// same workspace and labels; it touches exactly the active sets the
    /// forward pass recorded, so it is selector-agnostic by construction.
    ///
    /// `corrected_lr` comes from [`Network::begin_step`].
    pub fn backward(
        &self,
        ws: &mut Workspace,
        features: &SparseVector,
        labels: &[u32],
        corrected_lr: f32,
    ) {
        let n = self.layers.len();
        let adam = &self.config.adam;

        // Output delta: ∂CE/∂z = p − y over the active set.
        {
            let last = n - 1;
            let y = if labels.is_empty() {
                0.0
            } else {
                1.0 / labels.len() as f32
            };
            let active = &ws.active[last];
            let acts = &ws.acts[last];
            let deltas = &mut ws.deltas[last];
            deltas.clear();
            deltas.resize(active.len(), 0.0);
            for (slot, (&j, &p)) in active.ids().iter().zip(acts.iter()).enumerate() {
                let target = if labels.binary_search(&j).is_ok() {
                    y
                } else {
                    0.0
                };
                deltas[slot] = p - target;
            }
        }

        // Layer-by-layer message passing, touching only active neurons and
        // the weights connecting them ("we never access any non-active
        // neuron or any non-active weight").
        for l in (0..n).rev() {
            let layer = &self.layers[l];
            // Split the workspace around layer l so we can read layer
            // l−1's state while writing its delta.
            let (below, at) = ws.deltas.split_at_mut(l);
            let delta_l = &at[0];
            let mut prev_delta = if l > 0 {
                std::mem::take(&mut below[l - 1])
            } else {
                Vec::new()
            };

            let (prev_ids, prev_vals): (&[u32], &[f32]) = if l == 0 {
                (features.indices(), features.values())
            } else {
                (ws.active[l - 1].ids(), &ws.acts[l - 1])
            };
            if l > 0 {
                prev_delta.clear();
                prev_delta.resize(prev_ids.len(), 0.0);
            }

            // One fused sweep per active neuron: gather the row's
            // pre-update weights for the error message to layer l−1 and
            // apply the Adam step in the same pass (loads w/m/v once per
            // touched weight instead of the old per-pair accessor loop).
            // An input-major layer (the first, so no message to send)
            // sweeps once per input row instead.
            let mode = self.config.kernel_mode;
            let active_ids = ws.active[l].ids();
            if layer.input_major() {
                for (&j, &d) in active_ids.iter().zip(delta_l) {
                    if d != 0.0 {
                        layer.update_bias(j, d, adam, corrected_lr);
                    }
                }
                layer.update_input_major(
                    prev_ids,
                    prev_vals,
                    active_ids,
                    delta_l,
                    adam,
                    corrected_lr,
                    mode,
                );
            } else {
                for (slot, &j) in active_ids.iter().enumerate() {
                    let d = delta_l[slot];
                    if d == 0.0 {
                        continue;
                    }
                    if mode == slide_kernels::KernelMode::Vectorized {
                        if let Some(&next) = active_ids.get(slot + 1) {
                            layer.prefetch_update_row(next);
                        }
                    }
                    layer.update_bias(j, d, adam, corrected_lr);
                    let pd = if l > 0 {
                        Some(&mut prev_delta[..])
                    } else {
                        None
                    };
                    layer.update_row(j, prev_ids, prev_vals, d, pd, adam, corrected_lr, mode);
                }
            }

            if l > 0 {
                // ReLU gate: zero the error where the unit was inactive.
                for (pd, &a) in prev_delta.iter_mut().zip(&ws.acts[l - 1]) {
                    if a <= 0.0 {
                        *pd = 0.0;
                    }
                }
                below[l - 1] = prev_delta;
            }
        }
    }

    /// Forward + backward for one training example. Returns the loss.
    pub fn train_example(
        &self,
        selector: &dyn NeuronSelector,
        ws: &mut Workspace,
        features: &SparseVector,
        labels: &[u32],
        corrected_lr: f32,
    ) -> f32 {
        let loss = self.forward(selector, ws, features, Some(labels));
        self.backward(ws, features, labels, corrected_lr);
        loss
    }

    /// Selector-driven inference for one example: runs a label-free
    /// forward pass under `selector` and reduces the output layer's active
    /// set to the `out.k()` best classes in place — no per-example
    /// allocation, no label leakage.
    ///
    /// This is the serving path's entry point: with
    /// [`crate::inference::InferenceSelector`] the output layer is scored
    /// over the LSH bucket union only (sub-linear in the class count);
    /// with [`DenseSelector`] it degrades to exact full scoring. `out` is
    /// reset first and sorted best-first on return.
    pub fn predict_topk<S: NeuronSelector>(
        &self,
        selector: &S,
        ws: &mut Workspace,
        features: &SparseVector,
        out: &mut crate::inference::TopK,
    ) {
        self.forward(selector, ws, features, None);
        let last = self.layers.len() - 1;
        out.reset(out.k());
        for (&id, &p) in ws.active[last].ids().iter().zip(&ws.acts[last]) {
            out.offer(id, p);
        }
        out.finish();
    }

    /// Full dense scoring of one example, written into `probs` (cleared
    /// first; indexed by class id). The evaluation path for callers that
    /// need every logit; prefer [`Network::predict_topk`] when only the
    /// ranking matters.
    pub fn predict_logits_into(
        &self,
        ws: &mut Workspace,
        features: &SparseVector,
        probs: &mut Vec<f32>,
    ) {
        self.forward(&DenseSelector, ws, features, None);
        let last = self.layers.len() - 1;
        probs.clear();
        probs.extend_from_slice(&ws.acts[last]);
    }

    /// Full dense scoring of one example: the logit of every output class.
    /// Allocates a fresh vector per call — use
    /// [`Network::predict_logits_into`] in loops.
    pub fn predict_logits(&self, ws: &mut Workspace, features: &SparseVector) -> Vec<f32> {
        let mut probs = Vec::new();
        self.predict_logits_into(ws, features, &mut probs);
        probs
    }

    /// Top-1 class of one example under full dense scoring: argmax in
    /// place over the workspace's output activations, no clone.
    pub fn predict_top1(&self, ws: &mut Workspace, features: &SparseVector) -> u32 {
        self.forward(&DenseSelector, ws, features, None);
        let last = self.layers.len() - 1;
        let mut best = 0usize;
        let acts = &ws.acts[last];
        for (i, &p) in acts.iter().enumerate().skip(1) {
            if p > acts[best] {
                best = i;
            }
        }
        // Dense selection activates class ids 0..units in order, so the
        // winning slot *is* the class id.
        ws.active[last].ids().get(best).copied().unwrap_or(0)
    }

    /// Mean P@1 over (at most `max_examples` of) a dataset, parallelized
    /// over examples with one dense-scoring workspace per worker.
    pub fn evaluate(&self, dataset: &Dataset, max_examples: usize) -> f64 {
        let n = dataset.len().min(max_examples);
        if n == 0 {
            return 0.0;
        }
        let hits: usize = dataset.examples()[..n]
            .par_iter()
            .map_init(
                || self.workspace(0xEA11),
                |ws, ex| {
                    let top = self.predict_top1(ws, &ex.features);
                    ex.labels.binary_search(&top).is_ok() as usize
                },
            )
            .sum();
        hits as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::StaticSampledSelector;
    use crate::config::{LshLayerConfig, NetworkConfig};
    use crate::selector::LshSelector;
    use slide_data::rng::{Rng, Xoshiro256PlusPlus};
    use slide_data::synth::{generate, SyntheticConfig};

    fn tiny_network(lsh: bool, seed: u64) -> Network {
        let b = NetworkConfig::builder(64, 40).hidden(16).seed(seed);
        let b = if lsh {
            b.output_lsh(
                LshLayerConfig::simhash(3, 8)
                    .with_strategy(slide_lsh::SamplingStrategy::Vanilla { budget: 12 }),
            )
        } else {
            b
        };
        Network::new(b.build().unwrap()).unwrap()
    }

    fn example(seed: u64) -> (SparseVector, Vec<u32>) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let features = SparseVector::from_pairs(
            (0..8).map(|_| (rng.gen_range(0, 64) as u32, rng.next_f32() + 0.1)),
        );
        let labels = vec![rng.gen_range(0, 40) as u32];
        (features, labels)
    }

    #[test]
    fn dense_forward_activates_everything() {
        let net = tiny_network(false, 1);
        let mut ws = net.workspace(1);
        let (x, y) = example(2);
        let loss = net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        assert_eq!(ws.active_counts(), vec![16, 40]);
        assert!(loss > 0.0);
        // Softmax output sums to 1.
        let total: f32 = ws.acts[1].iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn lsh_forward_is_sparse_and_contains_labels() {
        let net = tiny_network(true, 3);
        let mut ws = net.workspace(2);
        let (x, y) = example(4);
        net.forward(&LshSelector, &mut ws, &x, Some(&y));
        let counts = ws.active_counts();
        assert_eq!(counts[0], 16, "hidden layer is dense");
        assert!(
            counts[1] < 40,
            "output layer must be sparse, got {counts:?}"
        );
        for label in &y {
            assert!(
                ws.active_set(1).contains(*label),
                "label missing from active set"
            );
        }
    }

    #[test]
    fn static_sample_selector_respects_count() {
        let net = tiny_network(false, 5);
        let mut ws = net.workspace(3);
        let (x, y) = example(6);
        net.forward(&StaticSampledSelector::new(10), &mut ws, &x, Some(&y));
        let out = ws.active_counts()[1];
        assert!((10..=11).contains(&out), "got {out} active outputs");
    }

    #[test]
    fn inference_does_not_leak_labels() {
        let net = tiny_network(true, 7);
        let mut ws = net.workspace(4);
        let (x, _) = example(8);
        net.forward(&LshSelector, &mut ws, &x, None);
        // Without labels the active set is purely LSH-sampled; just check
        // it is within budget + no crash.
        assert!(ws.active_counts()[1] <= 13);
    }

    #[test]
    fn backward_changes_touched_weights_only() {
        let net = tiny_network(true, 9);
        let mut ws = net.workspace(5);
        let (x, y) = example(10);
        net.forward(&LshSelector, &mut ws, &x, Some(&y));
        let active_out: Vec<u32> = ws.active_set(1).ids().to_vec();
        let inactive: Vec<u32> = (0..40u32).filter(|j| !active_out.contains(j)).collect();
        assert!(!inactive.is_empty());

        let out_layer = &net.layers()[1];
        let before_inactive: Vec<f32> = inactive
            .iter()
            .map(|&j| out_layer.weights().get(j as usize, 0))
            .collect();
        let label_bias_before = out_layer.biases().get(y[0] as usize);

        let clr = net.begin_step();
        net.backward(&mut ws, &x, &y, clr);

        for (&j, &before) in inactive.iter().zip(&before_inactive) {
            assert_eq!(
                out_layer.weights().get(j as usize, 0),
                before,
                "inactive neuron {j} was touched"
            );
        }
        // The label neuron's delta is p − 1/|labels| ≠ 0, so its bias
        // must move.
        assert_ne!(out_layer.biases().get(y[0] as usize), label_bias_before);
    }

    #[test]
    fn training_reduces_loss_on_fixed_example() {
        let net = tiny_network(false, 11);
        let mut ws = net.workspace(6);
        let (x, y) = example(12);
        let first = net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        for _ in 0..300 {
            let clr = net.begin_step();
            net.train_example(&DenseSelector, &mut ws, &x, &y, clr);
        }
        let last = net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn lsh_training_reduces_loss_too() {
        let net = tiny_network(true, 13);
        let mut ws = net.workspace(7);
        let (x, y) = example(14);
        let first = net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        for _ in 0..60 {
            let clr = net.begin_step();
            net.train_example(&LshSelector, &mut ws, &x, &y, clr);
        }
        let last = net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn evaluate_beats_chance_after_training() {
        let data = generate(&SyntheticConfig::tiny().with_seed(5));
        let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(24)
            .learning_rate(2e-3)
            .seed(21)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        let mut ws = net.workspace(8);
        for _epoch in 0..3 {
            for ex in data.train.iter() {
                let clr = net.begin_step();
                net.train_example(&DenseSelector, &mut ws, &ex.features, &ex.labels, clr);
            }
        }
        let p1 = net.evaluate(&data.test, 100);
        // Chance ≈ 1/50 = 2%; trained must be far above.
        assert!(p1 > 0.2, "P@1 {p1} too low");
    }

    #[test]
    fn steps_counter_increments() {
        let net = tiny_network(false, 15);
        assert_eq!(net.steps(), 0);
        let _ = net.begin_step();
        let _ = net.begin_step();
        assert_eq!(net.steps(), 2);
    }

    #[test]
    fn workspace_output_iterator() {
        let net = tiny_network(false, 17);
        let mut ws = net.workspace(9);
        let (x, y) = example(18);
        net.forward(&DenseSelector, &mut ws, &x, Some(&y));
        let out: Vec<(u32, f32)> = ws.output().collect();
        assert_eq!(out.len(), 40);
        let total: f32 = out.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn predict_topk_dense_matches_predict_top1() {
        let net = tiny_network(false, 23);
        let mut ws = net.workspace(10);
        let mut topk = crate::inference::TopK::new(3);
        for seed in 0..10 {
            let (x, _) = example(100 + seed);
            net.predict_topk(&DenseSelector, &mut ws, &x, &mut topk);
            let top1 = net.predict_top1(&mut ws, &x);
            assert_eq!(topk.top1(), Some(top1));
            assert_eq!(topk.len(), 3);
            // Best-first ordering.
            for w in topk.items().windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn predict_logits_into_reuses_buffer() {
        let net = tiny_network(false, 25);
        let mut ws = net.workspace(11);
        let (x, _) = example(26);
        let owned = net.predict_logits(&mut ws, &x);
        let mut buf = vec![42.0; 3];
        net.predict_logits_into(&mut ws, &x, &mut buf);
        assert_eq!(owned, buf);
        assert_eq!(buf.len(), 40);
    }

    #[test]
    fn inference_selector_retrieves_without_labels() {
        use crate::inference::InferenceSelector;
        let net = tiny_network(true, 27);
        let mut ws = net.workspace(12);
        let mut topk = crate::inference::TopK::new(2);
        let (x, _) = example(28);
        let sel = InferenceSelector::default();
        net.predict_topk(&sel, &mut ws, &x, &mut topk);
        // Hidden layer dense, output layer from the bucket union (or the
        // dense fallback) — either way a prediction comes back.
        assert_eq!(ws.active_counts()[0], 16);
        assert!(topk.top1().is_some());
        // Deterministic: a second identical query returns identical items.
        let mut again = crate::inference::TopK::new(2);
        net.predict_topk(&sel, &mut ws, &x, &mut again);
        assert_eq!(topk.items(), again.items());
    }

    #[test]
    fn inference_selector_dense_fallback_toggles() {
        use crate::inference::InferenceSelector;
        use slide_lsh::QueryBudget;
        let net = tiny_network(true, 29);
        let mut ws = net.workspace(13);
        let (x, _) = example(30);
        // A zero-table probe budget can retrieve nothing; with the
        // fallback off the output set may be empty, with it on the layer
        // runs dense.
        let starved = InferenceSelector::new(QueryBudget::all().with_max_tables(1))
            .with_dense_fallback(false);
        net.forward(&starved, &mut ws, &x, None);
        let sparse_count = ws.active_counts()[1];
        assert!(sparse_count < 40, "budgeted retrieval must stay sparse");
        let covered = InferenceSelector::new(QueryBudget::all());
        net.forward(&covered, &mut ws, &x, None);
        assert!(ws.active_counts()[1] >= sparse_count);
    }

    #[test]
    fn workspace_pool_reuses_workspaces() {
        let net = tiny_network(false, 19);
        let pool = WorkspacePool::new(0, true);
        {
            let _a = pool.acquire(&net);
            let _b = pool.acquire(&net);
        }
        // Both returned; the next two checkouts create nothing new.
        {
            let _a = pool.acquire(&net);
            let _b = pool.acquire(&net);
        }
        assert_eq!(pool.created(), 2);

        let fresh = WorkspacePool::new(0, false);
        {
            let _a = fresh.acquire(&net);
        }
        {
            let _a = fresh.acquire(&net);
        }
        assert_eq!(fresh.created(), 2, "unpooled mode must not reuse");
    }

    #[test]
    fn a_discarded_workspace_is_not_reused() {
        let net = tiny_network(false, 19);
        let pool = WorkspacePool::new(0, true);
        pool.acquire(&net).discard();
        assert_eq!(pool.created(), 1);
        drop(pool.acquire(&net));
        drop(pool.acquire(&net));
        assert_eq!(pool.created(), 2, "only the discarded one is rebuilt");
    }
}
