//! Pluggable active-neuron selection: the [`NeuronSelector`] trait and the
//! built-in selectors.
//!
//! The paper's central observation is that SLIDE and the systems it is
//! compared against are the *same* training engine differing only in which
//! neurons each layer activates: LSH adaptive sampling (SLIDE, §4.1), every
//! neuron (full softmax / the TF baselines), or a static uniform sample
//! plus the true labels (sampled softmax, §5.1). This module factors that
//! choice out of [`crate::network::Network`]: the engine asks a selector
//! for an [`ActiveSet`] per layer and then runs the identical sparse
//! forward/backward over it, so new selection policies (top-k retrieval,
//! learned routing, serving-time caches) plug in without touching the
//! engine.
//!
//! Built-ins:
//!
//! * [`LshSelector`] — hash the layer input, probe the layer's `(K, L)`
//!   tables, sample with the layer's [`slide_lsh::SamplingStrategy`]; layers without
//!   LSH machinery run dense (the paper's configuration puts LSH on the
//!   wide output layer only);
//! * [`DenseSelector`] — every neuron in every layer (the full-softmax
//!   baseline and the evaluation path);
//! * [`crate::baseline::StaticSampledSelector`] — static uniform classes
//!   at the output layer.

use slide_data::rng::Xoshiro256PlusPlus;
use slide_data::SparseVector;
use slide_lsh::sampling::{sample, SamplerScratch};

use crate::layer::Layer;

/// The set of neurons a layer activates for one example.
///
/// A thin newtype over `Vec<u32>` so the engine's contract ("forward and
/// backward touch exactly these neurons") is explicit in signatures.
/// Dereferences to `[u32]` for reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    ids: Vec<u32>,
}

impl ActiveSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The active neuron ids, in activation order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Removes all ids, keeping the allocation.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Adds one neuron id (no deduplication).
    pub fn push(&mut self, id: u32) {
        self.ids.push(id);
    }

    /// Whether `id` is already active (linear scan; active sets are small
    /// by design).
    pub fn contains(&self, id: u32) -> bool {
        self.ids.contains(&id)
    }

    /// Activates every neuron of a layer of `units` neurons, in order.
    pub fn fill_dense(&mut self, units: usize) {
        self.ids.clear();
        self.ids.extend(0..units as u32);
    }

    /// The underlying vector, for selector implementations that fill it
    /// through APIs taking `&mut Vec<u32>` (e.g. [`sample`]).
    pub fn as_vec_mut(&mut self) -> &mut Vec<u32> {
        &mut self.ids
    }
}

impl std::ops::Deref for ActiveSet {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ids
    }
}

impl Extend<u32> for ActiveSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        self.ids.extend(iter);
    }
}

/// Everything a selector may look at when choosing a layer's active set.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// Index of the layer being selected for (0 = first hidden layer).
    pub layer_index: usize,
    /// Whether this is the output (softmax) layer.
    pub is_output: bool,
    /// The layer itself (units, LSH state, weights).
    pub layer: &'a Layer,
    /// The network input (the layer input when `prev` is `None`).
    pub features: &'a SparseVector,
    /// Previous layer's `(active ids, activations)`, `None` at layer 0.
    pub prev: Option<(&'a [u32], &'a [f32])>,
    /// True labels during training, `None` at inference. The engine — not
    /// the selector — forces these into the output active set when
    /// [`NeuronSelector::force_label_activation`] says so.
    pub labels: Option<&'a [u32]>,
}

/// Per-thread mutable state shared by all selectors, owned by a
/// [`crate::network::Workspace`] and reused across examples, batches and
/// epochs (steady-state selection performs no allocation).
///
/// The fields cover the built-in selectors; custom selectors can stash
/// extra state in [`SelectorScratch::ext`].
#[derive(Debug)]
pub struct SelectorScratch {
    /// Hash-code buffer per layer (empty for layers without LSH).
    pub codes: Vec<Vec<u32>>,
    /// Sampling scratch per layer (`None` for layers without LSH).
    pub samplers: Vec<Option<SamplerScratch>>,
    /// Deterministic per-workspace RNG stream.
    pub rng: Xoshiro256PlusPlus,
    /// Reusable pair buffer for building LSH queries.
    pub query_pairs: Vec<(u32, f32)>,
    /// Reusable query vector (previous layer's activations as input).
    pub query: SparseVector,
    /// Extension slot for selectors needing state not covered by the
    /// fields above (e.g. the static sampled-softmax selector keeps its
    /// Floyd-sampling set here).
    pub ext: Option<Box<dyn std::any::Any + Send>>,
}

impl SelectorScratch {
    /// Builds scratch sized for `layers`, with RNG stream `seed`.
    pub fn new(layers: &[Layer], seed: u64) -> Self {
        let mut codes = Vec::with_capacity(layers.len());
        let mut samplers = Vec::with_capacity(layers.len());
        for layer in layers {
            match layer.lsh() {
                Some(lsh) => {
                    codes.push(vec![0u32; lsh.family().num_codes()]);
                    samplers.push(Some(SamplerScratch::new(layer.units())));
                }
                None => {
                    codes.push(Vec::new());
                    samplers.push(None);
                }
            }
        }
        Self {
            codes,
            samplers,
            rng: Xoshiro256PlusPlus::seed_from_u64(0x570C_1D3A ^ seed),
            query_pairs: Vec::new(),
            query: SparseVector::new(),
            ext: None,
        }
    }
}

/// Strategy for choosing each layer's active neurons — the axis along
/// which one engine becomes the paper's three systems.
///
/// Implementations must be stateless across examples (shared `&self`
/// between worker threads); all per-example mutable state lives in the
/// [`SelectorScratch`].
pub trait NeuronSelector: Send + Sync + std::fmt::Debug {
    /// Short name used in reports and experiment output.
    fn name(&self) -> &'static str;

    /// Fills `active` with the ids of the neurons to activate. `active`
    /// arrives cleared.
    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    );

    /// Whether the engine must force the true labels into the output
    /// layer's active set during training so the loss is defined.
    /// Selectors that always activate every output neuron return `false`.
    fn force_label_activation(&self) -> bool {
        true
    }

    /// Whether the trainer should run the hash-table rebuild schedule
    /// between batches (LSH selectors only).
    fn maintains_tables(&self) -> bool {
        false
    }
}

/// Hashes a layer's input into `scratch.codes[ctx.layer_index]`: the raw
/// features at layer 0, a sparse query rebuilt from the previous layer's
/// `(ids, activations)` otherwise.
///
/// This is the **shared hashing entry point**: every code that later
/// probes a layer's tables is produced here, through the mode-aware
/// `hash_*_mode` family methods, with the mode taken from the layer.
/// `rebuild_tables` hashes weight rows through `hash_dense_rows_mode`,
/// which is bit-identical to `hash_dense_mode` row by row, so the
/// vectorized kernels can never diverge from what the tables were built
/// with.
///
/// When the previous layer ran fully dense in order, the activation
/// slice *is* the dense input and can be hashed via the dense path,
/// which for SimHash runs the blocked plane-per-lane kernel instead of
/// a per-nonzero coefficient lookup (an order of magnitude cheaper).
/// Training-time selection takes it automatically whenever the family
/// guarantees bit-identical sparse/dense codes
/// ([`slide_lsh::HashFamily::dense_exact`], true for SimHash); for
/// families with value-dependent tie-breaks (DWTA bins full of tied
/// zeros) only callers that pass `dense_fast_path` opt into the
/// approximation (the inference selector does).
pub fn hash_layer_input(
    lsh: &crate::layer::LayerLsh,
    ctx: &SelectionContext<'_>,
    scratch: &mut SelectorScratch,
    dense_fast_path: bool,
) {
    let mode = ctx.layer.kernel_mode();
    let mut codes = std::mem::take(&mut scratch.codes[ctx.layer_index]);
    match ctx.prev {
        None => lsh
            .family()
            .hash_sparse_mode(ctx.features, &mut codes, mode),
        Some((ids, acts)) => {
            let dense_identity = (dense_fast_path || lsh.family().dense_exact())
                && ids.len() == ctx.layer.fan_in()
                && ids.iter().enumerate().all(|(i, &id)| id as usize == i);
            if dense_identity {
                lsh.family().hash_dense_mode(acts, &mut codes, mode);
            } else {
                scratch
                    .query_pairs
                    .extend(ids.iter().copied().zip(acts.iter().copied()));
                scratch.query.refill_from_pairs(&mut scratch.query_pairs);
                lsh.family()
                    .hash_sparse_mode(&scratch.query, &mut codes, mode);
            }
        }
    }
    scratch.codes[ctx.layer_index] = codes;
}

/// Probes the layer's tables with the codes left by [`hash_layer_input`]
/// and samples the active set with the layer's strategy — the second half
/// of [`LshSelector::select`], public so instrumented callers (the
/// `hot_path` bench's phase timer) can time hashing and probing
/// separately without forking the selection logic.
pub fn probe_tables(
    lsh: &crate::layer::LayerLsh,
    ctx: &SelectionContext<'_>,
    scratch: &mut SelectorScratch,
    active: &mut ActiveSet,
) {
    let sampler = scratch.samplers[ctx.layer_index]
        .as_mut()
        .expect("lsh layer has sampler scratch");
    sample(
        lsh.tables(),
        &scratch.codes[ctx.layer_index],
        lsh.strategy(),
        sampler,
        &mut scratch.rng,
        active.as_vec_mut(),
    );
}

/// SLIDE's selector: LSH adaptive sampling on layers carrying hash
/// tables, dense selection elsewhere (paper Alg. 1 lines 9–11, Alg. 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct LshSelector;

impl NeuronSelector for LshSelector {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    ) {
        let Some(lsh) = ctx.layer.lsh() else {
            active.fill_dense(ctx.layer.units());
            return;
        };
        // Hash the layer input and sample from the tables (Alg. 2).
        hash_layer_input(lsh, ctx, scratch, false);
        probe_tables(lsh, ctx, scratch, active);
    }

    fn maintains_tables(&self) -> bool {
        true
    }
}

/// Full-dense selection: every neuron active in every layer — the
/// full-softmax baseline (TF-CPU/GPU stand-in) and the evaluation path.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseSelector;

impl NeuronSelector for DenseSelector {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        _scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    ) {
        active.fill_dense(ctx.layer.units());
    }

    /// Labels are always active in a dense pass.
    fn force_label_activation(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_basics() {
        let mut a = ActiveSet::new();
        assert!(a.is_empty());
        a.push(3);
        a.extend([5, 7]);
        assert_eq!(a.ids(), &[3, 5, 7]);
        assert!(a.contains(5));
        assert!(!a.contains(4));
        a.fill_dense(4);
        assert_eq!(a.ids(), &[0, 1, 2, 3]);
        assert_eq!(a.len(), 4);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn selector_objects_are_usable_dyn() {
        let selectors: Vec<Box<dyn NeuronSelector>> =
            vec![Box::new(LshSelector), Box::new(DenseSelector)];
        assert_eq!(selectors[0].name(), "lsh");
        assert!(selectors[0].maintains_tables());
        assert!(selectors[0].force_label_activation());
        assert_eq!(selectors[1].name(), "dense");
        assert!(!selectors[1].maintains_tables());
        assert!(!selectors[1].force_label_activation());
    }
}
