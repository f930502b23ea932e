//! The inference-side selector stack: label-free LSH retrieval and
//! in-place top-k reduction over the active set.
//!
//! Training and inference want different things from neuron selection.
//! Training randomizes (the Vanilla strategy probes tables in random
//! order) and force-activates the true labels so the loss is defined.
//! Inference must do neither: [`InferenceSelector`] hashes the layer input
//! exactly like [`crate::selector::LshSelector`] but retrieves the
//! *deterministic bucket union* under a configurable [`QueryBudget`]
//! (paper §2: the retrieved union is the candidate set for adaptive
//! dropout), never leaks labels, and falls back to dense selection on
//! layers without tables — or, optionally, when retrieval comes back
//! empty, so a serving path always produces a prediction.
//!
//! [`TopK`] is the matching reduction: a fixed-capacity accumulator that
//! turns the output layer's `(active ids, activations)` into the k
//! highest-scoring classes without cloning the activation vector or
//! allocating per example.

use slide_lsh::retrieve::{retrieve_union, QueryBudget};

use crate::network::{Network, Workspace};
use crate::quant::QuantizedRows;
use crate::selector::{ActiveSet, NeuronSelector, SelectionContext, SelectorScratch};

/// Inference-time neuron selection: deterministic LSH bucket-union
/// retrieval on layers with tables, dense elsewhere, no label forcing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceSelector {
    budget: QueryBudget,
    dense_fallback: bool,
}

impl Default for InferenceSelector {
    fn default() -> Self {
        Self::new(QueryBudget::all())
    }
}

impl InferenceSelector {
    /// Creates a selector retrieving under `budget`, with the dense
    /// fallback for empty retrievals enabled.
    pub fn new(budget: QueryBudget) -> Self {
        Self {
            budget,
            dense_fallback: true,
        }
    }

    /// The probe budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// Enables/disables dense scoring of a layer whose retrieval returned
    /// no candidates (default on: serving must always answer). Disable to
    /// measure pure-retrieval quality.
    pub fn with_dense_fallback(mut self, enabled: bool) -> Self {
        self.dense_fallback = enabled;
        self
    }

    /// Whether the empty-retrieval dense fallback is enabled.
    pub fn dense_fallback(&self) -> bool {
        self.dense_fallback
    }
}

impl NeuronSelector for InferenceSelector {
    fn name(&self) -> &'static str {
        "inference"
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
        // Hash the layer input; inference opts into the dense fast path
        // (hash_dense over a fully-dense previous layer's activations).
        crate::selector::hash_layer_input(lsh, ctx, scratch, true);
        let sampler = scratch.samplers[ctx.layer_index]
            .as_mut()
            .expect("lsh layer has sampler scratch");
        retrieve_union(
            lsh.tables(),
            &scratch.codes[ctx.layer_index],
            self.budget,
            sampler,
            active.as_vec_mut(),
        );
        if active.is_empty() && self.dense_fallback {
            active.fill_dense(ctx.layer.units());
        }
    }

    /// Inference never injects labels.
    fn force_label_activation(&self) -> bool {
        false
    }
}

/// Reusable scratch for [`Network::predict_topk_batch`]: hidden
/// activations of one group of at most 64 examples, and per output class
/// the mask of the examples that retrieved it. All buffers keep their
/// capacity across batches, so a long-lived caller (a serving worker)
/// performs no steady-state allocation beyond occasional growth.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Last-hidden activations, example-major (`group × fan_in`).
    hidden: Vec<f32>,
    /// Per output class, bit `e` set iff example `e` of the group owns
    /// it. All zero between groups: scoring a row clears its mask.
    owners: Vec<u64>,
    /// One bit per class some example of the group owns: the rows the
    /// fused pass visits, in id order (a degenerate retrieval sets whole
    /// words, bits past the layer included). All zero between groups.
    seen: Vec<u64>,
}

/// Examples per fused group: one bit each in a class's owner mask.
const GROUP: usize = u64::BITS as usize;

/// How [`Network::predict_topk_batch`] executed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    /// Whether the fused owner-masked scoring ran (`false`: the batch
    /// fell back to per-example [`Network::predict_topk`], because the
    /// network has no hidden layer or a selector left the hidden basis
    /// non-dense).
    pub shared: bool,
    /// Distinct classes retrieved by the examples whose retrieval did
    /// not degenerate, summed over the batch's 64-input groups (0 when
    /// not shared): the rows the fused path scores, unless a group holds
    /// a [`BatchReport::dense_examples`] example and scores every row.
    pub candidates: usize,
    /// `(example, candidate)` pairs of the examples whose retrieval did
    /// not degenerate: the sum of their own candidate counts (0 when not
    /// shared). The fused pass scores exactly these pairs, plus the
    /// whole output layer once per [`BatchReport::dense_examples`]
    /// example.
    pub own_pairs: usize,
    /// Examples whose own candidate set was the entire output layer
    /// (retrieval fell back to dense scoring). They own every row, which
    /// costs their own `classes` pairs and no other example's.
    pub dense_examples: usize,
}

impl Network {
    /// Batched inference over examples that share one workspace: runs the
    /// per-example hidden prefix and output-layer selection as usual,
    /// then scores each retrieved output row with one fused
    /// [`slide_kernels::gather_dot_batch`] pass against **exactly the
    /// examples that retrieved it** — each weight row streams through
    /// the cache once for all its owners instead of once per example, and
    /// no `(row, example)` pair an answer does not read is computed.
    /// Batches of more than 64 inputs run as consecutive groups of at
    /// most 64 (one bit per example in a row's owner mask).
    ///
    /// Every example's top-k is reduced over its **own** candidate
    /// set, scored as **raw pre-softmax logits** (the serving wire
    /// contract). Softmax is strictly monotone per example, so rankings
    /// match post-activation reduction exactly — but unlike softmax
    /// probabilities, a class's raw logit does not depend on which other
    /// candidates were retrieved, which is what lets a sharded deployment
    /// merge per-shard top-k results bit-identically to one engine.
    /// Batching is an execution detail, not a semantic one: a score's
    /// bits do not depend on which other examples share its row.
    ///
    /// Requires a dense hidden basis (every hidden layer fully active in
    /// id order — true for [`InferenceSelector`] and
    /// [`crate::selector::DenseSelector`], whose dense layers fill in
    /// order); otherwise, or for single-layer networks, the batch falls
    /// back to per-example prediction. See the returned [`BatchReport`].
    ///
    /// An example whose retrieval degenerates to the whole output layer
    /// (the dense fallback) owns every row, so it pays its own
    /// `O(classes)` scoring cost and no other example's.
    ///
    /// # Panics
    ///
    /// Panics if `batch` and `outs` lengths differ.
    pub fn predict_topk_batch<S, B>(
        &self,
        selector: &S,
        ws: &mut Workspace,
        scratch: &mut BatchScratch,
        batch: &[B],
        outs: &mut [TopK],
    ) -> BatchReport
    where
        S: NeuronSelector,
        B: std::borrow::Borrow<slide_data::SparseVector>,
    {
        self.predict_topk_batch_impl(selector, ws, scratch, batch, outs, None)
    }

    /// [`Network::predict_topk_batch`] scoring the output layer through
    /// its **quantized rows**: the fused phase runs
    /// [`slide_kernels::dot_batch_q16`] over `qout`'s i16 codes instead
    /// of gathering f32 weight rows, halving the bytes each candidate
    /// row streams through the cache. Biases stay on the layer (f32).
    ///
    /// `qout` is typically the [`crate::snapshot::LoadedSnapshot::quantized`]
    /// rows of a quantized snapshot; the loader dequantizes the same
    /// codes into the network's f32 weights, so the per-example fallback
    /// paths (no hidden layer, non-dense hidden basis) score identical
    /// values through the f32 kernels.
    ///
    /// # Panics
    ///
    /// Panics if `batch` and `outs` lengths differ or `qout`'s shape
    /// does not match the output layer.
    pub fn predict_topk_batch_quantized<S, B>(
        &self,
        selector: &S,
        ws: &mut Workspace,
        scratch: &mut BatchScratch,
        batch: &[B],
        outs: &mut [TopK],
        qout: &QuantizedRows,
    ) -> BatchReport
    where
        S: NeuronSelector,
        B: std::borrow::Borrow<slide_data::SparseVector>,
    {
        let last = self.layers().len() - 1;
        let out_layer = &self.layers()[last];
        assert_eq!(qout.units(), out_layer.units(), "quantized units mismatch");
        assert_eq!(
            qout.fan_in(),
            out_layer.fan_in(),
            "quantized fan-in mismatch"
        );
        self.predict_topk_batch_impl(selector, ws, scratch, batch, outs, Some(qout))
    }

    fn predict_topk_batch_impl<S, B>(
        &self,
        selector: &S,
        ws: &mut Workspace,
        scratch: &mut BatchScratch,
        batch: &[B],
        outs: &mut [TopK],
        qout: Option<&QuantizedRows>,
    ) -> BatchReport
    where
        S: NeuronSelector,
        B: std::borrow::Borrow<slide_data::SparseVector>,
    {
        assert_eq!(batch.len(), outs.len(), "batch/outs length mismatch");
        let mut report = BatchReport {
            shared: true,
            candidates: 0,
            own_pairs: 0,
            dense_examples: 0,
        };
        if batch.is_empty() {
            return report;
        }
        let last = self.layers().len() - 1;
        if last == 0 {
            // No hidden layer: the "shared" input basis would be each
            // example's own sparse features.
            return self.predict_topk_batch_fallback(selector, ws, batch, outs);
        }
        let units = self.output_dim();
        let out_layer = &self.layers()[last];
        let h = out_layer.fan_in();
        let mode = self.config().kernel_mode;
        let words = units.div_ceil(64);
        if scratch.owners.len() < units {
            scratch.owners.resize(units, 0);
            scratch.seen.resize(words, 0);
        }
        let BatchScratch {
            hidden,
            owners,
            seen,
        } = scratch;
        for start in (0..batch.len()).step_by(GROUP) {
            let group = &batch[start..batch.len().min(start + GROUP)];
            // Phase 1: per-example hidden prefix + output selection,
            // setting the example's bit in the owner mask of every class
            // it retrieved.
            hidden.clear();
            hidden.resize(group.len() * h, 0.0);
            let mut dense = 0u64;
            for (e, x) in group.iter().enumerate() {
                let x = x.borrow();
                self.forward_prefix(last, selector, ws, x, None);
                let hidden_active = ws.active_set(last - 1);
                let dense_identity = hidden_active.len() == h
                    && hidden_active
                        .ids()
                        .iter()
                        .enumerate()
                        .all(|(i, &id)| id as usize == i);
                if !dense_identity {
                    owners[..units].fill(0);
                    seen[..words].fill(0);
                    return self.predict_topk_batch_fallback(selector, ws, batch, outs);
                }
                hidden[e * h..(e + 1) * h].copy_from_slice(ws.activations(last - 1));
                self.select_layer(last, selector, ws, x, None);
                let active = ws.active_set(last);
                let bit = 1u64 << e;
                if active.len() == units {
                    // Degenerate retrieval: the example owns every row.
                    dense |= bit;
                    owners[..units].iter_mut().for_each(|o| *o |= bit);
                    seen[..words].fill(u64::MAX);
                    continue;
                }
                report.own_pairs += active.len();
                for &c in active.ids() {
                    owners[c as usize] |= bit;
                    seen[c as usize / 64] |= 1 << (c % 64);
                }
            }
            report.dense_examples += dense.count_ones() as usize;

            // Phase 2: in id order, score each owned row against exactly
            // its owners and offer each raw pre-activation straight to
            // that owner's top-k, clearing the row's mask. No
            // nonlinearity: serving scores are the raw logits (softmax is
            // monotone per example, so rankings are unchanged, and raw
            // logits — unlike softmax probabilities — do not depend on the
            // candidate set, so shards merge exactly). `beats` is a strict
            // total order, so offer order does not change any top-k.
            // Quantized rows stream i16 codes (half the bytes) through
            // `dot_batch_q16`; f32 rows go through `gather_dot_batch`.
            let outs = &mut outs[start..start + group.len()];
            for out in outs.iter_mut() {
                out.reset(out.k());
            }
            let mut z = [0.0f32; GROUP];
            let z = &mut z[..group.len()];
            for (w, word) in seen[..words].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if c >= units {
                        break;
                    }
                    let mask = std::mem::take(&mut owners[c]);
                    report.candidates += (mask & !dense != 0) as usize;
                    let bias = out_layer.biases().get(c);
                    match qout {
                        Some(q) => slide_kernels::dot_batch_q16(
                            q.row(c),
                            q.scale(c),
                            h,
                            hidden,
                            mask,
                            bias,
                            z,
                            mode,
                        ),
                        None => slide_kernels::gather_dot_batch(
                            out_layer.weights().row(c),
                            h,
                            hidden,
                            mask,
                            bias,
                            z,
                            mode,
                        ),
                    }
                    let mut m = mask;
                    while m != 0 {
                        let e = m.trailing_zeros() as usize;
                        outs[e].offer(c as u32, z[e]);
                        m &= m - 1;
                    }
                }
            }
            for out in outs.iter_mut() {
                out.finish();
            }
        }
        report
    }

    /// Per-example serving fallback (no hidden layer, or a selector left
    /// the hidden basis non-dense): runs the forward prefix and output
    /// selection as usual, then scores each active class's **raw logit**
    /// directly — the same score definition as the fused path, so which
    /// path a deployment lands on never changes the wire contract.
    fn predict_topk_batch_fallback<S, B>(
        &self,
        selector: &S,
        ws: &mut Workspace,
        batch: &[B],
        outs: &mut [TopK],
    ) -> BatchReport
    where
        S: NeuronSelector,
        B: std::borrow::Borrow<slide_data::SparseVector>,
    {
        let last = self.layers().len() - 1;
        let units = self.output_dim();
        let out_layer = &self.layers()[last];
        let mode = self.config().kernel_mode;
        let mut dense_examples = 0usize;
        for (x, out) in batch.iter().zip(outs.iter_mut()) {
            let x = x.borrow();
            self.forward_prefix(last, selector, ws, x, None);
            self.select_layer(last, selector, ws, x, None);
            let active = ws.active_set(last);
            if active.len() == units {
                dense_examples += 1;
            }
            out.reset(out.k());
            if last == 0 {
                for &c in active.ids() {
                    out.offer(c, out_layer.neuron_z(c, x.indices(), x.values(), mode));
                }
            } else {
                let prev_ids = ws.active_set(last - 1).ids();
                let prev_vals = ws.activations(last - 1);
                for &c in active.ids() {
                    out.offer(c, out_layer.neuron_z(c, prev_ids, prev_vals, mode));
                }
            }
            out.finish();
        }
        BatchReport {
            shared: false,
            candidates: 0,
            own_pairs: 0,
            dense_examples,
        }
    }
}

/// Fixed-capacity top-k accumulator over `(class, score)` pairs.
///
/// Fill with [`TopK::offer`] while scanning an active set, then
/// [`TopK::finish`] to sort. Reused across examples: [`TopK::reset`]
/// keeps the allocation. Ordering is score-descending with ties broken by
/// ascending class id, matching `slide_data::metrics`' determinism; a NaN
/// score ranks below every number.
#[derive(Debug, Clone)]
pub struct TopK {
    items: Vec<(u32, f32)>,
    k: usize,
    /// Index of the worst kept item, valid once `items.len() == k`: a
    /// candidate that does not beat it is rejected with one comparison.
    worst: usize,
}

/// Equality is the kept items and `k`; the cached worst index is a
/// function of the items.
impl PartialEq for TopK {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.items == other.items
    }
}

/// `(id, score)` ordering: higher score wins, ties go to the smaller id.
/// NaN ranks below every number (±inf included) and NaNs tie among
/// themselves, broken by id — a strict total order on distinct ids, so
/// the reduction is insensitive to offer order and the sort in
/// [`TopK::finish`] always sees a consistent comparator.
#[inline]
fn beats(a: (u32, f32), b: (u32, f32)) -> bool {
    if a.1 > b.1 {
        return true;
    }
    if a.1 == b.1 {
        return a.0 < b.0;
    }
    if a.1 < b.1 {
        return false;
    }
    // Unordered: at least one side is NaN.
    match (a.1.is_nan(), b.1.is_nan()) {
        (false, _) => true,
        (true, false) => false,
        (true, true) => a.0 < b.0,
    }
}

impl TopK {
    /// An empty accumulator for the `k` best classes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            items: Vec::with_capacity(k),
            k,
            worst: 0,
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clears accumulated items, keeping the allocation; optionally
    /// changes `k`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.items.clear();
        self.items.reserve(k);
        self.k = k;
        self.worst = 0;
    }

    /// Offers one candidate; kept iff it beats the current k-th best.
    /// O(1) when it does not; a replacement rescans the k kept items.
    #[inline]
    pub fn offer(&mut self, id: u32, score: f32) {
        if self.items.len() < self.k {
            self.items.push((id, score));
            if self.items.len() == self.k {
                self.worst = self.find_worst();
            }
        } else if beats((id, score), self.items[self.worst]) {
            self.items[self.worst] = (id, score);
            self.worst = self.find_worst();
        }
    }

    /// Index of the worst kept item (the last one, among equals).
    fn find_worst(&self) -> usize {
        let mut worst = 0;
        for (i, &it) in self.items.iter().enumerate().skip(1) {
            if beats(self.items[worst], it) {
                worst = i;
            }
        }
        worst
    }

    /// Sorts the kept items best-first. Call once after the offer loop.
    pub fn finish(&mut self) {
        self.items.sort_unstable_by(|&a, &b| {
            if beats(a, b) {
                std::cmp::Ordering::Less
            } else if beats(b, a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        if self.items.len() == self.k {
            self.worst = self.find_worst();
        }
    }

    /// The kept `(class, score)` pairs (best-first after [`TopK::finish`]).
    pub fn items(&self) -> &[(u32, f32)] {
        &self.items
    }

    /// The best class, if any candidate was offered.
    pub fn top1(&self) -> Option<u32> {
        self.items.first().map(|&(id, _)| id)
    }

    /// Number of kept items (≤ k; fewer if fewer were offered).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing was offered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Shifts every kept class id by `offset` — how a shard serving the
    /// neuron range `[offset, offset + units)` of a partitioned output
    /// layer maps its local ids into the global class space before its
    /// results leave the process.
    pub fn offset_ids(&mut self, offset: u32) {
        // A uniform shift keeps every id comparison, so `worst` holds.
        for item in &mut self.items {
            item.0 += offset;
        }
    }

    /// The kept `(class, score-bits)` pairs — the exact form bit-identity
    /// tests and the cluster bench compare, since two `f32`s are "the
    /// same answer" here only when their bit patterns match.
    pub fn to_bits(&self) -> Vec<(u32, u32)> {
        self.items
            .iter()
            .map(|&(id, s)| (id, s.to_bits()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_best_and_sorts() {
        let mut t = TopK::new(3);
        for (id, s) in [(0u32, 0.1f32), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.2)] {
            t.offer(id, s);
        }
        t.finish();
        assert_eq!(t.items(), &[(1, 0.9), (3, 0.7), (2, 0.5)]);
        assert_eq!(t.top1(), Some(1));
    }

    #[test]
    fn topk_ties_break_by_ascending_id() {
        let mut t = TopK::new(2);
        for (id, s) in [(5u32, 0.5f32), (2, 0.5), (9, 0.5)] {
            t.offer(id, s);
        }
        t.finish();
        assert_eq!(t.items(), &[(2, 0.5), (5, 0.5)]);
    }

    #[test]
    fn topk_underfull_returns_what_it_saw() {
        let mut t = TopK::new(10);
        t.offer(3, 0.4);
        t.offer(1, 0.6);
        t.finish();
        assert_eq!(t.items(), &[(1, 0.6), (3, 0.4)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn topk_reset_reuses_allocation() {
        let mut t = TopK::new(2);
        t.offer(1, 1.0);
        t.finish();
        t.reset(3);
        assert!(t.is_empty());
        assert_eq!(t.k(), 3);
        t.offer(4, 0.5);
        t.finish();
        assert_eq!(t.top1(), Some(4));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn inference_selector_flags() {
        let s = InferenceSelector::default();
        assert_eq!(s.name(), "inference");
        assert!(!s.force_label_activation());
        assert!(!s.maintains_tables());
        assert!(s.dense_fallback());
        let s = s.with_dense_fallback(false);
        assert!(!s.dense_fallback());
    }

    #[test]
    fn offset_ids_maps_into_global_class_space() {
        let mut t = TopK::new(2);
        t.offer(0, 0.5);
        t.offer(3, 0.9);
        t.finish();
        t.offset_ids(100);
        assert_eq!(t.items(), &[(103, 0.9), (100, 0.5)]);
    }

    /// Sort-then-truncate reference over a std `Ordering`: scores
    /// descending, ties by ascending id, every NaN after every number.
    fn reference_topk(items: &[(u32, f32)], k: usize) -> Vec<(u32, u32)> {
        let mut sorted = items.to_vec();
        sorted.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (false, false) => b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)),
            (nan_a, nan_b) => nan_a.cmp(&nan_b).then(a.0.cmp(&b.0)),
        });
        sorted.truncate(k);
        sorted
            .into_iter()
            .map(|(id, s)| (id, s.to_bits()))
            .collect()
    }

    #[test]
    fn topk_ranks_nan_last_and_never_panics() {
        // k = 64 mixes of finite, infinite and NaN scores (both NaN
        // signs): `finish` must sort them without a comparator panic and
        // keep exactly the reference's items.
        use slide_data::rng::{Rng, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(64);
        let palette = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        for _ in 0..2_000 {
            let n = rng.gen_range(64, 128);
            let mut ids: Vec<u32> = (0..n as u32 * 2).collect();
            rng.shuffle(&mut ids);
            let items: Vec<(u32, f32)> = ids[..n]
                .iter()
                .map(|&id| {
                    let s = match rng.gen_range(0, 4) {
                        0 => palette[rng.gen_range(0, palette.len())],
                        _ => rng.gen_range(0, 16) as f32 - 8.0,
                    };
                    (id, s)
                })
                .collect();
            let mut t = TopK::new(64);
            for &(id, s) in &items {
                t.offer(id, s);
            }
            t.finish();
            assert_eq!(t.to_bits(), reference_topk(&items, 64));
        }
        let mut t = TopK::new(3);
        for (id, s) in [
            (4u32, f32::NAN),
            (1, -1.0),
            (2, f32::NAN),
            (3, f32::NEG_INFINITY),
        ] {
            t.offer(id, s);
        }
        t.finish();
        let ids: Vec<u32> = t.items().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 2], "numbers first, then NaNs by id");
    }

    #[test]
    fn batch_report_counts_own_candidate_pairs() {
        use crate::config::{LshLayerConfig, NetworkConfig};
        use slide_data::synth::{generate, SyntheticConfig};
        let data = generate(&SyntheticConfig::tiny().with_seed(3));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(2)
            .build()
            .unwrap();
        let net = Network::new(config).unwrap();
        let selector = InferenceSelector::new(QueryBudget::all().with_min_collisions(2))
            .with_dense_fallback(false);
        let mut ws = net.workspace(1);
        let batch: Vec<_> = data.test.iter().take(12).map(|ex| &ex.features).collect();
        let mut own = 0;
        let mut single = TopK::new(3);
        for &x in &batch {
            net.predict_topk(&selector, &mut ws, x, &mut single);
            own += ws.active_set(net.layers().len() - 1).len();
        }
        let mut outs = vec![TopK::new(3); batch.len()];
        let report = net.predict_topk_batch(
            &selector,
            &mut ws,
            &mut BatchScratch::default(),
            &batch,
            &mut outs,
        );
        assert!(report.shared);
        assert_eq!(report.own_pairs, own);
        assert!(report.candidates <= report.own_pairs);
        assert!(report.own_pairs <= report.candidates * batch.len());
    }

    use proptest::prelude::*;

    proptest! {
        /// `TopK` (O(1) rejects against a cached worst) equals sorting
        /// everything and truncating, for any k and any offer order, with
        /// heavy ties, ±0, ±inf and NaN in the mix.
        #[test]
        fn prop_topk_equals_sort_then_truncate(
            k in 1usize..12,
            items in proptest::collection::btree_map(0u32..48, 0u32..9, 0..40),
            rotate in 0usize..40,
        ) {
            let levels = [f32::NAN, f32::NEG_INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, f32::MAX, f32::INFINITY];
            let mut items: Vec<(u32, f32)> =
                items.into_iter().map(|(id, l)| (id, levels[l as usize])).collect();
            let rotate = rotate % items.len().max(1);
            items.rotate_left(rotate);
            let mut t = TopK::new(k);
            for &(id, s) in &items {
                t.offer(id, s);
            }
            t.finish();
            prop_assert_eq!(t.to_bits(), reference_topk(&items, k));
        }
    }

    proptest! {
        /// The scatter-gather reduction's load-bearing invariant: for ANY
        /// contiguous partition of the class space into shards, merging
        /// the per-shard `TopK` results — in ANY shard arrival order —
        /// equals one global `TopK` over the union, down to the score
        /// bits. Holds because `beats` is a strict total order (ties
        /// break on ascending id), so the reduction is order-insensitive,
        /// and every global top-k element is necessarily in its own
        /// shard's top-k. Scores are drawn from a tiny set to force heavy
        /// ties.
        #[test]
        fn prop_sharded_topk_merge_equals_global(
            n in 1usize..6,
            k in 1usize..8,
            items in proptest::collection::btree_map(0u32..64, 0u32..4, 1..40),
        ) {
            let items: Vec<(u32, f32)> = items
                .into_iter()
                .map(|(id, lvl)| (id, lvl as f32 * 0.5 - 1.0))
                .collect();
            let mut global = TopK::new(k);
            for &(id, s) in &items {
                global.offer(id, s);
            }
            global.finish();

            // Contiguous shard ranges over the 64-wide id space.
            let mut shards: Vec<TopK> = Vec::new();
            for s in 0..n {
                let (lo, hi) = (s as u32 * 64 / n as u32, (s as u32 + 1) * 64 / n as u32);
                let mut t = TopK::new(k);
                for &(id, score) in items.iter().filter(|&&(id, _)| id >= lo && id < hi) {
                    t.offer(id, score);
                }
                t.finish();
                shards.push(t);
            }

            // Merge forward and reversed: arrival order must not matter.
            for reversed in [false, true] {
                let mut merged = TopK::new(k);
                let order: Vec<&TopK> = if reversed {
                    shards.iter().rev().collect()
                } else {
                    shards.iter().collect()
                };
                for shard in order {
                    for &(id, s) in shard.items() {
                        merged.offer(id, s);
                    }
                }
                merged.finish();
                prop_assert_eq!(merged.to_bits(), global.to_bits());
            }
        }
    }
}
