//! Active-neuron sampling strategies (paper §4.1, Appendix B).
//!
//! After hashing a layer input, SLIDE must turn the `L` matching buckets
//! into a set of active neurons. The paper designs three strategies with
//! different cost/quality trade-offs (Figure 4 / Figure 12):
//!
//! * [`SamplingStrategy::Vanilla`] — probe tables in random order, take
//!   whole buckets until a budget βₗ of distinct neurons is reached;
//!   `O(βₗ)` time, the cheapest, used in the paper's main experiments;
//! * [`SamplingStrategy::TopK`] — aggregate bucket frequencies across all
//!   `L` tables and keep the βₗ most frequent; `O(|N| + |N| log |N|)`;
//! * [`SamplingStrategy::HardThreshold`] — keep every neuron appearing in
//!   at least `m` buckets; skips the sort, quality between the other two.
//!
//! All strategies are one walk over the probed buckets that counts how
//! often each neuron collides — the same walk
//! [`crate::retrieve::retrieve_union`] runs for serving — on a reusable
//! [`SamplerScratch`] whose counters are all zero between calls, so
//! steady-state sampling performs no allocation and costs O(ids visited),
//! never O(layer width) (the "truly O(1) overhead" claim rests on this).
//!
//! In the training engine these strategies sit behind `slide-core`'s
//! `NeuronSelector` abstraction: the LSH selector hashes a layer input,
//! probes the layer's tables and calls [`sample`] to fill the layer's
//! active set. This module stays selector-agnostic — it only turns
//! `(tables, codes, strategy)` into ids.

use slide_data::rng::Rng;

use crate::table::LshTables;

/// Strategy for converting retrieved buckets into an active set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Random tables until `budget` distinct neurons are collected.
    Vanilla {
        /// Target number of active neurons (the paper's βₗ).
        budget: usize,
    },
    /// The `budget` neurons with the highest bucket frequency.
    TopK {
        /// Target number of active neurons.
        budget: usize,
    },
    /// All neurons retrieved at least `min_count` times.
    HardThreshold {
        /// Minimum bucket frequency (the paper's `m`).
        min_count: usize,
    },
}

impl SamplingStrategy {
    /// The target active-set size βₗ, if the strategy has one
    /// (`HardThreshold`'s output size is data-dependent).
    pub fn budget(&self) -> Option<usize> {
        match self {
            SamplingStrategy::Vanilla { budget } | SamplingStrategy::TopK { budget } => {
                Some(*budget)
            }
            SamplingStrategy::HardThreshold { .. } => None,
        }
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::Vanilla { .. } => "vanilla",
            SamplingStrategy::TopK { .. } => "topk",
            SamplingStrategy::HardThreshold { .. } => "hard_threshold",
        }
    }
}

impl std::fmt::Display for SamplingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingStrategy::Vanilla { budget } => write!(f, "vanilla(β={budget})"),
            SamplingStrategy::TopK { budget } => write!(f, "topk(β={budget})"),
            SamplingStrategy::HardThreshold { min_count } => {
                write!(f, "hard_threshold(m={min_count})")
            }
        }
    }
}

/// Reusable per-thread scratch space for [`sample`] and
/// [`crate::retrieve::retrieve_union`]: one `u16` bucket-hit counter per
/// neuron, all zero between calls (each call zeroes exactly the counters
/// it bumped), plus Vanilla's table-order buffer.
#[derive(Debug, Clone)]
pub struct SamplerScratch {
    hits: Vec<u16>,
    table_order: Vec<usize>,
}

impl SamplerScratch {
    /// Creates scratch for a layer of `num_items` neurons.
    pub fn new(num_items: usize) -> Self {
        Self {
            hits: vec![0; num_items],
            table_order: Vec::new(),
        }
    }

    /// Number of neurons this scratch was sized for.
    pub fn num_items(&self) -> usize {
        self.hits.len()
    }

    /// The hit counters, one per neuron.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> &[u16] {
        &self.hits
    }

    /// The bucket walk behind every strategy and
    /// [`crate::retrieve::retrieve_union`]: visits the tables in `order`,
    /// bumps each visited id's saturating counter and writes the id at an
    /// output cursor that advances only on the visit whose count equals
    /// `threshold` (at least 1; above `u16::MAX` acts as `u16::MAX`) — no
    /// data-dependent branch. `out` (cleared first) ends holding each
    /// crossing id once, in crossing order.
    ///
    /// `cap` is checked once per table: the table that reaches it is
    /// finished, so `out` may run past `cap` by part of one bucket.
    /// Returns the number of tables probed. The counters stay bumped for
    /// the caller to read; it then zeroes them with [`Self::zero_ids`]
    /// over the untruncated `out` when `threshold` is 1 (every bumped id
    /// was emitted), or with [`Self::zero_tables`] over the probed tables.
    pub(crate) fn walk(
        &mut self,
        tables: &LshTables,
        codes: &[u32],
        order: impl Iterator<Item = usize>,
        threshold: usize,
        cap: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        out.clear();
        let threshold = u16::try_from(threshold.max(1)).unwrap_or(u16::MAX);
        let mut n = 0;
        let mut probed = 0;
        for t in order {
            if n >= cap {
                break;
            }
            let bucket = tables.bucket(t, codes);
            probed += 1;
            // `out[n..]` is scratch space: a table emits at most its length.
            if out.len() < n + bucket.len() {
                out.resize(n + bucket.len(), 0);
            }
            for &id in bucket {
                let c = &mut self.hits[id as usize];
                *c = c.saturating_add(1);
                out[n] = id;
                n += usize::from(*c == threshold);
            }
        }
        out.truncate(n);
        probed
    }

    /// Zeroes the counters of `ids`.
    pub(crate) fn zero_ids(&mut self, ids: &[u32]) {
        for &id in ids {
            self.hits[id as usize] = 0;
        }
    }

    /// Zeroes the counters of every id in the tables of `order`.
    pub(crate) fn zero_tables(
        &mut self,
        tables: &LshTables,
        codes: &[u32],
        order: impl Iterator<Item = usize>,
    ) {
        for t in order {
            self.zero_ids(tables.bucket(t, codes));
        }
    }
}

/// Samples an active set from `tables` for a query hashed to `codes`
/// (length `K·L`), appending distinct neuron ids to `out`.
///
/// `out` is cleared first. The scratch must be sized for at least the
/// largest neuron id ever inserted into `tables` plus one.
///
/// All three strategies are the bucket walk of
/// [`crate::retrieve::retrieve_union`]: Vanilla over a shuffled table
/// order with threshold 1 and the budget as cap, TopK over every table
/// with threshold 1 followed by a partial selection on the counts, and
/// HardThreshold over every table with threshold `m`.
///
/// # Panics
///
/// Panics if `codes.len() != K·L` or a stored id exceeds the scratch size.
pub fn sample<R: Rng>(
    tables: &LshTables,
    codes: &[u32],
    strategy: SamplingStrategy,
    scratch: &mut SamplerScratch,
    rng: &mut R,
    out: &mut Vec<u32>,
) {
    out.clear();
    let l = tables.num_tables();
    match strategy {
        SamplingStrategy::Vanilla { budget } => {
            if budget == 0 {
                return;
            }
            // Paper: "randomly choose a table and only retrieve the
            // neurons in its corresponding bucket ... continue until βₗ
            // neurons are selected or all the tables have been looked up."
            let mut order = std::mem::take(&mut scratch.table_order);
            order.clear();
            order.extend(0..l);
            rng.shuffle(&mut order);
            scratch.walk(tables, codes, order.iter().copied(), 1, budget, out);
            scratch.table_order = order;
            scratch.zero_ids(out);
            out.truncate(budget);
        }
        SamplingStrategy::TopK { budget } => {
            if budget == 0 {
                return;
            }
            scratch.walk(tables, codes, 0..l, 1, usize::MAX, out);
            if out.len() > budget {
                // Partial selection by descending frequency; id ties
                // broken ascending for determinism.
                let counts = &scratch.hits;
                out.select_nth_unstable_by(budget - 1, |&a, &b| {
                    counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b))
                });
            }
            scratch.zero_ids(out);
            out.truncate(budget);
        }
        SamplingStrategy::HardThreshold { min_count } => {
            scratch.walk(tables, codes, 0..l, min_count, usize::MAX, out);
            scratch.zero_tables(tables, codes, 0..l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InsertionPolicy;
    use crate::table::TableConfig;
    use slide_data::rng::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    /// Builds tables where neuron `id` is inserted into the first
    /// `multiplicity[id]` tables under the query's own codes, so bucket
    /// frequency is exactly controlled.
    fn tables_with_multiplicity(multiplicity: &[usize], l: usize) -> (LshTables, Vec<u32>) {
        let k = 2;
        let config = TableConfig::new(k, l)
            .with_table_bits(8)
            .with_bucket_capacity(64)
            .with_policy(InsertionPolicy::Fifo);
        let mut tables = LshTables::new(config);
        let query_codes: Vec<u32> = vec![1; k * l];
        let mut r = rng(42);
        for (t, table) in tables.tables_mut().iter_mut().enumerate() {
            let b = table.bucket_index(&query_codes[t * k..(t + 1) * k]);
            let ids = (0..multiplicity.len() as u32).filter(|&id| multiplicity[id as usize] > t);
            table.fill(ids.map(|id| (b, id)), InsertionPolicy::Fifo, &mut r);
        }
        (tables, query_codes)
    }

    #[test]
    fn vanilla_respects_budget_and_dedups() {
        let (tables, codes) = tables_with_multiplicity(&[5, 5, 5, 5, 5, 5], 5);
        let mut scratch = SamplerScratch::new(6);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::Vanilla { budget: 3 },
            &mut scratch,
            &mut rng(1),
            &mut out,
        );
        assert_eq!(out.len(), 3);
        let set: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn vanilla_exhausts_tables_when_budget_unreachable() {
        let (tables, codes) = tables_with_multiplicity(&[2, 1], 4);
        let mut scratch = SamplerScratch::new(2);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::Vanilla { budget: 100 },
            &mut scratch,
            &mut rng(2),
            &mut out,
        );
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn topk_selects_most_frequent() {
        // Neuron 0 appears in 6 tables, neuron 1 in 4, neuron 2 in 2.
        let (tables, codes) = tables_with_multiplicity(&[6, 4, 2], 6);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::TopK { budget: 2 },
            &mut scratch,
            &mut rng(3),
            &mut out,
        );
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn topk_returns_all_when_under_budget() {
        let (tables, codes) = tables_with_multiplicity(&[1, 1], 3);
        let mut scratch = SamplerScratch::new(2);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::TopK { budget: 10 },
            &mut scratch,
            &mut rng(4),
            &mut out,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn hard_threshold_filters_by_count() {
        let (tables, codes) = tables_with_multiplicity(&[6, 3, 1], 6);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::HardThreshold { min_count: 3 },
            &mut scratch,
            &mut rng(5),
            &mut out,
        );
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn hard_threshold_min_count_one_takes_union() {
        let (tables, codes) = tables_with_multiplicity(&[1, 2, 3], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        sample(
            &tables,
            &codes,
            SamplingStrategy::HardThreshold { min_count: 1 },
            &mut scratch,
            &mut rng(6),
            &mut out,
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let (tables, codes) = tables_with_multiplicity(&[3, 3], 3);
        let mut scratch = SamplerScratch::new(2);
        let mut out = vec![9, 9, 9];
        for strategy in [
            SamplingStrategy::Vanilla { budget: 0 },
            SamplingStrategy::TopK { budget: 0 },
        ] {
            sample(
                &tables,
                &codes,
                strategy,
                &mut scratch,
                &mut rng(7),
                &mut out,
            );
            assert!(out.is_empty(), "{strategy} returned {out:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        let (tables, codes) = tables_with_multiplicity(&[4, 4, 4], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        for i in 0..100 {
            sample(
                &tables,
                &codes,
                SamplingStrategy::TopK { budget: 3 },
                &mut scratch,
                &mut rng(i),
                &mut out,
            );
            assert_eq!(out.len(), 3, "query {i} leaked state");
        }
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(SamplingStrategy::Vanilla { budget: 5 }.name(), "vanilla");
        assert_eq!(
            SamplingStrategy::HardThreshold { min_count: 2 }.to_string(),
            "hard_threshold(m=2)"
        );
    }

    #[test]
    fn strategy_budgets() {
        assert_eq!(SamplingStrategy::Vanilla { budget: 5 }.budget(), Some(5));
        assert_eq!(SamplingStrategy::TopK { budget: 9 }.budget(), Some(9));
        assert_eq!(
            SamplingStrategy::HardThreshold { min_count: 2 }.budget(),
            None
        );
    }

    /// Map-of-counts reference for [`sample`], written for clarity over
    /// speed: Vanilla replays the shuffle on a clone of the RNG and takes
    /// first-seen ids until the budget; TopK keeps the `budget` ids with
    /// the most hits, ties by ascending id; HardThreshold emits each id
    /// on the visit whose count first equals `m`.
    fn reference_sample(
        tables: &LshTables,
        codes: &[u32],
        strategy: SamplingStrategy,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<u32> {
        let l = tables.num_tables();
        let mut counts = std::collections::BTreeMap::<u32, usize>::new();
        let mut out = Vec::new();
        match strategy {
            SamplingStrategy::Vanilla { budget: 0 } | SamplingStrategy::TopK { budget: 0 } => {}
            SamplingStrategy::Vanilla { budget } => {
                let mut order: Vec<u32> = (0..l as u32).collect();
                rng.shuffle(&mut order);
                'tables: for t in order {
                    for &id in tables.bucket(t as usize, codes) {
                        if counts.insert(id, 1).is_none() {
                            out.push(id);
                            if out.len() == budget {
                                break 'tables;
                            }
                        }
                    }
                }
            }
            SamplingStrategy::TopK { budget } => {
                for t in 0..l {
                    for &id in tables.bucket(t, codes) {
                        *counts.entry(id).or_insert(0) += 1;
                    }
                }
                let mut ranked: Vec<(usize, u32)> =
                    counts.iter().map(|(&id, &c)| (c, id)).collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                out.extend(ranked.iter().take(budget).map(|&(_, id)| id));
            }
            SamplingStrategy::HardThreshold { min_count } => {
                for t in 0..l {
                    for &id in tables.bucket(t, codes) {
                        let c = counts.entry(id).or_insert(0);
                        *c += 1;
                        if *c == min_count.max(1) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        out
    }

    use crate::retrieve::{retrieve_union, QueryBudget};
    use proptest::prelude::*;

    proptest! {
        /// `sample` equals the reference under every strategy on
        /// arbitrary bucket contents — random multiplicities, duplicate
        /// ids in a bucket, FIFO evictions from capacity-2 buckets — with
        /// calls interleaved with `retrieve_union` on one scratch. Vanilla
        /// matches in order and leaves the RNG where the replayed shuffle
        /// does, TopK matches as a set, HardThreshold in crossing order —
        /// as does `retrieve_union` without caps at the same threshold —
        /// and every counter is zero after every call.
        #[test]
        fn prop_sample_matches_reference(
            l in 1usize..7,
            small_buckets in 0u32..2,
            inserts in proptest::collection::vec((0u32..12, 0u32..10), 0..80),
            calls in proptest::collection::vec(((0u32..4, 0usize..12), (0usize..2, 0u64..1000)), 1..8),
        ) {
            let k = 2;
            let config = TableConfig::new(k, l)
                .with_table_bits(4)
                .with_bucket_capacity(if small_buckets == 1 { 2 } else { 64 })
                .with_policy(InsertionPolicy::Fifo);
            let mut tables = LshTables::new(config);
            let queries = [vec![1u32; k * l], vec![2u32; k * l]];
            let mut r = rng(3);
            // `slot` picks the table and which query's bucket; a small id
            // range makes duplicates and multi-table hits the norm.
            for (t, table) in tables.tables_mut().iter_mut().enumerate() {
                let at = [0, 1].map(|q| table.bucket_index(&queries[q][t * k..(t + 1) * k]));
                let mine = inserts.iter().filter(|&&(slot, _)| slot as usize % l == t);
                let entries = mine.map(|&(slot, id)| (at[slot as usize / 6 % 2], id));
                table.fill(entries, InsertionPolicy::Fifo, &mut r);
            }
            let mut scratch = SamplerScratch::new(10);
            let mut out = Vec::new();
            for &((kind, param), (q, seed)) in &calls {
                let codes = &queries[q];
                let strategy = match kind {
                    0 => SamplingStrategy::Vanilla { budget: param },
                    1 => SamplingStrategy::TopK { budget: param },
                    _ => SamplingStrategy::HardThreshold { min_count: param % (l + 2) },
                };
                let mut want_rng = rng(seed);
                let mut want = reference_sample(&tables, codes, strategy, &mut want_rng);
                if kind == 3 {
                    let budget = QueryBudget::all().with_min_collisions(param % (l + 2));
                    retrieve_union(&tables, codes, budget, &mut scratch, &mut out);
                } else {
                    let mut got_rng = rng(seed);
                    sample(&tables, codes, strategy, &mut scratch, &mut got_rng, &mut out);
                    prop_assert!(got_rng == want_rng, "{strategy} drew differently");
                }
                if kind == 1 {
                    out.sort_unstable();
                    want.sort_unstable();
                }
                prop_assert!(out == want, "{strategy}: {out:?} != {want:?}");
                prop_assert!(scratch.hits().iter().all(|&h| h == 0), "{strategy} left counters dirty");
            }
        }
    }
}
