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
//! All strategies use a reusable [`SamplerScratch`] so steady-state
//! sampling performs no allocation (the "truly O(1) overhead" claim rests
//! on this).
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

/// Reusable per-thread scratch space for sampling.
///
/// Uses the *epoch stamping* trick: instead of clearing a counter array
/// between queries, each query bumps an epoch and treats stale stamps as
/// zero. Reset cost is O(1) per query regardless of the number of neurons.
#[derive(Debug, Clone)]
pub struct SamplerScratch {
    /// Stamp of the query that last touched each neuron.
    stamp: Vec<u32>,
    /// Bucket frequency of each neuron within the current query.
    counts: Vec<u16>,
    /// Neurons touched by the current query.
    touched: Vec<u32>,
    /// Table visit order (for vanilla's random probing).
    table_order: Vec<u32>,
    epoch: u32,
    /// Per-neuron bucket hits for [`crate::retrieve::retrieve_union`]:
    /// all zero between calls (each call re-zeroes exactly the entries it
    /// bumped), sized on first use so training-only scratch never pays.
    /// `u16` like `counts`: half the cache footprint of `u32`.
    hits: Vec<u16>,
}

impl SamplerScratch {
    /// Creates scratch for a layer of `num_items` neurons.
    pub fn new(num_items: usize) -> Self {
        Self {
            stamp: vec![0; num_items],
            counts: vec![0; num_items],
            touched: Vec::new(),
            table_order: Vec::new(),
            epoch: 0,
            hits: Vec::new(),
        }
    }

    /// Number of neurons this scratch was sized for.
    pub fn num_items(&self) -> usize {
        self.stamp.len()
    }

    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: invalidate everything once per 2^32
            // queries.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    #[inline]
    pub(crate) fn bump(&mut self, id: u32) -> u16 {
        let i = id as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.counts[i] = 1;
            self.touched.push(id);
            1
        } else {
            self.counts[i] = self.counts[i].saturating_add(1);
            self.counts[i]
        }
    }

    /// The all-zero hit counters, one per neuron.
    pub(crate) fn hits(&mut self) -> &mut [u16] {
        if self.hits.len() < self.stamp.len() {
            self.hits.resize(self.stamp.len(), 0);
        }
        &mut self.hits
    }
}

/// Samples an active set from `tables` for a query hashed to `codes`
/// (length `K·L`), appending distinct neuron ids to `out`.
///
/// `out` is cleared first. The scratch must be sized for at least the
/// largest neuron id ever inserted into `tables` plus one.
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
    scratch.begin();
    let l = tables.num_tables();
    match strategy {
        SamplingStrategy::Vanilla { budget } => {
            if budget == 0 {
                return;
            }
            // Paper: "randomly choose a table and only retrieve the
            // neurons in its corresponding bucket ... continue until βₗ
            // neurons are selected or all the tables have been looked up."
            scratch.table_order.clear();
            scratch.table_order.extend(0..l as u32);
            // Reuse `touched` indirectly: shuffle the order buffer.
            let mut order = std::mem::take(&mut scratch.table_order);
            rng.shuffle(&mut order);
            'tables: for &t in &order {
                for &id in tables.bucket(t as usize, codes) {
                    if scratch.bump(id) == 1 {
                        out.push(id);
                        if out.len() >= budget {
                            break 'tables;
                        }
                    }
                }
            }
            scratch.table_order = order;
        }
        SamplingStrategy::TopK { budget } => {
            if budget == 0 {
                return;
            }
            for t in 0..l {
                for &id in tables.bucket(t, codes) {
                    scratch.bump(id);
                }
            }
            out.extend_from_slice(&scratch.touched);
            if out.len() > budget {
                // Partial selection by descending frequency; id ties
                // broken ascending for determinism.
                let counts = &scratch.counts;
                out.select_nth_unstable_by(budget - 1, |&a, &b| {
                    counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b))
                });
                out.truncate(budget);
            }
        }
        SamplingStrategy::HardThreshold { min_count } => {
            for t in 0..l {
                for &id in tables.bucket(t, codes) {
                    // Emit exactly when the count crosses the threshold so
                    // each qualifying neuron appears once.
                    if scratch.bump(id) as usize == min_count.max(1) {
                        out.push(id);
                    }
                }
            }
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
        for (id, &mult) in multiplicity.iter().enumerate() {
            for (t, table) in tables.tables_mut().iter_mut().enumerate().take(mult) {
                let group = &query_codes[t * k..(t + 1) * k];
                table.insert(id as u32, group, InsertionPolicy::Fifo, &mut r);
            }
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
}
