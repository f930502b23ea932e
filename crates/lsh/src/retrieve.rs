//! Query-only LSH retrieval for the inference/serving path.
//!
//! Training-time sampling ([`crate::sampling`]) is randomized on purpose:
//! the paper's Vanilla strategy probes tables in random order so different
//! gradient steps see different active sets. Inference wants the opposite
//! trade-offs — deterministic output for a given table state, no RNG in
//! the hot path, and an explicit *probe budget* so a serving deployment
//! can cap worst-case latency per query. This module provides that:
//! [`retrieve_union`] walks the `L` buckets in fixed table order, unions
//! the distinct neuron ids, and stops early once a [`QueryBudget`] is
//! exhausted.
//!
//! Retrieval is one branch-free counting pass over the probed buckets
//! plus a second walk that zeroes exactly the counters it bumped, so a
//! query costs O(ids visited) — never O(layer width) — and the same
//! [`SamplerScratch`] used for training-time sampling carries the
//! counters, so a workspace that trains can serve without new buffers.

use crate::sampling::SamplerScratch;
use crate::table::LshTables;

/// Caps on how much table probing one inference query may do.
///
/// Both limits are *soft* knobs for the latency/recall trade-off: probing
/// fewer tables touches less memory, and capping the candidate union
/// bounds the downstream scoring cost. A limit of `0` means "unlimited"
/// (probe all `L` tables, keep the whole union).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Maximum tables probed, in fixed order `0..L`; `0` probes all.
    pub max_tables: usize,
    /// Maximum distinct candidates retrieved; `0` keeps everything found.
    pub max_candidates: usize,
    /// Minimum buckets a neuron must appear in to be retrieved (≤ 1
    /// keeps the plain union). A genuinely similar neuron collides in
    /// many of the `L` tables while an accidental collision happens in
    /// one or two, so a small threshold cuts the candidate set by an
    /// order of magnitude at almost no recall cost.
    pub min_collisions: usize,
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self::all()
    }
}

impl QueryBudget {
    /// No caps: the full bucket union over all `L` tables.
    pub fn all() -> Self {
        Self {
            max_tables: 0,
            max_candidates: 0,
            min_collisions: 1,
        }
    }

    /// Caps the number of tables probed (builder style).
    pub fn with_max_tables(mut self, max_tables: usize) -> Self {
        self.max_tables = max_tables;
        self
    }

    /// Caps the number of distinct candidates retrieved (builder style).
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = max_candidates;
        self
    }

    /// Requires `min_collisions` bucket hits per retrieved neuron
    /// (builder style).
    pub fn with_min_collisions(mut self, min_collisions: usize) -> Self {
        self.min_collisions = min_collisions;
        self
    }

    /// A stepwise-shrunk copy of this budget for graceful degradation
    /// under overload; `level` 0 returns `self` unchanged. Each level
    /// halves the tables probed and the candidate cap relative to the
    /// *effective* full-budget values (`total_tables` / `total_candidates`
    /// resolve the unlimited `0` sentinels), flooring at one table and a
    /// small candidate floor so a degraded query still retrieves
    /// something. `min_collisions` scales **proportionally with the
    /// tables actually probed** (floored at 1): a near neighbor's
    /// expected collision count is linear in the tables probed, so a
    /// threshold tuned for L tables is ~2x too strict over L/2 — held
    /// fixed it silently filters out the very candidates the shrunken
    /// probe set still finds (measured: P@1 0.375 vs 0.547 at level 1 on
    /// a 1000-label model), and over a single probed table a threshold
    /// of 2 can never be met at all, turning every retrieval into a
    /// dense fallback — strictly slower than not degrading.
    pub fn degraded(&self, level: u32, total_tables: usize, total_candidates: usize) -> Self {
        if level == 0 {
            return *self;
        }
        let shift = level.min(usize::BITS - 1);
        let base_tables = if self.max_tables == 0 {
            total_tables.max(1)
        } else {
            self.max_tables.min(total_tables.max(1))
        };
        let tables = (base_tables >> shift).max(1);
        let base_candidates = if self.max_candidates == 0 {
            total_candidates.max(1)
        } else {
            self.max_candidates.min(total_candidates.max(1))
        };
        let floor = base_candidates.clamp(1, 32);
        let candidates = (base_candidates >> shift).max(floor);
        Self {
            max_tables: tables,
            max_candidates: candidates,
            min_collisions: (self.min_collisions * tables / base_tables).clamp(1, tables),
        }
    }
}

/// Deterministic bucket-union retrieval: probes tables `0..min(L, budget)`
/// in order and writes to `out` (cleared first) every stored id whose
/// bucket-hit count reaches `min_collisions`, keeping the first
/// `max_candidates` of them.
///
/// **Emission order** is the contract the serving path's bit-identity
/// rests on: an id is emitted once, at the visit where its count first
/// equals the threshold, so ids appear in order of threshold crossing,
/// tables in order `0..`, slots in bucket order within a table. Unlike
/// [`crate::sampling::sample`] there is no RNG and no label-frequency
/// weighting — two calls against the same table state and codes return
/// the same ids in the same order.
///
/// **Cost** is O(ids visited): each visit bumps a counter and writes the
/// id at the output cursor, which advances only on a crossing — no
/// data-dependent branch. The candidate cap is checked once per table
/// (the table that reaches it is finished, then the output truncated),
/// and a second walk over the probed buckets zeroes the counters.
/// Counters are `u16` and saturate, as the sampler's do; thresholds
/// above `u16::MAX` act as `u16::MAX`.
///
/// # Panics
///
/// Panics if `codes.len() != K·L` or a stored id exceeds the scratch size.
pub fn retrieve_union(
    tables: &LshTables,
    codes: &[u32],
    budget: QueryBudget,
    scratch: &mut SamplerScratch,
    out: &mut Vec<u32>,
) {
    out.clear();
    let l = tables.num_tables();
    let probe = if budget.max_tables == 0 {
        l
    } else {
        budget.max_tables.min(l)
    };
    let cap = if budget.max_candidates == 0 {
        usize::MAX
    } else {
        budget.max_candidates
    };
    let threshold = u16::try_from(budget.min_collisions.max(1)).unwrap_or(u16::MAX);
    let hits = scratch.hits();
    let mut n = 0;
    let mut probed = 0;
    while probed < probe && n < cap {
        let bucket = tables.bucket(probed, codes);
        probed += 1;
        // `out[n..]` is scratch space: a table emits at most its length.
        if out.len() < n + bucket.len() {
            out.resize(n + bucket.len(), 0);
        }
        for &id in bucket {
            let c = &mut hits[id as usize];
            *c = c.saturating_add(1);
            out[n] = id;
            n += usize::from(*c == threshold);
        }
    }
    out.truncate(n.min(cap));
    for t in 0..probed {
        for &id in tables.bucket(t, codes) {
            hits[id as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InsertionPolicy;
    use crate::table::TableConfig;
    use slide_data::rng::Xoshiro256PlusPlus;

    /// Tables where neuron `id` sits in the query's bucket of the first
    /// `multiplicity[id]` tables.
    fn tables_with_multiplicity(multiplicity: &[usize], l: usize) -> (LshTables, Vec<u32>) {
        let k = 2;
        let config = TableConfig::new(k, l)
            .with_table_bits(8)
            .with_bucket_capacity(64)
            .with_policy(InsertionPolicy::Fifo);
        let mut tables = LshTables::new(config);
        let query_codes: Vec<u32> = vec![1; k * l];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        for (id, &mult) in multiplicity.iter().enumerate() {
            for (t, table) in tables.tables_mut().iter_mut().enumerate().take(mult) {
                let group = &query_codes[t * k..(t + 1) * k];
                table.insert(id as u32, group, InsertionPolicy::Fifo, &mut rng);
            }
        }
        (tables, query_codes)
    }

    #[test]
    fn union_collects_all_distinct_ids() {
        let (tables, codes) = tables_with_multiplicity(&[4, 2, 1], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        retrieve_union(&tables, &codes, QueryBudget::all(), &mut scratch, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn retrieval_is_deterministic() {
        let (tables, codes) = tables_with_multiplicity(&[3, 3, 3, 3], 5);
        let mut scratch = SamplerScratch::new(4);
        let mut a = Vec::new();
        let mut b = Vec::new();
        retrieve_union(&tables, &codes, QueryBudget::all(), &mut scratch, &mut a);
        retrieve_union(&tables, &codes, QueryBudget::all(), &mut scratch, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn candidate_cap_stops_early() {
        let (tables, codes) = tables_with_multiplicity(&[5, 5, 5, 5, 5], 5);
        let mut scratch = SamplerScratch::new(5);
        let mut out = Vec::new();
        let budget = QueryBudget::all().with_max_candidates(2);
        retrieve_union(&tables, &codes, budget, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        let set: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn table_cap_limits_probing() {
        // Neuron 1 only lives in table 0; neuron 0 in tables 0..3. A
        // one-table budget sees both; probing zero candidates of table 3+
        // is irrelevant. Neuron 2 lives only in tables 0..2 — cap at one
        // table and ids inserted beyond table 0 cannot appear.
        let (tables, codes) = tables_with_multiplicity(&[3, 1], 3);
        let mut scratch = SamplerScratch::new(2);
        let mut out = Vec::new();
        let budget = QueryBudget::all().with_max_tables(1);
        retrieve_union(&tables, &codes, budget, &mut scratch, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1], "table 0 holds both ids");
    }

    #[test]
    fn output_buffer_is_cleared_first() {
        let (tables, codes) = tables_with_multiplicity(&[2, 2], 2);
        let mut scratch = SamplerScratch::new(2);
        let mut out = vec![7, 7, 7];
        retrieve_union(&tables, &codes, QueryBudget::all(), &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert!(!out.contains(&7));
    }

    #[test]
    fn degraded_budget_shrinks_stepwise_with_floors() {
        let full = QueryBudget::all().with_min_collisions(2);
        // Level 0 is the identity.
        assert_eq!(full.degraded(0, 16, 4096), full);
        // Each level halves tables and candidates from the effective
        // full values (unlimited sentinels resolve to the totals).
        let d1 = full.degraded(1, 16, 4096);
        assert_eq!(d1.max_tables, 8);
        assert_eq!(d1.max_candidates, 2048);
        // The collision threshold scales with the probed tables: 2-of-16
        // becomes 1-of-8 (the same per-table collision rate), not a
        // twice-as-strict 2-of-8.
        assert_eq!(d1.min_collisions, 1);
        let d3 = full.degraded(3, 16, 4096);
        assert_eq!(d3.max_tables, 2);
        assert_eq!(d3.max_candidates, 512);
        assert_eq!(d3.min_collisions, 1);
        // A heavier threshold keeps its proportion while any slack
        // remains: 8-of-16 → 4-of-8 → 2-of-4.
        let heavy = QueryBudget::all().with_min_collisions(8);
        assert_eq!(heavy.degraded(1, 16, 4096).min_collisions, 4);
        assert_eq!(heavy.degraded(2, 16, 4096).min_collisions, 2);
        // Deep levels floor at one table and one collision — a threshold
        // no probe count can meet would turn every retrieval into a
        // dense fallback.
        let deep = full.degraded(10, 16, 4096);
        assert_eq!(deep.max_tables, 1);
        assert_eq!(deep.min_collisions, 1);
        assert_eq!(deep.max_candidates, 32, "candidate floor");
        // An explicit budget degrades from its own caps, not the totals.
        let capped = QueryBudget::all()
            .with_max_tables(4)
            .with_max_candidates(100);
        let c1 = capped.degraded(1, 16, 4096);
        assert_eq!(c1.max_tables, 2);
        assert_eq!(c1.max_candidates, 50);
        // Degraded budgets still retrieve deterministically.
        let (tables, codes) = tables_with_multiplicity(&[4, 4, 4], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        retrieve_union(
            &tables,
            &codes,
            full.degraded(2, 4, 3),
            &mut scratch,
            &mut out,
        );
        assert!(!out.is_empty());
    }

    #[test]
    fn scratch_reuse_is_clean_across_queries() {
        let (tables, codes) = tables_with_multiplicity(&[4, 4, 4], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        for i in 0..50 {
            retrieve_union(&tables, &codes, QueryBudget::all(), &mut scratch, &mut out);
            assert_eq!(out.len(), 3, "query {i} leaked dedup state");
        }
    }

    #[test]
    fn training_sampling_between_queries_does_not_leak_into_retrieval() {
        // One scratch serves both paths (a training workspace can serve):
        // the sampler's stamped counts must not bleed into retrieval's.
        let (tables, codes) = tables_with_multiplicity(&[4, 3, 1], 4);
        let mut scratch = SamplerScratch::new(3);
        let mut out = Vec::new();
        let budget = QueryBudget::all().with_min_collisions(2);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..3 {
            retrieve_union(&tables, &codes, budget, &mut scratch, &mut out);
            assert_eq!(out, vec![0, 1]);
            let strategy = crate::sampling::SamplingStrategy::HardThreshold { min_count: 2 };
            crate::sampling::sample(&tables, &codes, strategy, &mut scratch, &mut rng, &mut out);
        }
    }

    /// The pre-existing semantics, written for clarity over speed: counts
    /// in a map, emit on the visit whose count first equals the
    /// threshold, stop at the candidate cap.
    fn reference_union(tables: &LshTables, codes: &[u32], budget: QueryBudget) -> Vec<u32> {
        let l = tables.num_tables();
        let probe = match budget.max_tables {
            0 => l,
            m => m.min(l),
        };
        let cap = match budget.max_candidates {
            0 => usize::MAX,
            c => c,
        };
        let threshold = budget.min_collisions.max(1);
        let mut counts = std::collections::BTreeMap::new();
        let mut out = Vec::new();
        for t in 0..probe {
            for &id in tables.bucket(t, codes) {
                let c = counts.entry(id).or_insert(0usize);
                *c += 1;
                if *c == threshold && out.len() < cap {
                    out.push(id);
                }
            }
        }
        out
    }

    use proptest::prelude::*;

    proptest! {
        /// `retrieve_union` equals the reference on arbitrary bucket
        /// contents — duplicate ids inside a bucket, FIFO evictions, two
        /// queries sharing one scratch — under every threshold from 1 to
        /// L + 1 and random table/candidate caps. Each emitted id is
        /// distinct, has really reached the threshold, and the counters
        /// are all zero afterwards.
        #[test]
        fn prop_retrieve_union_matches_reference(
            l in 1usize..6,
            inserts in proptest::collection::vec((0u32..12, 0u32..10), 0..80),
            caps in (0usize..7, 0usize..12),
            m in 0usize..64,
        ) {
            let k = 2;
            let config = TableConfig::new(k, l)
                .with_table_bits(4)
                .with_bucket_capacity(8)
                .with_policy(InsertionPolicy::Fifo);
            let mut tables = LshTables::new(config);
            let queries = [vec![1u32; k * l], vec![2u32; k * l]];
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
            // `slot` picks the table and which query's bucket; a small id
            // range makes duplicates and multi-table hits the norm.
            for &(slot, id) in &inserts {
                let (t, q) = (slot as usize % l, slot as usize / 6 % 2);
                let group = &queries[q][t * k..(t + 1) * k];
                tables.tables_mut()[t].insert(id, group, InsertionPolicy::Fifo, &mut rng);
            }
            let budget = QueryBudget {
                max_tables: caps.0,
                max_candidates: caps.1,
                min_collisions: 1 + m % (l + 1),
            };
            let mut scratch = SamplerScratch::new(10);
            let mut out = Vec::new();
            for codes in queries.iter().chain(queries.iter()) {
                retrieve_union(&tables, codes, budget, &mut scratch, &mut out);
                let want = reference_union(&tables, codes, budget);
                prop_assert_eq!(&out, &want);
                let distinct: std::collections::BTreeSet<_> = out.iter().collect();
                prop_assert_eq!(distinct.len(), out.len());
                let probe = if caps.0 == 0 { l } else { caps.0.min(l) };
                for &id in &out {
                    let hits: usize = (0..probe)
                        .map(|t| tables.bucket(t, codes).iter().filter(|&&x| x == id).count())
                        .sum();
                    prop_assert!(hits >= budget.min_collisions, "id {} hit {} times", id, hits);
                }
                prop_assert!(scratch.hits().iter().all(|&h| h == 0), "counters left dirty");
            }
        }
    }
}
