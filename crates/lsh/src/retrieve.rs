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
    /// Degradation steps, set only by [`QueryBudget::degraded`]: each
    /// keeps the first three quarters (rounded up) of what the limits
    /// above retrieved, in emission order.
    shrink: u32,
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
            shrink: 0,
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

    /// This budget degraded by `level` steps for graceful degradation
    /// under overload; `level` 0 returns `self` unchanged. Each step
    /// keeps the first three quarters (rounded up) of the retrieval, so a
    /// level's candidates are a prefix of the level before it: it can
    /// never score more (input, candidate) pairs. Sets of three or fewer
    /// are not shrunk, so a degraded query still retrieves something.
    ///
    /// Tables and threshold stay as configured. Halving the probed
    /// tables sheds hashing too, but a collision threshold above 1 then
    /// either keeps its value and loses recall (up to −0.18 P@1 over 8 of
    /// 16 tables on a 400-class model) or scales down to 1 and admits
    /// every accidental collision: +42 % scored pairs on the same model.
    /// Emission order keeps the ids that reached the threshold in the
    /// lowest tables, which on that model costs no P@1 at level 1 for
    /// 25 % fewer pairs.
    pub fn degraded(&self, level: u32) -> Self {
        Self {
            shrink: self.shrink.saturating_add(level),
            ..*self
        }
    }
}

/// Deterministic bucket-union retrieval: probes tables `0..min(L, budget)`
/// in order and writes to `out` (cleared first) every stored id whose
/// bucket-hit count reaches `min_collisions`, keeping the first
/// `max_candidates` of them, then shrinking that prefix `shrink` times.
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
    let mut keep = n.min(cap);
    for _ in 0..budget.shrink {
        if keep <= 3 {
            break;
        }
        keep -= keep / 4;
    }
    out.truncate(keep);
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
        // Level 0 is the identity; levels compose; tables and threshold
        // stay as configured.
        assert_eq!(full.degraded(0), full);
        assert_eq!(full.degraded(1).degraded(2), full.degraded(3));
        assert_eq!(full.degraded(3).max_tables, full.max_tables);
        assert_eq!(full.degraded(3).min_collisions, 2);
        // Ten ids reach the threshold; one more sits in a single table.
        let (tables, codes) = tables_with_multiplicity(&[4, 2, 3, 2, 4, 2, 2, 3, 2, 2, 1], 4);
        let mut scratch = SamplerScratch::new(11);
        let retrieve = |budget: QueryBudget, scratch: &mut SamplerScratch| {
            let mut out = Vec::new();
            retrieve_union(&tables, &codes, budget, scratch, &mut out);
            out
        };
        let level0 = retrieve(full, &mut scratch);
        assert_eq!(level0.len(), 10);
        // Each level keeps the first ⌈3n/4⌉ of the level before it, and
        // sets of three or fewer are not shrunk.
        let mut prev = level0;
        for (level, want) in (1..).zip([8, 6, 5, 4, 3, 3]) {
            let got = retrieve(full.degraded(level), &mut scratch);
            assert_eq!(got.len(), want, "level {level}");
            assert_eq!(&prev[..want], &got[..], "a level is a prefix of the last");
            prev = got;
        }
        // The candidate cap applies first: 6 of 10, then ⌈3·6/4⌉ = 5.
        let capped = retrieve(full.with_max_candidates(6).degraded(1), &mut scratch);
        assert_eq!(capped.len(), 5);
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
    /// threshold, stop at the candidate cap, then keep ⌈3n/4⌉ per shrink
    /// step while more than three remain.
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
        for _ in 0..budget.shrink {
            if out.len() > 3 {
                out.truncate((3 * out.len()).div_ceil(4));
            }
        }
        out
    }

    use proptest::prelude::*;

    proptest! {
        /// `retrieve_union` equals the reference on arbitrary bucket
        /// contents — duplicate ids inside a bucket, FIFO evictions, two
        /// queries sharing one scratch — under every threshold from 1 to
        /// L + 1, random table/candidate caps and degradation levels.
        /// Each emitted id is distinct, has really reached the threshold,
        /// and the counters are all zero afterwards.
        #[test]
        fn prop_retrieve_union_matches_reference(
            l in 1usize..6,
            inserts in proptest::collection::vec((0u32..12, 0u32..10), 0..80),
            caps in (0usize..7, 0usize..12),
            m in 0usize..64,
            level in 0u32..5,
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
                shrink: 0,
            }
            .degraded(level);
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
