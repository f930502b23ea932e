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

use crate::policy::InsertionPolicy;
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

/// Anything the sampler can read buckets from: one [`LshTables`] set, or
/// a collection of per-shard table sets presenting themselves as one
/// logical set ([`ShardedTables`]).
///
/// The contract is strict: for a given `(t, codes)` the source must visit
/// ids in the exact **slot order** the equivalent unsharded
/// [`LshTables::bucket`] would expose. The sampling strategies'
/// determinism (and therefore the sharded-selector bit-identity
/// guarantees) rest on that order.
pub trait BucketSource {
    /// Number of tables (`L`).
    fn num_tables(&self) -> usize;

    /// Visits the ids of the logical bucket matched by `codes` (length
    /// `K·L`) in table `t`, in slot order, stopping early when `visit`
    /// returns `false`.
    fn for_each_in_bucket(&self, t: usize, codes: &[u32], visit: &mut dyn FnMut(u32) -> bool);
}

impl BucketSource for LshTables {
    fn num_tables(&self) -> usize {
        self.num_tables()
    }

    fn for_each_in_bucket(&self, t: usize, codes: &[u32], visit: &mut dyn FnMut(u32) -> bool) {
        for &id in self.bucket(t, codes) {
            if !visit(id) {
                return;
            }
        }
    }
}

/// A set of per-shard [`LshTables`] presenting itself as the one table
/// set the unsharded layer would have built.
///
/// Each shard owns a contiguous neuron range and holds its own tables
/// with the neurons' **global** ids, rebuilt by inserting those ids in
/// ascending order — exactly the order the unsharded rebuild uses. A
/// bucket of the logical set is then the concatenation, in shard order,
/// of the shards' buckets *as insertion sequences*; since every bucket is
/// a fixed-capacity FIFO ring, the logical bucket's slot order after any
/// number of insertions can be reconstructed from the per-shard rings and
/// their attempt counters alone. [`BucketSource::for_each_in_bucket`]
/// performs that reconstruction allocation-free, so sampling through a
/// `ShardedTables` is *bit-identical* to sampling the unsharded tables.
///
/// Only the [`InsertionPolicy::Fifo`] policy is supported: reservoir
/// insertion draws from an RNG whose stream depends on the interleaving
/// of inserts, which a shard-local rebuild cannot reproduce.
#[derive(Debug, Clone, Copy)]
pub struct ShardedTables<'a> {
    shards: &'a [LshTables],
}

impl<'a> ShardedTables<'a> {
    /// Wraps per-shard table sets (in ascending neuron-range order).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, the shards' configurations differ, or
    /// the policy is not [`InsertionPolicy::Fifo`].
    pub fn new(shards: &'a [LshTables]) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        let config = *shards[0].config();
        assert_eq!(
            config.policy,
            InsertionPolicy::Fifo,
            "sharded tables require the FIFO policy"
        );
        for s in &shards[1..] {
            assert_eq!(*s.config(), config, "shard table configs must match");
        }
        Self { shards }
    }

    /// Emits the virtual insertion-order sequence `V[from..to)` for the
    /// bucket matched by `codes` in table `t`, where `V` is the
    /// concatenation of each shard's bucket in insertion order (oldest
    /// first). Returns `false` if the visitor stopped early.
    ///
    /// A shard bucket's insertion order is recovered from its ring: after
    /// `att` attempts into a capacity-`cap` ring, the oldest element sits
    /// at slot `att % cap` once the ring has wrapped (`att > cap`), at
    /// slot 0 otherwise.
    fn emit_range(
        &self,
        t: usize,
        codes: &[u32],
        from: usize,
        to: usize,
        visit: &mut dyn FnMut(u32) -> bool,
    ) -> bool {
        let mut off = 0usize;
        for shard in self.shards {
            let bucket = shard.bucket_state(t, codes);
            let len = bucket.len();
            let lo = from.max(off);
            let hi = to.min(off + len);
            if lo < hi {
                let att = bucket.attempts() as usize;
                let head = if att > bucket.capacity() {
                    att % bucket.capacity()
                } else {
                    0
                };
                let items = bucket.items();
                for j in lo..hi {
                    if !visit(items[(head + (j - off)) % len]) {
                        return false;
                    }
                }
            }
            off += len;
            if off >= to {
                break;
            }
        }
        true
    }
}

impl BucketSource for ShardedTables<'_> {
    fn num_tables(&self) -> usize {
        self.shards[0].num_tables()
    }

    fn for_each_in_bucket(&self, t: usize, codes: &[u32], visit: &mut dyn FnMut(u32) -> bool) {
        // The unsharded layer would have pushed the same insertion
        // sequence V through ONE capacity-`cap` FIFO ring. Reconstruct
        // that ring's slot order from the per-shard rings:
        //
        // * A = total attempts ≤ cap — nothing was ever evicted; slot
        //   order is insertion order, i.e. V itself.
        // * A > cap — the ring kept the last `cap` elements of V
        //   (`V[skip..]`, skip = |V| − cap; |V| ≥ cap because each shard
        //   kept min(att_i, cap) of its att_i attempts), and its oldest
        //   element sits at slot r = A % cap. Slot order therefore reads
        //   the kept window rotated left by cap − r: first its last
        //   cap − r elements, then its first r... concretely slots
        //   0..cap map to V[skip+s..skip+cap] ++ V[skip..skip+s] with
        //   s = (cap − r) % cap.
        let cap = self.shards[0].config().bucket_capacity;
        let mut total_attempts = 0u64;
        let mut v_len = 0usize;
        for shard in self.shards {
            let bucket = shard.bucket_state(t, codes);
            total_attempts += bucket.attempts();
            v_len += bucket.len();
        }
        if total_attempts <= cap as u64 {
            self.emit_range(t, codes, 0, v_len, visit);
        } else {
            let skip = v_len - cap;
            let r = (total_attempts % cap as u64) as usize;
            let s = (cap - r) % cap;
            if self.emit_range(t, codes, skip + s, skip + cap, visit) {
                self.emit_range(t, codes, skip, skip + s, visit);
            }
        }
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
    sample_with(tables, codes, strategy, scratch, rng, out)
}

/// [`sample`] over any [`BucketSource`] — the same strategies, byte for
/// byte, reading buckets through the source abstraction. With a
/// [`ShardedTables`] source this samples a sharded layer bit-identically
/// to the unsharded [`sample`] (same ids, same order, same RNG stream).
///
/// # Panics
///
/// Panics if `codes.len() != K·L` or a stored id exceeds the scratch size.
pub fn sample_with<B: BucketSource + ?Sized, R: Rng>(
    source: &B,
    codes: &[u32],
    strategy: SamplingStrategy,
    scratch: &mut SamplerScratch,
    rng: &mut R,
    out: &mut Vec<u32>,
) {
    out.clear();
    scratch.begin();
    let l = source.num_tables();
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
            for &t in &order {
                let mut budget_met = false;
                source.for_each_in_bucket(t as usize, codes, &mut |id| {
                    if scratch.bump(id) == 1 {
                        out.push(id);
                        if out.len() >= budget {
                            budget_met = true;
                            return false;
                        }
                    }
                    true
                });
                if budget_met {
                    break;
                }
            }
            scratch.table_order = order;
        }
        SamplingStrategy::TopK { budget } => {
            if budget == 0 {
                return;
            }
            for t in 0..l {
                source.for_each_in_bucket(t, codes, &mut |id| {
                    scratch.bump(id);
                    true
                });
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
                source.for_each_in_bucket(t, codes, &mut |id| {
                    // Emit exactly when the count crosses the threshold so
                    // each qualifying neuron appears once.
                    if scratch.bump(id) as usize == min_count.max(1) {
                        out.push(id);
                    }
                    true
                });
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

    /// Deterministic per-id codes; `id / 3` drives the bucket, so runs of
    /// three consecutive ids share every bucket (forcing FIFO evictions
    /// at small capacities), and a shard boundary inside a run splits a
    /// hash bucket across shards.
    fn codes_for(id: u32, k: usize, l: usize) -> Vec<u32> {
        (0..k * l).map(|j| (id / 3 + j as u32) % 5).collect()
    }

    /// Builds the unsharded tables plus `num_shards` shard table sets
    /// over `n` ids (contiguous ranges, global ids, ascending inserts —
    /// the sharded rebuild's exact order).
    fn build_sharded(
        n: u32,
        num_shards: usize,
        capacity: usize,
    ) -> (LshTables, Vec<LshTables>, usize, usize) {
        let (k, l) = (2usize, 4usize);
        let config = TableConfig::new(k, l)
            .with_table_bits(6)
            .with_bucket_capacity(capacity)
            .with_policy(InsertionPolicy::Fifo);
        let mut global = LshTables::new(config);
        let mut r = rng(11);
        for id in 0..n {
            global.insert(id, &codes_for(id, k, l), &mut r);
        }
        let mut shards = Vec::new();
        for s in 0..num_shards {
            let (lo, hi) = (
                s as u32 * n / num_shards as u32,
                (s as u32 + 1) * n / num_shards as u32,
            );
            let mut tables = LshTables::new(config);
            for id in lo..hi {
                tables.insert(id, &codes_for(id, k, l), &mut r);
            }
            shards.push(tables);
        }
        (global, shards, k, l)
    }

    fn collect_bucket<B: BucketSource>(source: &B, t: usize, codes: &[u32]) -> Vec<u32> {
        let mut got = Vec::new();
        source.for_each_in_bucket(t, codes, &mut |id| {
            got.push(id);
            true
        });
        got
    }

    #[test]
    fn sharded_tables_match_unsharded_buckets_without_overflow() {
        // Capacity above the worst bucket load: slot order is insertion
        // order on both sides.
        let (global, shards, k, l) = build_sharded(24, 5, 64);
        let sharded = ShardedTables::new(&shards);
        for q in 0..24 {
            let codes = codes_for(q, k, l);
            for t in 0..l {
                assert_eq!(
                    collect_bucket(&sharded, t, &codes),
                    global.bucket(t, &codes).to_vec(),
                    "query {q} table {t}"
                );
            }
        }
    }

    #[test]
    fn sharded_tables_emulate_the_global_fifo_ring_after_overflow() {
        // Capacity 2 with runs of 3 ids per bucket: every bucket has
        // wrapped, so matching the unsharded tables requires reproducing
        // the global ring's eviction pattern AND its slot rotation, not
        // just the surviving set. Shard counts include ranges that split
        // a 3-id bucket run across two shards.
        for num_shards in [1, 2, 3, 5, 7] {
            let (global, shards, k, l) = build_sharded(21, num_shards, 2);
            let sharded = ShardedTables::new(&shards);
            for q in 0..21 {
                let codes = codes_for(q, k, l);
                for t in 0..l {
                    assert_eq!(
                        collect_bucket(&sharded, t, &codes),
                        global.bucket(t, &codes).to_vec(),
                        "{num_shards} shards, query {q}, table {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_with_sharded_source_is_bit_identical_to_unsharded() {
        // All three strategies, overflowing buckets, every shard count:
        // same ids in the same order from the same RNG stream.
        for num_shards in [1, 2, 7] {
            let (global, shards, k, l) = build_sharded(21, num_shards, 2);
            let sharded = ShardedTables::new(&shards);
            for strategy in [
                SamplingStrategy::Vanilla { budget: 4 },
                SamplingStrategy::TopK { budget: 4 },
                SamplingStrategy::HardThreshold { min_count: 2 },
            ] {
                let mut scratch_a = SamplerScratch::new(21);
                let mut scratch_b = SamplerScratch::new(21);
                let mut out_a = Vec::new();
                let mut out_b = Vec::new();
                for q in 0..21u32 {
                    let codes = codes_for(q, k, l);
                    sample(
                        &global,
                        &codes,
                        strategy,
                        &mut scratch_a,
                        &mut rng(q as u64),
                        &mut out_a,
                    );
                    sample_with(
                        &sharded,
                        &codes,
                        strategy,
                        &mut scratch_b,
                        &mut rng(q as u64),
                        &mut out_b,
                    );
                    assert_eq!(out_a, out_b, "{strategy} query {q} ({num_shards} shards)");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    fn sharded_tables_reject_reservoir_policy() {
        let config = TableConfig::new(2, 2).with_policy(InsertionPolicy::Reservoir);
        let shards = vec![LshTables::new(config)];
        let _ = ShardedTables::new(&shards);
    }
}
