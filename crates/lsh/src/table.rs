//! (K, L)-parameterized LSH tables over neuron ids (paper §2, §3.2).
//!
//! `L` independent tables; each table buckets items by a *meta-hash* — the
//! concatenation of `K` codes from the hash family. Bucket addressing
//! folds the `K` codes with an avalanche mixer into `2^table_bits`
//! buckets, so any [`crate::family::HashFamily`] code range works with any
//! table size; identical code vectors always land in the same bucket.

use slide_data::rng::{mix64, Rng};

use crate::policy::InsertionPolicy;

/// Configuration of an [`LshTables`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Codes per meta-hash (the paper's `K`).
    pub k: usize,
    /// Number of tables (the paper's `L`).
    pub l: usize,
    /// Each table has `2^table_bits` buckets.
    pub table_bits: u32,
    /// Fixed bucket capacity (paper limits bucket size; default 128).
    pub bucket_capacity: usize,
    /// Replacement policy for full buckets.
    pub policy: InsertionPolicy,
}

impl TableConfig {
    /// Creates a config with defaults: 2^12 buckets per table, capacity
    /// 128, FIFO policy (the paper's experimental choice).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `l == 0`.
    pub fn new(k: usize, l: usize) -> Self {
        assert!(k > 0 && l > 0, "k and l must be positive");
        Self {
            k,
            l,
            table_bits: 12,
            bucket_capacity: 128,
            policy: InsertionPolicy::Fifo,
        }
    }

    /// Sets the number of buckets per table to `2^bits` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 30.
    pub fn with_table_bits(mut self, bits: u32) -> Self {
        assert!((1..=30).contains(&bits), "table_bits {bits} outside 1..=30");
        self.table_bits = bits;
        self
    }

    /// Sets the bucket capacity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_bucket_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        self.bucket_capacity = capacity;
        self
    }

    /// Sets the replacement policy (builder style).
    pub fn with_policy(mut self, policy: InsertionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Buckets per table.
    pub fn num_buckets(&self) -> usize {
        1usize << self.table_bits
    }
}

/// One of the `L` hash tables: every bucket's ids in one flat array.
///
/// Bucket `b` holds `ids[offsets[b]..offsets[b + 1]]`, at most `capacity`
/// ids, and `counts[b]` ids were sent to it by the last [`Table::fill`]
/// (more than `capacity` once it overflowed).
#[derive(Debug, Clone)]
pub struct Table {
    ids: Vec<u32>,
    offsets: Vec<u32>,
    counts: Vec<u32>,
    capacity: usize,
    mask: u64,
}

impl Table {
    fn new(config: &TableConfig) -> Self {
        Self {
            ids: Vec::new(),
            offsets: vec![0; config.num_buckets() + 1],
            counts: vec![0; config.num_buckets()],
            capacity: config.bucket_capacity,
            mask: (config.num_buckets() - 1) as u64,
        }
    }

    /// Maps `K` codes to a bucket index.
    #[inline]
    pub fn bucket_index(&self, codes: &[u32]) -> usize {
        // FNV-style fold of the K codes, finished with an avalanche mixer
        // so low bucket bits depend on every code.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &c in codes {
            h = (h ^ c as u64).wrapping_mul(0x1000_0000_01B3);
        }
        (mix64(h) & self.mask) as usize
    }

    /// Replaces the table's contents with `entries`, `(bucket, id)` pairs
    /// in insertion order (buckets as [`Table::bucket_index`] returns
    /// them), exactly as inserting each id in turn into emptied buckets
    /// would. Arrival `i` of a bucket of capacity `c` takes slot `i` while
    /// `i < c`; after that FIFO overwrites slot `i % c` (a ring of the
    /// last `c` arrivals) and Reservoir (Vitter's algorithm R) draws
    /// `j = rng.gen_range(0, i + 1)` and overwrites slot `j` if `j < c`.
    ///
    /// Three passes: a histogram of the arrivals per bucket, a prefix sum
    /// of `min(count, c)` into the offsets, and a scatter. The buffers
    /// keep their capacity between fills.
    ///
    /// # Panics
    ///
    /// Panics if a bucket is not below the table's bucket count.
    pub fn fill<I, R>(&mut self, entries: I, policy: InsertionPolicy, rng: &mut R)
    where
        I: IntoIterator<Item = (usize, u32)>,
        I::IntoIter: Clone,
        R: Rng,
    {
        let entries = entries.into_iter();
        let cap = self.capacity;
        self.counts.fill(0);
        for (b, _) in entries.clone() {
            self.counts[b] += 1;
        }
        let mut end = 0u32;
        for (next, &n) in self.offsets[1..].iter_mut().zip(&self.counts) {
            end += (n as usize).min(cap) as u32;
            *next = end;
        }
        self.ids.resize(end as usize, 0);
        self.counts.fill(0);
        for (b, id) in entries {
            let i = self.counts[b] as usize;
            self.counts[b] += 1;
            let slot = match policy {
                InsertionPolicy::Fifo => i % cap,
                InsertionPolicy::Reservoir if i < cap => i,
                InsertionPolicy::Reservoir => match rng.gen_range(0, i + 1) {
                    j if j < cap => j,
                    _ => continue,
                },
            };
            self.ids[self.offsets[b] as usize + slot] = id;
        }
    }

    /// Items in the bucket selected by `codes`.
    #[inline]
    pub fn bucket(&self, codes: &[u32]) -> &[u32] {
        self.items(self.bucket_index(codes))
    }

    /// The ids bucket `b` holds, in slot order.
    #[inline]
    pub fn items(&self, b: usize) -> &[u32] {
        &self.ids[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// How many ids the last fill sent to bucket `b`; the bucket
    /// overflowed if this exceeds [`Table::capacity`].
    pub fn count(&self, b: usize) -> u32 {
        self.counts[b]
    }

    /// Every stored id, bucket after bucket.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Buckets in the table.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Most ids a bucket keeps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Occupancy statistics for a table set (used in experiment reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Total stored ids across all tables.
    pub total_items: usize,
    /// Buckets holding at least one id.
    pub nonempty_buckets: usize,
    /// Total buckets across all tables.
    pub total_buckets: usize,
    /// Buckets at capacity.
    pub full_buckets: usize,
    /// Mean items per nonempty bucket.
    pub avg_bucket_load: f64,
}

/// The `L` tables of one layer.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct LshTables {
    config: TableConfig,
    tables: Vec<Table>,
}

impl LshTables {
    /// Creates `config.l` empty tables.
    pub fn new(config: TableConfig) -> Self {
        let tables = (0..config.l).map(|_| Table::new(&config)).collect();
        Self { config, tables }
    }

    /// The configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Number of tables (`L`).
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Rebuilds every table over ids `0..n` from `codes`, their `n × K·L`
    /// code matrix: row `j` holds id `j`'s codes as `L` groups of `K`
    /// (the [`crate::family::HashFamily`] layout). The tables fill one
    /// after another from `rng` (see [`Table::fill`]).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len()` is not a multiple of `K·L`.
    pub fn fill<R: Rng>(&mut self, codes: &[u32], rng: &mut R) {
        let (k, policy) = (self.config.k, self.config.policy);
        let row = k * self.config.l;
        assert_eq!(
            codes.len() % row,
            0,
            "codes length must be a multiple of K*L"
        );
        let mut buckets = Vec::with_capacity(codes.len() / row);
        for (t, table) in self.tables.iter_mut().enumerate() {
            buckets.clear();
            buckets.extend(
                codes
                    .chunks_exact(row)
                    .map(|r| table.bucket_index(&r[t * k..(t + 1) * k])),
            );
            table.fill(buckets.iter().copied().zip(0..), policy, rng);
        }
    }

    /// The bucket matched by `codes` in table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= L` or `codes.len() != K·L`.
    pub fn bucket(&self, t: usize, codes: &[u32]) -> &[u32] {
        assert_eq!(codes.len(), self.config.k * self.config.l);
        let group = &codes[t * self.config.k..(t + 1) * self.config.k];
        self.tables[t].bucket(group)
    }

    /// Mutable access to the individual tables, enabling table-parallel
    /// rebuilds (each rebuild thread owns one `Table`).
    pub fn tables_mut(&mut self) -> &mut [Table] {
        &mut self.tables
    }

    /// Read access to the individual tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Computes occupancy statistics.
    pub fn stats(&self) -> TableStats {
        let mut total_items = 0;
        let mut nonempty = 0;
        let mut full = 0;
        let mut total_buckets = 0;
        for t in &self.tables {
            total_buckets += t.num_buckets();
            total_items += t.ids.len();
            for len in t.offsets.windows(2).map(|w| (w[1] - w[0]) as usize) {
                nonempty += (len > 0) as usize;
                full += (len == t.capacity) as usize;
            }
        }
        TableStats {
            total_items,
            nonempty_buckets: nonempty,
            total_buckets,
            full_buckets: full,
            avg_bucket_load: if nonempty == 0 {
                0.0
            } else {
                total_items as f64 / nonempty as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slide_data::rng::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    /// The per-id bucket insert `Table::fill` replaces, kept as its
    /// reference: a bucket grows to `capacity`, then FIFO overwrites the
    /// oldest slot in ring order and Reservoir keeps the `n`-th insert in
    /// a uniform slot with probability `capacity / n`.
    #[derive(Debug, Clone, Default)]
    struct Slots {
        items: Vec<u32>,
        attempts: u32,
        head: usize,
    }

    impl Slots {
        fn insert(
            &mut self,
            id: u32,
            capacity: usize,
            policy: InsertionPolicy,
            rng: &mut impl Rng,
        ) {
            self.attempts += 1;
            if self.items.len() < capacity {
                self.items.push(id);
                return;
            }
            match policy {
                InsertionPolicy::Reservoir => {
                    let j = rng.gen_range(0, self.attempts as usize);
                    if j < capacity {
                        self.items[j] = id;
                    }
                }
                InsertionPolicy::Fifo => {
                    self.items[self.head] = id;
                    self.head = (self.head + 1) % capacity;
                }
            }
        }
    }

    /// A one-table config with `2^bits` buckets of capacity `capacity`.
    fn one_table(bits: u32, capacity: usize, policy: InsertionPolicy) -> Table {
        Table::new(
            &TableConfig::new(1, 1)
                .with_table_bits(bits)
                .with_bucket_capacity(capacity)
                .with_policy(policy),
        )
    }

    /// Fills a one-bucket table of capacity `capacity` with `ids`.
    fn one_bucket(ids: &[u32], capacity: usize, policy: InsertionPolicy, seed: u64) -> Table {
        let mut table = one_table(1, capacity, policy);
        table.fill(ids.iter().map(|&id| (0, id)), policy, &mut rng(seed));
        table
    }

    #[test]
    fn config_builder() {
        let c = TableConfig::new(4, 8)
            .with_table_bits(10)
            .with_bucket_capacity(16)
            .with_policy(InsertionPolicy::Reservoir);
        assert_eq!(c.num_buckets(), 1024);
        assert_eq!(c.bucket_capacity, 16);
        assert_eq!(c.policy, InsertionPolicy::Reservoir);
    }

    #[test]
    #[should_panic(expected = "k and l must be positive")]
    fn zero_k_panics() {
        let _ = TableConfig::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TableConfig::new(1, 1).with_bucket_capacity(0);
    }

    #[test]
    fn identical_codes_land_in_same_bucket() {
        let mut tables = LshTables::new(TableConfig::new(3, 4));
        let codes = [1u32, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1];
        tables.fill(&[codes, codes].concat(), &mut rng(1));
        for t in 0..4 {
            assert_eq!(tables.bucket(t, &codes), &[0, 1]);
        }
    }

    #[test]
    fn different_codes_usually_differ() {
        let table = Table::new(&TableConfig::new(4, 1));
        let a = table.bucket_index(&[0, 0, 0, 0]);
        let b = table.bucket_index(&[0, 0, 0, 1]);
        let c = table.bucket_index(&[1, 0, 0, 0]);
        // Not guaranteed distinct, but with 4096 buckets a collision of
        // these two specific patterns would indicate broken mixing.
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fill_validates_code_length() {
        let mut tables = LshTables::new(TableConfig::new(2, 2));
        let mut r = rng(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tables.fill(&[0, 1, 0], &mut r);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stats_track_occupancy() {
        let mut tables = LshTables::new(
            TableConfig::new(2, 3)
                .with_table_bits(4)
                .with_bucket_capacity(2),
        );
        let codes: Vec<u32> = (0..10u32)
            .flat_map(|id| (0..6).map(move |j| (id + j) % 2))
            .collect();
        tables.fill(&codes, &mut rng(3));
        let s = tables.stats();
        assert!(s.total_items > 0);
        assert!(s.nonempty_buckets > 0);
        assert_eq!(s.total_buckets, 3 * 16);
        assert!(s.avg_bucket_load >= 1.0);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut tables = LshTables::new(
            TableConfig::new(1, 1)
                .with_table_bits(1)
                .with_bucket_capacity(3),
        );
        tables.fill(&[0; 100], &mut rng(5));
        let s = tables.stats();
        assert!(s.total_items <= 2 * 3); // 2 buckets × capacity 3
        assert_eq!((s.full_buckets, s.nonempty_buckets), (1, 1));
        let t = &tables.tables()[0];
        let b = t.bucket_index(&[0]);
        assert_eq!((t.count(b), t.count(1 - b)), (100, 0));
    }

    #[test]
    fn fills_to_capacity_under_both_policies() {
        for policy in [InsertionPolicy::Reservoir, InsertionPolicy::Fifo] {
            let table = one_bucket(&[0, 1, 2, 3], 4, policy, 1);
            assert_eq!(table.items(0), &[0, 1, 2, 3]);
            assert_eq!(table.count(0), 4);
        }
    }

    #[test]
    fn fifo_evicts_oldest_in_order() {
        let fifo = |ids: &[u32]| {
            one_bucket(ids, 3, InsertionPolicy::Fifo, 2)
                .items(0)
                .to_vec()
        };
        assert_eq!(fifo(&[0, 1, 2]), [0, 1, 2]);
        assert_eq!(fifo(&[0, 1, 2, 100]), [100, 1, 2]);
        assert_eq!(fifo(&[0, 1, 2, 100, 101]), [100, 101, 2]);
        assert_eq!(fifo(&[0, 1, 2, 100, 101, 102]), [100, 101, 102]);
        // Ring wraps: next eviction is 100.
        assert_eq!(fifo(&[0, 1, 2, 100, 101, 102, 103]), [103, 101, 102]);
    }

    #[test]
    fn fifo_always_stores_new_item() {
        let ids: Vec<u32> = (0..100).collect();
        assert!(one_bucket(&ids, 2, InsertionPolicy::Fifo, 3)
            .items(0)
            .contains(&99));
    }

    #[test]
    fn reservoir_keeps_uniform_sample() {
        // Fill 0..1000 into a capacity-10 reservoir many times; each
        // item should survive with probability 10/1000, so the mean of the
        // survivors should be close to 500.
        let ids: Vec<u32> = (0..1000).collect();
        let mut total = 0.0;
        let mut n = 0;
        for seed in 0..200 {
            for &x in one_bucket(&ids, 10, InsertionPolicy::Reservoir, seed).items(0) {
                total += x as f64;
                n += 1;
            }
        }
        let mean = total / n as f64;
        assert!(
            (mean - 499.5).abs() < 30.0,
            "reservoir sample biased: mean {mean}"
        );
    }

    #[test]
    fn reservoir_rejection_rate_matches_theory() {
        // Arrival `n` was kept exactly when a fill of the first `n + 1`
        // ids holds it: the shorter fills replay the same RNG stream.
        let total = 2_000u32;
        let ids: Vec<u32> = (0..total).collect();
        let kept = (0..total)
            .filter(|&n| {
                let prefix = &ids[..=n as usize];
                one_bucket(prefix, 5, InsertionPolicy::Reservoir, 7)
                    .items(0)
                    .contains(&n)
            })
            .count();
        // Expected acceptances ≈ 5 + 5·ln(2000/5) ≈ 35 (sd ≈ 5.5), so
        // the vast majority must be rejections.
        assert!((15..=60).contains(&kept), "{kept} of {total} kept");
    }

    #[test]
    fn a_second_fill_fully_replaces_the_first() {
        let mut table = one_table(2, 2, InsertionPolicy::Fifo);
        let mut r = rng(9);
        table.fill(
            [(1, 1), (1, 2), (1, 3), (2, 4)],
            InsertionPolicy::Fifo,
            &mut r,
        );
        assert_eq!((table.items(1), table.items(2)), (&[3, 2][..], &[4][..]));
        // FIFO starts from slot 0 again, and emptied buckets hold nothing.
        table.fill([(3, 7)], InsertionPolicy::Fifo, &mut r);
        for b in 0..3 {
            assert!(
                table.items(b).is_empty() && table.count(b) == 0,
                "bucket {b}"
            );
        }
        assert_eq!((table.items(3), table.count(3)), (&[7][..], 1));
        assert_eq!(table.ids(), &[7]);
    }

    #[test]
    fn clear_empties_everything() {
        // An empty fill leaves every table of an `LshTables` empty.
        let mut tables = LshTables::new(TableConfig::new(2, 2).with_table_bits(4));
        let mut r = rng(4);
        tables.fill(&[0, 1, 1, 0], &mut r);
        assert_eq!(tables.stats().total_items, 2);
        tables.fill(&[], &mut r);
        assert_eq!(tables.stats().total_items, 0);
    }

    proptest! {
        #[test]
        fn prop_bucket_index_in_range(
            codes in proptest::collection::vec(0u32..64, 1..10),
            bits in 1u32..16,
        ) {
            let config = TableConfig::new(codes.len(), 1).with_table_bits(bits);
            let table = Table::new(&config);
            let idx = table.bucket_index(&codes);
            prop_assert!(idx < config.num_buckets());
        }

        #[test]
        fn prop_bucket_index_deterministic(
            codes in proptest::collection::vec(0u32..8, 1..8),
        ) {
            let config = TableConfig::new(codes.len(), 1);
            let table = Table::new(&config);
            prop_assert_eq!(table.bucket_index(&codes), table.bucket_index(&codes));
        }

        /// `fill` equals inserting each id in turn into emptied naive
        /// buckets — slot by slot, count by count, and RNG position —
        /// for arbitrary orders, duplicate ids, both policies, capacities
        /// from 1 to 4 and 64, and a second fill into the same table.
        #[test]
        fn prop_fill_matches_per_id_inserts(
            bits in 1u32..4,
            cap in 0usize..5,
            reservoir in 0u32..2,
            fills in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0u32..20), 0..200),
                1..3,
            ),
            seed in 0u64..1000,
        ) {
            let policy = if reservoir == 1 { InsertionPolicy::Reservoir } else { InsertionPolicy::Fifo };
            let cap = if cap == 0 { 64 } else { cap };
            let mut table = one_table(bits, cap, policy);
            let nb = table.num_buckets();
            let (mut got_rng, mut want_rng) = (rng(seed), rng(seed));
            for entries in &fills {
                let entries: Vec<(usize, u32)> = entries.iter().map(|&(b, id)| (b % nb, id)).collect();
                table.fill(entries.iter().copied(), policy, &mut got_rng);
                let mut want: Vec<Slots> = vec![Default::default(); nb];
                for &(b, id) in &entries {
                    want[b].insert(id, cap, policy, &mut want_rng);
                }
                for (b, w) in want.iter().enumerate() {
                    prop_assert!(table.items(b) == w.items, "bucket {b}: {:?} != {w:?}", table.items(b));
                    prop_assert!(table.count(b) == w.attempts, "bucket {b}: count {}", table.count(b));
                }
                prop_assert!(got_rng == want_rng, "fill drew differently");
            }
        }
    }
}
