//! (K, L)-parameterized LSH tables over neuron ids (paper §2, §3.2).
//!
//! `L` independent tables; each table buckets items by a *meta-hash* — the
//! concatenation of `K` codes from the hash family. Bucket addressing
//! folds the `K` codes with an avalanche mixer into `2^table_bits`
//! buckets, so any [`crate::family::HashFamily`] code range works with any
//! table size; identical code vectors always land in the same bucket.

use slide_data::rng::{mix64, Rng};

use crate::bucket::Bucket;
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

/// One of the `L` hash tables.
#[derive(Debug, Clone)]
pub struct Table {
    buckets: Vec<Bucket>,
    mask: u64,
}

impl Table {
    fn new(config: &TableConfig) -> Self {
        Self {
            buckets: vec![Bucket::new(config.bucket_capacity); config.num_buckets()],
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

    /// Inserts `id` with the bucket selected by `codes` (length `K`).
    pub fn insert<R: Rng>(&mut self, id: u32, codes: &[u32], policy: InsertionPolicy, rng: &mut R) {
        self.insert_at(self.bucket_index(codes), id, policy, rng);
    }

    /// Inserts `id` into bucket `bucket`, an index
    /// [`Table::bucket_index`] returned — for callers that fold codes to
    /// bucket indices ahead of the insert pass.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below the table's bucket count.
    pub fn insert_at<R: Rng>(
        &mut self,
        bucket: usize,
        id: u32,
        policy: InsertionPolicy,
        rng: &mut R,
    ) {
        self.buckets[bucket].insert(id, policy, rng);
    }

    /// Items in the bucket selected by `codes`.
    #[inline]
    pub fn bucket(&self, codes: &[u32]) -> &[u32] {
        self.buckets[self.bucket_index(codes)].items()
    }

    /// All buckets (for occupancy statistics).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Empties every bucket.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
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

    /// Inserts `id` into all `L` tables. `codes` must hold `K·L` codes
    /// laid out as `L` groups of `K` (the [`crate::family::HashFamily`]
    /// layout).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != K·L`.
    pub fn insert<R: Rng>(&mut self, id: u32, codes: &[u32], rng: &mut R) {
        assert_eq!(
            codes.len(),
            self.config.k * self.config.l,
            "codes length must be K*L"
        );
        for (t, table) in self.tables.iter_mut().enumerate() {
            let group = &codes[t * self.config.k..(t + 1) * self.config.k];
            table.insert(id, group, self.config.policy, rng);
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

    /// Empties all tables (start of a rebuild).
    pub fn clear(&mut self) {
        for t in &mut self.tables {
            t.clear();
        }
    }

    /// Computes occupancy statistics.
    pub fn stats(&self) -> TableStats {
        let mut total_items = 0;
        let mut nonempty = 0;
        let mut full = 0;
        let mut total_buckets = 0;
        for t in &self.tables {
            for b in t.buckets() {
                total_buckets += 1;
                if !b.is_empty() {
                    nonempty += 1;
                    total_items += b.len();
                    if b.len() == b.capacity() {
                        full += 1;
                    }
                }
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
    fn identical_codes_land_in_same_bucket() {
        let mut tables = LshTables::new(TableConfig::new(3, 4));
        let mut r = rng(1);
        let codes = vec![1u32, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1];
        tables.insert(7, &codes, &mut r);
        tables.insert(8, &codes, &mut r);
        for t in 0..4 {
            let b = tables.bucket(t, &codes);
            assert!(b.contains(&7) && b.contains(&8));
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
    fn insert_validates_code_length() {
        let mut tables = LshTables::new(TableConfig::new(2, 2));
        let mut r = rng(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tables.insert(1, &[0, 1, 0], &mut r);
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
        let mut r = rng(3);
        for id in 0..10u32 {
            let codes: Vec<u32> = (0..6).map(|j| (id + j) % 2).collect();
            tables.insert(id, &codes, &mut r);
        }
        let s = tables.stats();
        assert!(s.total_items > 0);
        assert!(s.nonempty_buckets > 0);
        assert_eq!(s.total_buckets, 3 * 16);
        assert!(s.avg_bucket_load >= 1.0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut tables = LshTables::new(TableConfig::new(2, 2).with_table_bits(4));
        let mut r = rng(4);
        tables.insert(1, &[0, 1, 1, 0], &mut r);
        tables.clear();
        assert_eq!(tables.stats().total_items, 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut tables = LshTables::new(
            TableConfig::new(1, 1)
                .with_table_bits(1)
                .with_bucket_capacity(3),
        );
        let mut r = rng(5);
        for id in 0..100u32 {
            tables.insert(id, &[0], &mut r);
        }
        let s = tables.stats();
        assert!(s.total_items <= 2 * 3); // 2 buckets × capacity 3
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
    }
}
