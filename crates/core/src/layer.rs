//! One fully connected layer with optional LSH sampling machinery.

use std::time::Instant;

use rayon::prelude::*;
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_kernels::{adam_step, AdamParams, KernelMode, ROW_TILE};
use slide_lsh::dwta::DwtaHash;
use slide_lsh::family::HashFamily;
use slide_lsh::minhash::DophHash;
use slide_lsh::simhash::SimHash;
use slide_lsh::table::{LshTables, TableConfig};
use slide_lsh::wta::WtaHash;
use slide_lsh::SamplingStrategy;

use crate::config::{Activation, FamilySpec, LayerConfig, LshLayerConfig};
use crate::hogwild::{HogwildArray, HogwildMatrix};
use crate::schedule::RebuildState;

/// Per-layer scratch reused across table rebuilds so the scheduled
/// rebuilds in the training loop are allocation-free: the centered-mean
/// accumulator and row buffer, the resulting mean vector, and the
/// all-neuron bucket-index matrix all keep their capacity between calls.
#[derive(Debug, Default)]
struct RebuildScratch {
    /// `f64` accumulator for the column means (centered hashing).
    mean_acc: Vec<f64>,
    /// The centered-hashing mean vector `w̄` (empty when not centering).
    mean: Vec<f32>,
    /// Dense row buffer for the mean pass.
    row: Vec<f32>,
    /// Bucket index of every neuron in every table, `units × L`: row
    /// `j`'s index in table `t` at `j · L + t` (`table_bits ≤ 30`, so an
    /// index fits a `u32`). Phase 1 writes it, phase 2 inserts from it.
    buckets: Vec<u32>,
}

/// LSH state attached to a layer: the hash family, the `L` tables over the
/// layer's neurons, and the rebuild schedule tracker.
pub struct LayerLsh {
    pub(crate) family: Box<dyn HashFamily>,
    pub(crate) tables: LshTables,
    pub(crate) strategy: SamplingStrategy,
    pub(crate) rebuild: RebuildState,
    pub(crate) centered: bool,
    /// When set, centered rebuilds subtract THIS vector instead of the
    /// mean of the layer's own rows. A snapshot *slice* restores only a
    /// shard's rows, so its local mean would diverge from the full
    /// layer's; the slice carries the full layer's center and installs it
    /// here, keeping shard-side hashing bit-identical to the unsharded
    /// engine's.
    pub(crate) center_override: Option<Vec<f32>>,
    rebuild_count: u64,
    rng_base: Xoshiro256PlusPlus,
    scratch: RebuildScratch,
    /// Wall nanoseconds spent in rebuild phase 1 (mean, hash, bucket
    /// fold) and phase 2 (insert), summed over every rebuild.
    hash_nanos: u64,
    insert_nanos: u64,
}

impl std::fmt::Debug for LayerLsh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerLsh")
            .field("family", &self.family.kind())
            .field("k", &self.family.k())
            .field("l", &self.family.l())
            .field("strategy", &self.strategy)
            .field("rebuild_count", &self.rebuild_count)
            .finish()
    }
}

impl LayerLsh {
    /// The sampling strategy with its budget resolved.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    /// Number of table rebuilds performed (including the initial build).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuild_count
    }

    /// The hash tables (read-only).
    pub fn tables(&self) -> &LshTables {
        &self.tables
    }

    /// The hash family.
    pub fn family(&self) -> &dyn HashFamily {
        self.family.as_ref()
    }

    /// Whether table rebuilds hash centered rows (`wⱼ − w̄`).
    pub fn centered(&self) -> bool {
        self.centered
    }

    /// Seconds spent in the two phases of every table rebuild so far
    /// (the initial build included): `(hash, insert)`. Hash covers the
    /// centering mean, hashing every weight row and folding its codes to
    /// bucket indices; insert covers clearing the tables and inserting
    /// every id.
    pub fn rebuild_phase_seconds(&self) -> (f64, f64) {
        (
            self.hash_nanos as f64 * 1e-9,
            self.insert_nanos as f64 * 1e-9,
        )
    }
}

/// A fully connected layer: `units` neurons over `fan_in` inputs, with
/// HOGWILD-shared weights, Adam moments and optional [`LayerLsh`].
#[derive(Debug)]
pub struct Layer {
    units: usize,
    fan_in: usize,
    activation: Activation,
    pub(crate) weights: HogwildMatrix,
    pub(crate) biases: HogwildArray,
    w_m: HogwildMatrix,
    w_v: HogwildMatrix,
    b_m: HogwildArray,
    b_v: HogwildArray,
    pub(crate) lsh: Option<LayerLsh>,
    /// The network's kernel mode, carried here so every hashing consumer
    /// (table rebuilds, selection) dispatches identically.
    kernel_mode: KernelMode,
}

impl Layer {
    /// Builds the layer with Glorot-uniform weights and, if configured,
    /// its LSH family and (initially built) hash tables.
    pub(crate) fn new(
        fan_in: usize,
        config: &LayerConfig,
        kernel_mode: KernelMode,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        Self::new_with_init_draws(fan_in, config, kernel_mode, rng, config.units)
    }

    /// [`Layer::new`] advancing `rng` as if the layer had `init_units`
    /// neurons: the full `init_units × fan_in` Glorot draws happen (the
    /// surplus is discarded) before the hash family is built. A snapshot
    /// *slice* restores only a shard's rows of a wider layer; its family
    /// and `rng_base` must be seeded from the same RNG position as the
    /// full network's or its hash codes would diverge. The initial
    /// weights are irrelevant — the slice payload overwrites them.
    pub(crate) fn new_with_init_draws(
        fan_in: usize,
        config: &LayerConfig,
        kernel_mode: KernelMode,
        rng: &mut Xoshiro256PlusPlus,
        init_units: usize,
    ) -> Self {
        let units = config.units;
        assert!(init_units >= units, "init_units below layer units");
        let bound = (6.0 / (fan_in + init_units) as f64).sqrt() as f32;
        let mut values = vec![0.0f32; units * fan_in];
        for v in &mut values {
            *v = (rng.next_f32() * 2.0 - 1.0) * bound;
        }
        for _ in units * fan_in..init_units * fan_in {
            rng.next_f32();
        }
        let weights = HogwildMatrix::from_values(units, fan_in, &values);
        let biases = HogwildArray::zeroed(units);
        let lsh = config.lsh.as_ref().map(|cfg| {
            let family = build_family(cfg, fan_in, rng);
            let table_config = TableConfig::new(cfg.k, cfg.l)
                .with_table_bits(cfg.table_bits)
                .with_bucket_capacity(cfg.bucket_capacity)
                .with_policy(cfg.policy);
            let strategy = resolve_strategy(cfg.strategy, units);
            LayerLsh {
                family,
                tables: LshTables::new(table_config),
                strategy,
                rebuild: cfg.rebuild.start(),
                centered: cfg.center_rows,
                center_override: None,
                rebuild_count: 0,
                rng_base: Xoshiro256PlusPlus::seed_from_u64(rng.next_u64()),
                scratch: RebuildScratch::default(),
                hash_nanos: 0,
                insert_nanos: 0,
            }
        });
        let mut layer = Self {
            units,
            fan_in,
            activation: config.activation,
            weights,
            biases,
            w_m: HogwildMatrix::zeroed(units, fan_in),
            w_v: HogwildMatrix::zeroed(units, fan_in),
            b_m: HogwildArray::zeroed(units),
            b_v: HogwildArray::zeroed(units),
            lsh: None,
            kernel_mode,
        };
        layer.lsh = lsh;
        if layer.lsh.is_some() {
            layer.rebuild_tables();
        }
        layer
    }

    /// Number of neurons.
    #[inline]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Fan-in (previous layer size).
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The nonlinearity.
    #[inline]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// LSH state, if this layer is sampled.
    pub fn lsh(&self) -> Option<&LayerLsh> {
        self.lsh.as_ref()
    }

    /// The kernel mode this layer's hashing dispatches with (the
    /// network-wide setting).
    #[inline]
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel_mode
    }

    /// The weight matrix (`units × fan_in`).
    pub fn weights(&self) -> &HogwildMatrix {
        &self.weights
    }

    /// The bias vector.
    pub fn biases(&self) -> &HogwildArray {
        &self.biases
    }

    /// Pre-activation of neuron `j` for a sparse input given as parallel
    /// `(ids, values)` slices: `b_j + Σᵢ w[j][idᵢ]·valᵢ`.
    ///
    /// One fused [`slide_kernels::gather_dot`] over the neuron's row
    /// slice. `KernelMode::Vectorized` is the 8-lane unrolled gather with
    /// prefetch (the paper's SIMD/ILP optimization, §5.4); `Scalar` is
    /// the strict sequential loop `tests/equivalence.rs` pins.
    #[inline]
    pub(crate) fn neuron_z(&self, j: u32, ids: &[u32], vals: &[f32], mode: KernelMode) -> f32 {
        slide_kernels::gather_dot(
            self.weights.row(j as usize),
            ids,
            vals,
            self.biases.get(j as usize),
            mode,
        )
    }

    /// Prefetches the start of neuron `j`'s weight row (software
    /// pipelining, paper Appendix D).
    #[inline]
    pub(crate) fn prefetch_row(&self, j: u32) {
        let row = j as usize * self.fan_in;
        let flat = self.weights.flat();
        // One hint per cache line across the row head, clamped to the
        // row's actual length (16 floats per 64-byte line) so a short row
        // never prefetches into the next neuron's weights.
        let lines = self.fan_in.div_ceil(16).min(4);
        for line in 0..lines {
            flat.prefetch(row + line * 16);
        }
    }

    /// Prefetches the heads of neuron `j`'s weight and Adam-moment rows —
    /// the three streams [`Layer::update_row`] is about to sweep.
    #[inline]
    pub(crate) fn prefetch_update_row(&self, j: u32) {
        let row = j as usize * self.fan_in;
        let lines = self.fan_in.div_ceil(16).min(2);
        for line in 0..lines {
            self.weights.flat().prefetch(row + line * 16);
            self.w_m.flat().prefetch(row + line * 16);
            self.w_v.flat().prefetch(row + line * 16);
        }
    }

    /// One fused HOGWILD Adam sweep over neuron `j`'s row for the
    /// prev-active `(ids, vals)` pairs with error signal `delta`: loads
    /// each touched `w/m/v` once, accumulates `delta · w_old` into
    /// `prev_delta` (the message to the previous layer, when given) and
    /// stores the Adam-updated triple — backward's per-pair loop as one
    /// pass (see [`slide_kernels::adam_step_gather`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn update_row(
        &self,
        j: u32,
        ids: &[u32],
        vals: &[f32],
        delta: f32,
        prev_delta: Option<&mut [f32]>,
        adam: &AdamParams,
        clr: f32,
        mode: KernelMode,
    ) {
        let j = j as usize;
        slide_kernels::adam_step_gather(
            self.weights.row(j),
            self.w_m.row(j),
            self.w_v.row(j),
            ids,
            vals,
            delta,
            prev_delta,
            adam,
            clr,
            mode,
        );
    }

    /// One HOGWILD Adam update of weight `(j, i)` with gradient `g` —
    /// the scalar reference primitive. The training hot path updates
    /// whole rows at once through `Layer::update_row`'s fused sweep.
    #[inline]
    pub fn update_weight(&self, j: u32, i: u32, g: f32, adam: &AdamParams, clr: f32) {
        let idx = self.weights.index(j as usize, i as usize);
        let w = self.weights.flat().get(idx);
        let m = self.w_m.flat().get(idx);
        let v = self.w_v.flat().get(idx);
        let (w2, m2, v2) = adam_step(w, m, v, g, adam, clr);
        self.weights.flat().set(idx, w2);
        self.w_m.flat().set(idx, m2);
        self.w_v.flat().set(idx, v2);
    }

    /// One HOGWILD Adam update of bias `j` with gradient `g`.
    #[inline]
    pub(crate) fn update_bias(&self, j: u32, g: f32, adam: &AdamParams, clr: f32) {
        let j = j as usize;
        let (b2, m2, v2) = adam_step(
            self.biases.get(j),
            self.b_m.get(j),
            self.b_v.get(j),
            g,
            adam,
            clr,
        );
        self.biases.set(j, b2);
        self.b_m.set(j, m2);
        self.b_v.set(j, v2);
    }

    /// Recomputes every neuron's hash codes from the current weights and
    /// rebuilds all tables (paper §3.1 "Update Hash Tables after Weight
    /// Updates"; parallelized over neurons for hashing and over tables for
    /// insertion, so no locks are needed).
    ///
    /// No-op for dense layers.
    pub fn rebuild_tables(&mut self) {
        let Some(lsh) = self.lsh.as_mut() else {
            return;
        };
        let start = Instant::now();
        let num_codes = lsh.family.num_codes();
        let k = lsh.tables.config().k;
        let l = lsh.tables.num_tables();
        let policy = lsh.tables.config().policy;
        let units = self.units;
        let fan_in = self.fan_in;
        let weights = &self.weights;
        let family = lsh.family.as_ref();
        let mode = self.kernel_mode;

        // All rebuild buffers come from the per-layer scratch (taken by
        // value to sidestep the simultaneous `family`/`tables` borrows),
        // so scheduled rebuilds reuse their capacity instead of
        // allocating; only the first rebuild at each size grows them.
        let mut scratch = std::mem::take(&mut lsh.scratch);

        // Centered hashing: remove the common component all rows share
        // (softmax pushes every class away from the typical input, and
        // that shared direction otherwise dominates cosine similarity).
        // Subtracting one fixed vector from every row leaves the layer's
        // score ranking unchanged for any query.
        scratch.mean.clear();
        if lsh.centered {
            if let Some(center) = &lsh.center_override {
                scratch.mean.extend_from_slice(center);
            } else {
                scratch.mean_acc.clear();
                scratch.mean_acc.resize(fan_in, 0.0);
                scratch.row.clear();
                scratch.row.resize(fan_in, 0.0);
                for j in 0..units {
                    weights.read_row_into(j, &mut scratch.row);
                    for (a, &r) in scratch.mean_acc.iter_mut().zip(&scratch.row) {
                        *a += r as f64;
                    }
                }
                scratch
                    .mean
                    .extend(scratch.mean_acc.iter().map(|&a| (a / units as f64) as f32));
            }
        }
        let mean = &scratch.mean;

        // Phase 1: hash ROW_TILE neurons' weight rows per task (parallel
        // over row tiles) and fold each row's K-code groups into its
        // bucket index in every table, so phase 2 reads 4 bytes per
        // (row, table) instead of K codes.
        let tables = lsh.tables.tables();
        scratch.buckets.clear();
        scratch.buckets.resize(units * l, 0);
        scratch
            .buckets
            .par_chunks_mut(ROW_TILE * l)
            .enumerate()
            .for_each_init(
                || {
                    (
                        vec![0.0f32; ROW_TILE * fan_in],
                        vec![0u32; ROW_TILE * num_codes],
                    )
                },
                |(rows, codes), (c, out)| {
                    let n = out.len() / l;
                    let rows = &mut rows[..n * fan_in];
                    for (r, row) in rows.chunks_exact_mut(fan_in).enumerate() {
                        weights.read_row_into(c * ROW_TILE + r, row);
                        if !mean.is_empty() {
                            for (x, &m) in row.iter_mut().zip(mean) {
                                *x -= m;
                            }
                        }
                    }
                    // Codes bit-identical to `hash_dense_mode`, the entry
                    // selection hashes queries through, so the tables and
                    // the queries can never diverge.
                    let codes = &mut codes[..n * num_codes];
                    family.hash_dense_rows_mode(rows, codes, mode);
                    for (ids, row_codes) in
                        out.chunks_exact_mut(l).zip(codes.chunks_exact(num_codes))
                    {
                        for ((id, table), group) in
                            ids.iter_mut().zip(tables).zip(row_codes.chunks_exact(k))
                        {
                            *id = table.bucket_index(group) as u32;
                        }
                    }
                },
            );
        let hashed = Instant::now();

        // Phase 2: insert ids (parallel over tables; each table is owned
        // by exactly one task and takes its ids in ascending order).
        lsh.rebuild_count += 1;
        let rebuild_count = lsh.rebuild_count;
        let rng_base = lsh.rng_base.clone();
        let buckets = &scratch.buckets;
        lsh.tables.clear();
        lsh.tables
            .tables_mut()
            .par_iter_mut()
            .enumerate()
            .for_each(|(t, table)| {
                let mut rng = rng_base.stream(rebuild_count * 1_000_003 + t as u64);
                for (j, ids) in buckets.chunks_exact(l).enumerate() {
                    table.insert_at(ids[t] as usize, j as u32, policy, &mut rng);
                }
            });
        lsh.scratch = scratch;
        lsh.hash_nanos += (hashed - start).as_nanos() as u64;
        lsh.insert_nanos += hashed.elapsed().as_nanos() as u64;
    }

    /// Sets the centered-row hashing mode; the caller must rebuild the
    /// tables for it to take effect. No-op for dense layers.
    pub(crate) fn set_centered(&mut self, on: bool) {
        if let Some(lsh) = self.lsh.as_mut() {
            lsh.centered = on;
        }
    }

    /// Installs (or clears) the fixed centering vector centered rebuilds
    /// subtract instead of the layer's own row mean (see
    /// [`LayerLsh::center_override`]). The caller must rebuild the tables
    /// for it to take effect. No-op for dense layers.
    pub(crate) fn set_center_override(&mut self, center: Option<Vec<f32>>) {
        if let Some(lsh) = self.lsh.as_mut() {
            lsh.center_override = center;
        }
    }

    /// Checks the rebuild schedule after `iteration` and rebuilds if due.
    /// Returns `true` if a rebuild happened.
    pub fn maintain(&mut self, iteration: u64) -> bool {
        let due = match self.lsh.as_mut() {
            Some(lsh) => lsh.rebuild.should_rebuild(iteration),
            None => false,
        };
        if due {
            self.rebuild_tables();
        }
        due
    }
}

fn resolve_strategy(strategy: SamplingStrategy, units: usize) -> SamplingStrategy {
    match strategy {
        SamplingStrategy::Vanilla { budget } => SamplingStrategy::Vanilla {
            budget: LshLayerConfig::resolve_budget(budget, units),
        },
        SamplingStrategy::TopK { budget } => SamplingStrategy::TopK {
            budget: LshLayerConfig::resolve_budget(budget, units),
        },
        other => other,
    }
}

fn build_family(
    cfg: &LshLayerConfig,
    fan_in: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Box<dyn HashFamily> {
    match cfg.family {
        FamilySpec::SimHash { sparsity } => {
            Box::new(SimHash::new(fan_in, cfg.k, cfg.l, sparsity, rng))
        }
        FamilySpec::Wta { m } => Box::new(WtaHash::new(fan_in, cfg.k, cfg.l, m, rng)),
        FamilySpec::Dwta { m } => Box::new(DwtaHash::new(fan_in, cfg.k, cfg.l, m, rng)),
        FamilySpec::Doph { bin_width, top_t } => {
            Box::new(DophHash::new(fan_in, cfg.k, cfg.l, bin_width, top_t, rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Activation;
    use slide_lsh::InsertionPolicy;

    fn relu_layer(fan_in: usize, units: usize, lsh: Option<LshLayerConfig>) -> Layer {
        let cfg = LayerConfig {
            units,
            activation: Activation::Relu,
            lsh,
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        Layer::new(fan_in, &cfg, KernelMode::Vectorized, &mut rng)
    }

    #[test]
    fn dense_layer_has_no_lsh() {
        let mut layer = relu_layer(10, 4, None);
        assert!(layer.lsh().is_none());
        assert_eq!(layer.units(), 4);
        assert_eq!(layer.fan_in(), 10);
        assert!(!layer.maintain(1000));
    }

    #[test]
    fn weights_initialized_in_glorot_range() {
        let layer = relu_layer(100, 50, None);
        let bound = (6.0f32 / 150.0).sqrt();
        for j in 0..50 {
            for i in 0..100 {
                let w = layer.weights().get(j, i);
                assert!(w.abs() <= bound, "w[{j}][{i}] = {w}");
            }
        }
        // Not all zero.
        let sum: f32 = (0..50).map(|j| layer.weights().get(j, 0).abs()).sum();
        assert!(sum > 0.0);
    }

    #[test]
    fn lsh_layer_builds_tables_on_construction() {
        let layer = relu_layer(32, 100, Some(LshLayerConfig::simhash(3, 6)));
        let lsh = layer.lsh().unwrap();
        assert_eq!(lsh.rebuild_count(), 1);
        let stats = lsh.tables().stats();
        // Every neuron is inserted into every table (capacity permitting).
        assert!(stats.total_items > 0);
        assert!(stats.total_items <= 100 * 6);
    }

    #[test]
    fn neuron_z_matches_manual_dot() {
        let layer = relu_layer(5, 3, None);
        layer.biases.set(1, 0.5);
        let ids = [0u32, 3];
        let vals = [2.0f32, -1.0];
        let expect = 0.5 + layer.weights().get(1, 0) * 2.0 + -layer.weights().get(1, 3);
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            assert!((layer.neuron_z(1, &ids, &vals, mode) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn self_retrieval_after_rebuild() {
        // A neuron queried with its own weight vector must appear in at
        // least one of its buckets — the fundamental LSH invariant the
        // whole system rests on.
        let mut layer = relu_layer(16, 50, Some(LshLayerConfig::simhash(4, 10)));
        layer.rebuild_tables();
        let lsh = layer.lsh().unwrap();
        let mut row = vec![0.0f32; 16];
        let mut codes = vec![0u32; lsh.family().num_codes()];
        let mut found_any = 0;
        for j in 0..50u32 {
            layer.weights().read_row_into(j as usize, &mut row);
            lsh.family().hash_dense(&row, &mut codes);
            let hit = (0..10).any(|t| lsh.tables().bucket(t, &codes).contains(&j));
            found_any += hit as usize;
        }
        assert!(found_any >= 45, "only {found_any}/50 neurons self-retrieve");
    }

    /// The tables `rebuild_tables` must build, recomputed naively: every
    /// row hashed on its own by the scalar reference, its K-code groups
    /// mapped with `Table::bucket_index`, and each table filled with the
    /// ids in ascending order from the rebuild's RNG stream.
    fn reference_tables(layer: &Layer) -> LshTables {
        let lsh = layer.lsh().unwrap();
        let (units, fan_in) = (layer.units(), layer.fan_in());
        let config = *lsh.tables().config();
        let nc = lsh.family().num_codes();
        let mut row = vec![0.0f32; fan_in];
        let mut mean = Vec::new();
        if lsh.centered() {
            let mut acc = vec![0.0f64; fan_in];
            for j in 0..units {
                layer.weights().read_row_into(j, &mut row);
                for (a, &x) in acc.iter_mut().zip(&row) {
                    *a += x as f64;
                }
            }
            mean = acc.iter().map(|&a| (a / units as f64) as f32).collect();
        }
        let mut codes = vec![0u32; units * nc];
        for (j, out) in codes.chunks_exact_mut(nc).enumerate() {
            layer.weights().read_row_into(j, &mut row);
            for (x, &m) in row.iter_mut().zip(&mean) {
                *x -= m;
            }
            lsh.family().hash_dense_mode(&row, out, KernelMode::Scalar);
        }
        let mut tables = LshTables::new(config);
        for (t, table) in tables.tables_mut().iter_mut().enumerate() {
            let mut rng = lsh
                .rng_base
                .stream(lsh.rebuild_count * 1_000_003 + t as u64);
            for (j, row_codes) in codes.chunks_exact(nc).enumerate() {
                let bucket = table.bucket_index(&row_codes[t * config.k..(t + 1) * config.k]);
                table.insert_at(bucket, j as u32, config.policy, &mut rng);
            }
        }
        tables
    }

    /// Asserts `layer`'s tables equal the naive reference bucket by
    /// bucket (ids in slot order, and attempts); returns how many buckets
    /// overflowed.
    fn assert_matches_reference(layer: &Layer, case: &str) -> usize {
        let want = reference_tables(layer);
        let got = layer.lsh().unwrap().tables();
        let mut overflowed = 0;
        for (t, (a, b)) in got.tables().iter().zip(want.tables()).enumerate() {
            for (i, (x, y)) in a.buckets().iter().zip(b.buckets()).enumerate() {
                assert_eq!(x.items(), y.items(), "{case}: table {t} bucket {i}");
                assert_eq!(x.attempts(), y.attempts(), "{case}: table {t} bucket {i}");
                overflowed += (x.attempts() > x.capacity() as u64) as usize;
            }
        }
        overflowed
    }

    #[test]
    fn vectorized_rebuild_matches_a_naive_scalar_oracle() {
        // 103 units (not a multiple of ROW_TILE); SimHash with K·L = 15
        // planes (not a multiple of 8) through the row-tiled kernel, and
        // DWTA through the per-row default; both policies; default and
        // overflowing capacity-2 buckets; centered rows on and off; the
        // initial build and a rebuild after some rows moved.
        let (fan_in, units) = (24, 103);
        for family in [LshLayerConfig::simhash(3, 5), LshLayerConfig::dwta(2, 7)] {
            for policy in [InsertionPolicy::Fifo, InsertionPolicy::Reservoir] {
                for small in [false, true] {
                    for centered in [false, true] {
                        let mut cfg = family
                            .clone()
                            .with_policy(policy)
                            .with_centered_rows(centered);
                        if small {
                            cfg = cfg.with_tables(3, 2);
                        }
                        let case = format!(
                            "{:?} {policy} small={small} centered={centered}",
                            cfg.family
                        );
                        let mut layer = relu_layer(fan_in, units, Some(cfg));
                        let first = assert_matches_reference(&layer, &case);
                        let adam = AdamParams::with_lr(0.5);
                        for j in (0..units as u32).step_by(5) {
                            for i in 0..fan_in as u32 {
                                layer.update_weight(j, i, 1.0, &adam, 1.0);
                            }
                        }
                        layer.rebuild_tables();
                        assert_eq!(layer.lsh().unwrap().rebuild_count(), 2);
                        let second = assert_matches_reference(&layer, &case);
                        if small {
                            assert!(first > 0 && second > 0, "{case}: no bucket overflowed");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_phase_clock_splits_the_rebuild() {
        let mut layer = relu_layer(32, 500, Some(LshLayerConfig::simhash(4, 8)));
        let (h0, i0) = layer.lsh().unwrap().rebuild_phase_seconds();
        assert!(h0 > 0.0 && i0 > 0.0, "the initial build is counted");
        let start = Instant::now();
        layer.rebuild_tables();
        let wall = start.elapsed().as_secs_f64();
        let (h1, i1) = layer.lsh().unwrap().rebuild_phase_seconds();
        let (hash, insert) = (h1 - h0, i1 - i0);
        assert!(hash > 0.0 && insert > 0.0, "hash {hash} insert {insert}");
        assert!(hash + insert <= wall, "{hash} + {insert} > {wall}");
    }

    #[test]
    fn maintain_follows_schedule() {
        let lsh_cfg =
            LshLayerConfig::simhash(2, 3).with_rebuild(crate::schedule::RebuildSchedule::fixed(10));
        let mut layer = relu_layer(8, 20, Some(lsh_cfg));
        assert_eq!(layer.lsh().unwrap().rebuild_count(), 1);
        assert!(!layer.maintain(5));
        assert!(layer.maintain(10));
        assert_eq!(layer.lsh().unwrap().rebuild_count(), 2);
        assert!(!layer.maintain(11));
        assert!(layer.maintain(25)); // past 20
    }

    #[test]
    fn update_weight_moves_toward_negative_gradient() {
        let layer = relu_layer(4, 2, None);
        let adam = AdamParams::with_lr(0.01);
        let before = layer.weights().get(0, 0);
        let clr = adam.corrected_lr(1);
        layer.update_weight(0, 0, 1.0, &adam, clr); // positive gradient
        assert!(layer.weights().get(0, 0) < before);
        let b_before = layer.biases().get(1);
        layer.update_bias(1, -1.0, &adam, clr); // negative gradient
        assert!(layer.biases().get(1) > b_before);
    }

    #[test]
    fn budget_resolved_at_construction() {
        let layer = relu_layer(8, 10_000, Some(LshLayerConfig::simhash(2, 3)));
        match layer.lsh().unwrap().strategy() {
            SamplingStrategy::Vanilla { budget } => assert_eq!(budget, 50),
            other => panic!("unexpected strategy {other:?}"),
        }
    }
}
