//! One fully connected layer with optional LSH sampling machinery.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
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
    /// The center `buckets` was hashed with (empty when not centering).
    center: Vec<f32>,
    /// Dense row buffer for the mean pass.
    row: Vec<f32>,
    /// Bucket index of every neuron in every table, `units × L`: row
    /// `j`'s index in table `t` at `j · L + t` (`table_bits ≤ 30`, so an
    /// index fits a `u32`). Kept between builds: phase 1 rewrites the
    /// rows written since the last build, phase 2 inserts from all of it.
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
    /// One flag per unit, set by every write to the unit's weights and
    /// cleared by the build that rehashes it. HOGWILD workers set them
    /// with a relaxed check-then-store (no locked read-modify-write on
    /// shared lines). Relaxed suffices: builds run stop-the-world, and
    /// the join of the workers orders their flag and weight stores
    /// before the build's loads.
    dirty: Box<[AtomicU8]>,
    /// Rows hashed, summed over every build.
    rows_hashed: u64,
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

    /// Number of table builds so far, the initial build included. A
    /// restored layer counts the initial build it skipped (see
    /// `Network::for_restore`), so its one build after the restore reads
    /// 2, as for a network built and then rebuilt.
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

    /// Seconds spent in the two phases of every table build this layer
    /// performed (an initial build included): `(hash, insert)`. Hash
    /// covers the centering mean, hashing the weight rows written since
    /// the last build (every row on a full build, see
    /// [`Layer::rebuild_tables`]) and folding their codes to bucket
    /// indices; insert covers clearing the tables and inserting every id.
    pub fn rebuild_phase_seconds(&self) -> (f64, f64) {
        (
            self.hash_nanos as f64 * 1e-9,
            self.insert_nanos as f64 * 1e-9,
        )
    }

    /// Weight rows hashed, summed over every table build this layer
    /// performed (an initial build included): `units` per full build,
    /// the rows written since the last build otherwise.
    pub fn rows_hashed(&self) -> u64 {
        self.rows_hashed
    }

    /// Flags unit `j`'s row for the next build to rehash.
    #[inline]
    fn mark(&self, j: usize) {
        let flag = &self.dirty[j];
        if flag.load(Ordering::Relaxed) == 0 {
            flag.store(1, Ordering::Relaxed);
        }
    }
}

/// A fully connected layer: `units` neurons over `fan_in` inputs, with
/// HOGWILD-shared weights, Adam moments and optional [`LayerLsh`].
///
/// The weights and their Adam moments are stored in one of two
/// orientations, fixed at construction from the network's shape:
/// **unit-major** (`units × fan_in`, row `j` is unit `j`'s fan-in) or,
/// for a first layer that reads the sparse input and is not the output
/// layer, **input-major** (`fan_in × units`, row `i` is input `i`'s
/// weight into every unit). An example then touches one contiguous row
/// per feature id instead of one scattered cell per (unit, feature).
/// [`Layer::weight`], [`Layer::set_weight`] and
/// [`Layer::read_unit_into`] address weights by `(unit, input)` in
/// either orientation.
#[derive(Debug)]
pub struct Layer {
    units: usize,
    fan_in: usize,
    activation: Activation,
    /// Whether `weights` and its moments are stored `fan_in × units`.
    input_major: bool,
    weights: HogwildMatrix,
    pub(crate) biases: HogwildArray,
    /// The weights' Adam moments `[m, v]`, in `weights`' orientation.
    /// Allocated by the first update, so a network that only serves
    /// never holds them.
    w_moments: OnceLock<[HogwildMatrix; 2]>,
    b_m: HogwildArray,
    b_v: HogwildArray,
    pub(crate) lsh: Option<LayerLsh>,
    /// The network's kernel mode, carried here so every hashing consumer
    /// (table rebuilds, selection) dispatches identically.
    kernel_mode: KernelMode,
}

impl Layer {
    /// Builds the layer with Glorot-uniform weights and, if configured,
    /// its LSH family and (initially built) hash tables. `input_major`
    /// picks the storage orientation (see [`Layer`]).
    pub(crate) fn new(
        fan_in: usize,
        config: &LayerConfig,
        kernel_mode: KernelMode,
        rng: &mut Xoshiro256PlusPlus,
        input_major: bool,
    ) -> Self {
        let units = config.units;
        let layer = Self::zeroed(fan_in, config, kernel_mode, input_major);
        // Glorot draws in unit-major order whatever the orientation, so
        // both store the same weights. One `next_f32` (one `next_u64`)
        // per weight: a snapshot restore skips exactly that many.
        let bound = (6.0 / (fan_in + units) as f64).sqrt() as f32;
        let glorot = |rng: &mut Xoshiro256PlusPlus| (rng.next_f32() * 2.0 - 1.0) * bound;
        if input_major {
            // A unit's draws fill a column, one cell per cache line: draw
            // a block of units in stream order, then store it row by row.
            let mut block = vec![0.0f32; UNIT_BLOCK.min(units) * fan_in];
            for first in (0..units).step_by(UNIT_BLOCK) {
                let rows = &mut block[..UNIT_BLOCK.min(units - first) * fan_in];
                for w in rows.iter_mut() {
                    *w = glorot(rng);
                }
                layer.set_units(first, rows);
            }
        } else {
            for j in 0..units {
                for i in 0..fan_in {
                    layer.set_weight(j, i, glorot(rng));
                }
            }
        }
        let mut layer = layer.with_lsh(config, rng, 0);
        layer.rebuild_tables();
        layer
    }

    /// The layer with zeroed weights, biases and Adam state and no LSH.
    pub(crate) fn zeroed(
        fan_in: usize,
        config: &LayerConfig,
        kernel_mode: KernelMode,
        input_major: bool,
    ) -> Self {
        let units = config.units;
        let (rows, cols) = if input_major {
            (fan_in, units)
        } else {
            (units, fan_in)
        };
        Self {
            units,
            fan_in,
            activation: config.activation,
            input_major,
            weights: HogwildMatrix::zeroed(rows, cols),
            biases: HogwildArray::zeroed(units),
            w_moments: OnceLock::new(),
            b_m: HogwildArray::zeroed(units),
            b_v: HogwildArray::zeroed(units),
            lsh: None,
            kernel_mode,
        }
    }

    /// Attaches the configured LSH state (none for a dense layer): draws
    /// the hash family and the rebuild RNG base from `rng`, over empty
    /// tables that count `rebuild_count` builds so far. The caller builds
    /// the tables; the next build inserts from the stream of build
    /// `rebuild_count + 1`.
    pub(crate) fn with_lsh(
        mut self,
        config: &LayerConfig,
        rng: &mut Xoshiro256PlusPlus,
        rebuild_count: u64,
    ) -> Self {
        self.lsh = config.lsh.as_ref().map(|cfg| {
            let family = build_family(cfg, self.fan_in, rng);
            let table_config = TableConfig::new(cfg.k, cfg.l)
                .with_table_bits(cfg.table_bits)
                .with_bucket_capacity(cfg.bucket_capacity)
                .with_policy(cfg.policy);
            LayerLsh {
                family,
                tables: LshTables::new(table_config),
                strategy: resolve_strategy(cfg.strategy, self.units),
                rebuild: cfg.rebuild.start(),
                centered: cfg.center_rows,
                center_override: None,
                rebuild_count,
                rng_base: Xoshiro256PlusPlus::seed_from_u64(rng.next_u64()),
                scratch: RebuildScratch::default(),
                dirty: (0..self.units).map(|_| AtomicU8::new(0)).collect(),
                rows_hashed: 0,
                hash_nanos: 0,
                insert_nanos: 0,
            }
        });
        self
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

    /// Whether the weights are stored input-major (`fan_in × units`; see
    /// [`Layer`]).
    #[inline]
    pub fn input_major(&self) -> bool {
        self.input_major
    }

    /// The weight matrix as stored: `units × fan_in` (row `j` is unit
    /// `j`'s fan-in) for a unit-major layer, `fan_in × units` (row `i` is
    /// input `i`'s weight into every unit) for an input-major one — check
    /// [`Layer::input_major`]. To address one unit's weights in either
    /// orientation use [`Layer::weight`], [`Layer::set_weight`] or
    /// [`Layer::read_unit_into`]. Write through [`Layer::set_weight`]:
    /// it flags the unit for the next table build, and a cell write
    /// through this matrix would not (slide-lint's `weight-writes-mark`
    /// rule bars such writes outside this module).
    pub fn weights(&self) -> &HogwildMatrix {
        &self.weights
    }

    /// The weights' Adam moments `[m, v]`, allocated (zeroed) on first
    /// use.
    #[inline]
    fn moments(&self) -> &[HogwildMatrix; 2] {
        self.w_moments.get_or_init(|| {
            let (rows, cols) = (self.weights.rows(), self.weights.cols());
            [
                HogwildMatrix::zeroed(rows, cols),
                HogwildMatrix::zeroed(rows, cols),
            ]
        })
    }

    /// Flat index of weight `(unit j, input i)` in the stored matrix (and
    /// in its Adam moments, which share its orientation).
    #[inline]
    fn weight_index(&self, j: usize, i: usize) -> usize {
        debug_assert!(j < self.units && i < self.fan_in);
        if self.input_major {
            i * self.units + j
        } else {
            j * self.fan_in + i
        }
    }

    /// Unit `j`'s weight on input `i`, in either orientation.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn weight(&self, j: usize, i: usize) -> f32 {
        self.weights.flat().get(self.weight_index(j, i))
    }

    /// Stores unit `j`'s weight on input `i`, in either orientation.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set_weight(&self, j: usize, i: usize, value: f32) {
        self.weights.flat().set(self.weight_index(j, i), value);
        self.mark_written(j);
    }

    /// Flags unit `j` for the next table build to rehash (no-op for a
    /// dense layer). Every write to a unit's weights calls it; bias
    /// writes do not, since builds hash weights only.
    #[inline]
    fn mark_written(&self, j: usize) {
        if let Some(lsh) = &self.lsh {
            lsh.mark(j);
        }
    }

    /// Stores the weights of units `first..first + n` from `n` unit-major
    /// rows (unit `first + b`'s fan-in at `rows[b·fan_in..]`), in either
    /// orientation. Input-major, each stored row takes the block's cells
    /// in one contiguous write, so writing [`UNIT_BLOCK`] units at a time
    /// costs one pass over the rows instead of one strided column per
    /// unit.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `fan_in` or the units
    /// run past the layer.
    pub(crate) fn set_units(&self, first: usize, rows: &[f32]) {
        let n = rows.len() / self.fan_in.max(1);
        assert_eq!(n * self.fan_in, rows.len(), "rows must be whole units");
        assert!(first + n <= self.units, "units past the layer");
        for j in first..first + n {
            self.mark_written(j);
        }
        if self.input_major {
            for i in 0..self.fan_in {
                let cells = &self.weights.row(i)[first..first + n];
                for (cell, unit) in cells.iter().zip(rows.chunks_exact(self.fan_in)) {
                    slide_kernels::fused::write(cell, unit[i]);
                }
            }
        } else {
            let cells = &self.weights.all_rows()[first * self.fan_in..][..rows.len()];
            for (cell, &w) in cells.iter().zip(rows) {
                slide_kernels::fused::write(cell, w);
            }
        }
    }

    /// Copies unit `j`'s `fan_in` weights into `out`, in either
    /// orientation (a strided column read when input-major).
    ///
    /// # Panics
    ///
    /// Panics if `j >= units` or `out.len() != fan_in`.
    pub fn read_unit_into(&self, j: usize, out: &mut [f32]) {
        read_unit(&self.weights, self.input_major, j, out);
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
    /// Unit-major layers only.
    #[inline]
    pub(crate) fn neuron_z(&self, j: u32, ids: &[u32], vals: &[f32], mode: KernelMode) -> f32 {
        debug_assert!(!self.input_major, "neuron_z on an input-major layer");
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
        let [m, v] = self.moments();
        for line in 0..lines {
            self.weights.flat().prefetch(row + line * 16);
            m.flat().prefetch(row + line * 16);
            v.flat().prefetch(row + line * 16);
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
        let [m, v] = self.moments();
        slide_kernels::adam_step_gather(
            self.weights.row(j),
            m.row(j),
            v.row(j),
            ids,
            vals,
            delta,
            prev_delta,
            adam,
            clr,
            mode,
        );
        self.mark_written(j);
    }

    /// Pre-activations of the `units` of an input-major layer for the
    /// sparse input `(ids, vals)`, written to `out` (one per unit): one
    /// [`slide_kernels::gather_dot_input_major`] pass, bit-identical to
    /// [`Layer::neuron_z`] on the same weights stored unit-major.
    pub(crate) fn input_major_z(
        &self,
        ids: &[u32],
        vals: &[f32],
        units: &[u32],
        out: &mut [f32],
        mode: KernelMode,
    ) {
        debug_assert!(self.input_major);
        for (z, &j) in out.iter_mut().zip(units) {
            *z = self.biases.get(j as usize);
        }
        slide_kernels::gather_dot_input_major(
            self.weights.all_rows(),
            self.units,
            ids,
            vals,
            units,
            out,
            mode,
        );
    }

    /// The weight half of backward for an input-major layer: one fused
    /// Adam sweep per input id over the `units` whose `deltas` are
    /// nonzero ([`slide_kernels::adam_step_input_major`]), bit-identical
    /// to [`Layer::update_row`] per unit. Biases are updated separately.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn update_input_major(
        &self,
        ids: &[u32],
        vals: &[f32],
        units: &[u32],
        deltas: &[f32],
        adam: &AdamParams,
        clr: f32,
        mode: KernelMode,
    ) {
        debug_assert!(self.input_major);
        let [m, v] = self.moments();
        slide_kernels::adam_step_input_major(
            self.weights.all_rows(),
            m.all_rows(),
            v.all_rows(),
            self.units,
            ids,
            vals,
            units,
            deltas,
            adam,
            clr,
            mode,
        );
        // The kernel writes exactly the units whose delta is nonzero.
        if let Some(lsh) = &self.lsh {
            for (&j, &d) in units.iter().zip(deltas) {
                if d != 0.0 {
                    lsh.mark(j as usize);
                }
            }
        }
    }

    /// One HOGWILD Adam update of weight `(j, i)` with gradient `g` —
    /// the scalar reference primitive, in either orientation. The
    /// training hot path updates whole rows at once through the fused
    /// sweeps.
    #[inline]
    pub fn update_weight(&self, j: u32, i: u32, g: f32, adam: &AdamParams, clr: f32) {
        let idx = self.weight_index(j as usize, i as usize);
        let w = self.weights.flat().get(idx);
        let [m_cells, v_cells] = self.moments();
        let m = m_cells.flat().get(idx);
        let v = v_cells.flat().get(idx);
        let (w2, m2, v2) = adam_step(w, m, v, g, adam, clr);
        self.weights.flat().set(idx, w2);
        self.mark_written(j as usize);
        m_cells.flat().set(idx, m2);
        v_cells.flat().set(idx, v2);
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

    /// Recomputes the hash codes of the neurons whose weights were
    /// written since the last build and rebuilds all tables (paper §3.1
    /// "Update Hash Tables after Weight Updates"; parallelized over
    /// neurons for hashing and over tables for insertion, so no locks are
    /// needed). The bucket indices of the other rows are kept from the
    /// build that last hashed them, so the tables are exactly those a
    /// rehash of every row would build. Every row is rehashed on the
    /// first build and whenever the subtracted center differs bitwise
    /// from the last build's: after a change of centering mode or
    /// vector, or when a centered layer's rows moved its mean.
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
        let (weights, input_major) = (&self.weights, self.input_major);
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
                    read_unit(weights, input_major, j, &mut scratch.row);
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
        // A row's bucket indices are a function of its weights and the
        // subtracted center, so a kept row stays valid only while the
        // center is bitwise the one it was hashed with (which also covers
        // a change of centering mode or vector). The first build keeps
        // nothing.
        let all = scratch.buckets.is_empty()
            || mean
                .iter()
                .map(|x| x.to_bits())
                .ne(scratch.center.iter().map(|x| x.to_bits()));

        // Phase 1: per chunk of HASH_CHUNK rows (parallel over chunks),
        // take the rows to rehash, hash them ROW_TILE at a time and fold
        // each row's K-code groups into its bucket index in every table,
        // so phase 2 reads 4 bytes per (row, table) instead of K codes.
        let tables = lsh.tables.tables();
        let dirty = &lsh.dirty;
        let hashed_rows = AtomicUsize::new(0);
        scratch.buckets.resize(units * l, 0);
        scratch
            .buckets
            .par_chunks_mut(HASH_CHUNK * l)
            .enumerate()
            .for_each_init(
                || {
                    (
                        vec![0.0f32; ROW_TILE * fan_in],
                        vec![0u32; ROW_TILE * num_codes],
                        Vec::with_capacity(HASH_CHUNK),
                    )
                },
                |(rows, codes, picked), (c, out)| {
                    let first = c * HASH_CHUNK;
                    picked.clear();
                    for (r, flag) in dirty[first..first + out.len() / l].iter().enumerate() {
                        if all || flag.load(Ordering::Relaxed) != 0 {
                            flag.store(0, Ordering::Relaxed);
                            picked.push(r);
                        }
                    }
                    hashed_rows.fetch_add(picked.len(), Ordering::Relaxed);
                    // Dirty rows fill whole tiles wherever they sit in
                    // the chunk, so the kernel runs at full tile width.
                    for tile in picked.chunks(ROW_TILE) {
                        let rows = &mut rows[..tile.len() * fan_in];
                        for (&r, row) in tile.iter().zip(rows.chunks_exact_mut(fan_in)) {
                            read_unit(weights, input_major, first + r, row);
                            if !mean.is_empty() {
                                for (x, &m) in row.iter_mut().zip(mean) {
                                    *x -= m;
                                }
                            }
                        }
                        // Codes bit-identical to `hash_dense_mode`, the
                        // entry selection hashes queries through, so the
                        // tables and the queries can never diverge.
                        let codes = &mut codes[..tile.len() * num_codes];
                        family.hash_dense_rows_mode(rows, codes, mode);
                        for (&r, row_codes) in tile.iter().zip(codes.chunks_exact(num_codes)) {
                            let ids = &mut out[r * l..(r + 1) * l];
                            for ((id, table), group) in
                                ids.iter_mut().zip(tables).zip(row_codes.chunks_exact(k))
                            {
                                *id = table.bucket_index(group) as u32;
                            }
                        }
                    }
                },
            );
        std::mem::swap(&mut scratch.mean, &mut scratch.center);
        lsh.rows_hashed += hashed_rows.into_inner() as u64;
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

/// Units an input-major layer writes together: one 64-byte cache line of
/// `f32` cells in each of its rows.
pub(crate) const UNIT_BLOCK: usize = 16;

/// Rows per rebuild hashing task: enough that a chunk's dirty rows fill
/// whole `ROW_TILE` tiles, few enough that the chunks spread over the
/// workers.
const HASH_CHUNK: usize = 256;

/// Copies unit `j`'s fan-in weights out of `weights`, stored input-major
/// (column `j`) or unit-major (row `j`).
fn read_unit(weights: &HogwildMatrix, input_major: bool, j: usize, out: &mut [f32]) {
    if input_major {
        assert!(j < weights.cols(), "unit {j} out of bounds");
        assert_eq!(out.len(), weights.rows(), "unit buffer size mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = weights.get(i, j);
        }
    } else {
        weights.read_row_into(j, out);
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

/// A naive table-build oracle, shared by the layer and snapshot tests.
#[cfg(test)]
pub(crate) mod oracle {
    use std::ops::Range;

    use super::*;

    /// The tables `layer`'s latest build must hold over its rows `rows`,
    /// recomputed naively: the centering mean taken over all of the
    /// layer's rows, every row in `rows` hashed on its own by the scalar
    /// reference, its K-code groups mapped with `Table::bucket_index`,
    /// and each table filled with local ids `0..rows.len()` in ascending
    /// order from the RNG stream of build number `rebuild_count`. With
    /// `rows` a shard's range of the full layer, these are the tables of
    /// that shard's slice.
    pub(crate) fn reference_tables(layer: &Layer, rows: Range<usize>) -> LshTables {
        let lsh = layer.lsh().unwrap();
        let (units, fan_in) = (layer.units(), layer.fan_in());
        let config = *lsh.tables().config();
        let nc = lsh.family().num_codes();
        let mut row = vec![0.0f32; fan_in];
        let mut mean = Vec::new();
        if lsh.centered() {
            let mut acc = vec![0.0f64; fan_in];
            for j in 0..units {
                layer.read_unit_into(j, &mut row);
                for (a, &x) in acc.iter_mut().zip(&row) {
                    *a += x as f64;
                }
            }
            mean = acc.iter().map(|&a| (a / units as f64) as f32).collect();
        }
        let mut codes = vec![0u32; rows.len() * nc];
        for (j, out) in rows.zip(codes.chunks_exact_mut(nc)) {
            layer.read_unit_into(j, &mut row);
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

    /// Asserts two table sets are equal bucket by bucket (ids in slot
    /// order, and attempts); returns how many buckets overflowed.
    pub(crate) fn assert_same_tables(got: &LshTables, want: &LshTables, case: &str) -> usize {
        assert_eq!(got.num_tables(), want.num_tables(), "{case}: table count");
        let mut overflowed = 0;
        for (t, (a, b)) in got.tables().iter().zip(want.tables()).enumerate() {
            assert_eq!(a.buckets().len(), b.buckets().len(), "{case}: table {t}");
            for (i, (x, y)) in a.buckets().iter().zip(b.buckets()).enumerate() {
                assert_eq!(x.items(), y.items(), "{case}: table {t} bucket {i}");
                assert_eq!(x.attempts(), y.attempts(), "{case}: table {t} bucket {i}");
                overflowed += (x.attempts() > x.capacity() as u64) as usize;
            }
        }
        overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Activation;
    use crate::network::Network;
    use crate::selector::LshSelector;
    use slide_data::sparse::SparseVector;
    use slide_lsh::InsertionPolicy;

    fn relu_layer(fan_in: usize, units: usize, lsh: Option<LshLayerConfig>) -> Layer {
        oriented_layer(fan_in, units, lsh, false)
    }

    fn oriented_layer(
        fan_in: usize,
        units: usize,
        lsh: Option<LshLayerConfig>,
        input_major: bool,
    ) -> Layer {
        let cfg = LayerConfig {
            units,
            activation: Activation::Relu,
            lsh,
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        Layer::new(fan_in, &cfg, KernelMode::Vectorized, &mut rng, input_major)
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
                let w = layer.weight(j, i);
                assert!(w.abs() <= bound, "w[{j}][{i}] = {w}");
            }
        }
        // Not all zero.
        let sum: f32 = (0..50).map(|j| layer.weight(j, 0).abs()).sum();
        assert!(sum > 0.0);
    }

    #[test]
    fn both_orientations_draw_the_same_layer() {
        // Same seed: the same weights by (unit, input), the transposed
        // storage, and the same RNG position afterwards (so the same hash
        // family and tables).
        let cfg = LshLayerConfig::simhash(3, 6);
        // 37 units: two whole 16-unit init blocks and a partial one.
        let unit = oriented_layer(40, 37, Some(cfg.clone()), false);
        let input = oriented_layer(40, 37, Some(cfg), true);
        assert!(!unit.input_major() && input.input_major());
        assert_eq!((input.weights().rows(), input.weights().cols()), (40, 37));
        let (mut a, mut b) = (vec![0.0f32; 40], vec![0.0f32; 40]);
        for j in 0..37 {
            unit.read_unit_into(j, &mut a);
            input.read_unit_into(j, &mut b);
            assert_eq!(a, b, "unit {j}");
            for i in 0..40 {
                assert_eq!(input.weights().get(i, j), unit.weights().get(j, i));
                assert_eq!(input.weight(j, i), unit.weight(j, i));
            }
        }
        let (tu, ti) = (unit.lsh().unwrap().tables(), input.lsh().unwrap().tables());
        for (x, y) in tu.tables().iter().zip(ti.tables()) {
            for (p, q) in x.buckets().iter().zip(y.buckets()) {
                assert_eq!(p.items(), q.items());
            }
        }
        input.set_weight(12, 39, 2.5);
        assert_eq!(input.weights().get(39, 12), 2.5);
    }

    #[test]
    fn set_units_writes_blocks_in_either_orientation() {
        for input_major in [false, true] {
            let layer = oriented_layer(9, 37, None, input_major);
            let value = |j: usize, i: usize| (j * 9 + i) as f32 * 0.5 - 3.0;
            for first in (0..37).step_by(UNIT_BLOCK) {
                let n = UNIT_BLOCK.min(37 - first);
                let rows: Vec<f32> = (first..first + n)
                    .flat_map(|j| (0..9).map(move |i| value(j, i)))
                    .collect();
                layer.set_units(first, &rows);
            }
            layer.set_units(37, &[]);
            for j in 0..37 {
                for i in 0..9 {
                    assert_eq!(layer.weight(j, i), value(j, i), "({j},{i}) {input_major}");
                }
            }
        }
    }

    #[test]
    fn weight_moments_are_allocated_by_the_first_update() {
        let layer = relu_layer(6, 4, None);
        assert!(layer.w_moments.get().is_none());
        layer.update_weight(1, 2, 0.5, &AdamParams::default(), 0.01);
        let [m, v] = layer.w_moments.get().expect("allocated by the update");
        assert_ne!(m.get(1, 2), 0.0);
        assert_ne!(v.get(1, 2), 0.0);
        assert_eq!(m.get(0, 0), 0.0);
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
        let expect = 0.5 + layer.weight(1, 0) * 2.0 + -layer.weight(1, 3);
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
            layer.read_unit_into(j as usize, &mut row);
            lsh.family().hash_dense(&row, &mut codes);
            let hit = (0..10).any(|t| lsh.tables().bucket(t, &codes).contains(&j));
            found_any += hit as usize;
        }
        assert!(found_any >= 45, "only {found_any}/50 neurons self-retrieve");
    }

    /// Asserts `layer`'s tables equal the naive reference bucket by
    /// bucket; returns how many buckets overflowed.
    fn assert_matches_reference(layer: &Layer, case: &str) -> usize {
        let want = oracle::reference_tables(layer, 0..layer.units());
        oracle::assert_same_tables(layer.lsh().unwrap().tables(), &want, case)
    }

    #[test]
    fn vectorized_rebuild_matches_a_naive_scalar_oracle() {
        // 103 units (not a multiple of ROW_TILE); SimHash with K·L = 15
        // planes (not a multiple of 8) through the row-tiled kernel, and
        // DWTA through the per-row default; both policies; default and
        // overflowing capacity-2 buckets; centered rows on and off; both
        // storage orientations (an input-major hidden-LSH first layer
        // reads its rows as strided columns); the initial build and a
        // rebuild after some rows moved.
        let (fan_in, units) = (24, 103);
        for family in [LshLayerConfig::simhash(3, 5), LshLayerConfig::dwta(2, 7)] {
            for policy in [InsertionPolicy::Fifo, InsertionPolicy::Reservoir] {
                for (small, centered, input_major) in
                    (0..8).map(|b| (b & 1 != 0, b & 2 != 0, b & 4 != 0))
                {
                    let mut cfg = family
                        .clone()
                        .with_policy(policy)
                        .with_centered_rows(centered);
                    if small {
                        cfg = cfg.with_tables(3, 2);
                    }
                    let case = format!(
                        "{:?} {policy} small={small} centered={centered} input_major={input_major}",
                        cfg.family
                    );
                    let mut layer = oriented_layer(fan_in, units, Some(cfg), input_major);
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

    /// Trains `net` on `data` for `steps` batches of four examples on
    /// `pool`'s HOGWILD workers, maintaining every layer after each batch
    /// as the trainer does. After every rebuild the layer's tables must
    /// equal the naive oracle's. Returns how many rebuilds hashed fewer
    /// rows than the layer has.
    fn train_checking_rebuilds(
        net: &mut Network,
        data: &[slide_data::dataset::Example],
        pool: &rayon::ThreadPool,
        steps: usize,
        case: &str,
    ) -> usize {
        let mut partial = 0;
        for (step, batch) in data.chunks(4).cycle().take(steps).enumerate() {
            let clr = net.begin_step();
            let net_ref = &*net;
            pool.install(|| -> f32 {
                batch
                    .par_iter()
                    .map_init(
                        || net_ref.workspace(step as u64),
                        |ws, ex| {
                            net_ref.train_example(&LshSelector, ws, &ex.features, &ex.labels, clr)
                        },
                    )
                    .sum()
            });
            for (l, layer) in net.layers_mut().iter_mut().enumerate() {
                let before = layer.lsh().map_or(0, |lsh| lsh.rows_hashed());
                if layer.maintain(step as u64 + 1) {
                    let hashed = layer.lsh().unwrap().rows_hashed() - before;
                    partial += (hashed < layer.units() as u64) as usize;
                    assert_matches_reference(layer, &format!("{case}: step {step} layer {l}"));
                }
            }
        }
        partial
    }

    #[test]
    fn partial_rehash_matches_a_full_rebuild_under_hogwild_training() {
        // A window of two 4-example batches writes a few dozen of the
        // 600 output rows and of the 256 hidden units, so most rebuilds
        // rehash a fraction of a layer. Both policies, centered rows on
        // and off (a moving mean rehashes every row), a unit-major output
        // layer and an input-major hidden LSH layer, before and after a
        // snapshot restore.
        let data = slide_data::synth::generate(&slide_data::synth::SyntheticConfig {
            label_dim: 600,
            ..slide_data::synth::SyntheticConfig::tiny().with_seed(9)
        });
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        for policy in [InsertionPolicy::Fifo, InsertionPolicy::Reservoir] {
            for centered in [false, true] {
                let lsh = |budget| {
                    LshLayerConfig::simhash(4, 6)
                        .with_strategy(SamplingStrategy::Vanilla { budget })
                        .with_rebuild(crate::schedule::RebuildSchedule::fixed(2))
                        .with_policy(policy)
                        .with_centered_rows(centered)
                };
                let cfg = crate::config::NetworkConfig::builder(
                    data.train.feature_dim(),
                    data.train.label_dim(),
                )
                .hidden_lsh(256, lsh(24))
                .output_lsh(lsh(8))
                .seed(5)
                .build()
                .unwrap();
                let case = format!("{policy} centered={centered}");
                let mut net = Network::new(cfg).unwrap();
                assert!(net.layers()[0].input_major() && !net.layers()[1].input_major());
                let examples = data.train.examples();
                let mut partial =
                    train_checking_rebuilds(&mut net, &examples[..48], &pool, 12, &case);

                // A block write into built tables (as a snapshot install
                // does) flags its units: negated rows flip every sign.
                for (l, layer) in net.layers_mut().iter_mut().enumerate() {
                    let fan_in = layer.fan_in();
                    let mut rows = vec![0.0f32; 21 * fan_in];
                    for (b, row) in rows.chunks_exact_mut(fan_in).enumerate() {
                        layer.read_unit_into(40 + b, row);
                        row.iter_mut().for_each(|w| *w = -*w);
                    }
                    layer.set_units(40, &rows);
                    layer.rebuild_tables();
                    assert_matches_reference(layer, &format!("{case}: set_units layer {l}"));
                }

                let mut restored = Network::from_snapshot_bytes(&net.to_snapshot_bytes()).unwrap();
                for (l, layer) in restored.layers().iter().enumerate() {
                    assert_matches_reference(layer, &format!("{case}: restored layer {l}"));
                }
                let case = format!("{case} restored");
                partial +=
                    train_checking_rebuilds(&mut restored, &examples[48..96], &pool, 12, &case);
                if !centered {
                    assert!(partial >= 20, "{case}: {partial} partial rebuilds");
                }
            }
        }
    }

    #[test]
    fn rows_hashed_counts_the_rows_a_backward_wrote() {
        let cfg = crate::config::NetworkConfig::builder(64, 300)
            .hidden(16)
            .output_lsh(
                LshLayerConfig::simhash(3, 8)
                    .with_strategy(SamplingStrategy::Vanilla { budget: 12 }),
            )
            .seed(3)
            .build()
            .unwrap();
        let mut net = Network::new(cfg).unwrap();
        let hashed = |net: &Network| net.layers()[1].lsh().unwrap().rows_hashed();
        assert_eq!(hashed(&net), 300, "the first build hashes every row");
        let features = SparseVector::from_pairs((0..8u32).map(|i| (i * 7, 0.5)));
        let labels = [17u32];
        let mut ws = net.workspace(1);
        let clr = net.begin_step();
        net.train_example(&LshSelector, &mut ws, &features, &labels, clr);
        let written = ws.active_set(1).ids().len();
        assert!(written > 0 && written < 300, "{written} active rows");
        net.layers_mut()[1].rebuild_tables();
        assert_eq!(hashed(&net), 300 + written as u64);
        net.layers_mut()[1].rebuild_tables();
        assert_eq!(hashed(&net), 300 + written as u64, "nothing was written");
        net.set_lsh_centering(true);
        assert_eq!(
            hashed(&net),
            600 + written as u64,
            "a new center rehashes all"
        );
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
