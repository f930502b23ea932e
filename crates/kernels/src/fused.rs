//! Fused slice-based kernels over HOGWILD parameter rows.
//!
//! The engine's hot path used to walk shared weights one element at a
//! time through bounds-checked flat-index accessors; these kernels take
//! whole rows instead and make one pass per row.
//!
//! # The bit-level HOGWILD slice protocol
//!
//! The kernels operate on `&[AtomicU32]` row slices whose cells follow
//! one convention:
//!
//! * every cell holds an `f32` bit pattern (`f32::to_bits`);
//! * a **scalar** access is a relaxed atomic load reinterpreted with
//!   `f32::from_bits` ([`read`]) or `f32::to_bits` stored relaxed
//!   ([`write()`]);
//! * no read-modify-write is atomic: concurrent updates to the same cell
//!   may lose one of them — the HOGWILD tolerance (paper §3.1) the
//!   storage layer documents;
//! * the **vectorized** kernels reinterpret the cells as plain `f32`
//!   data (each lane of a SIMD load/store is the same whole-word,
//!   4-byte-aligned machine access a relaxed atomic `mov` performs, so
//!   lanes never tear on any supported target). Racing lanes can drop an
//!   update exactly like racing scalar stores — the same tolerance, now
//!   eight lanes at a time. This mirrors the reference implementation's
//!   unsynchronized `float*` arithmetic, and shedding the per-element
//!   atomic ops is what lets the compiler (and the explicit AVX2/FMA
//!   paths below, dispatched at runtime) emit real SIMD: per-element
//!   atomic loads pin the loop to scalar code.
//!
//! `KernelMode::Scalar` is always the strict sequential loop over
//! per-element atomic accesses — the bit-reproducible reference that
//! `tests/equivalence.rs` pins.
//!
//! Five fused ops cover the training/inference hot loops:
//!
//! * [`gather_dot`] — `init + Σᵢ row[ids[i]]·vals[i]`, the per-neuron
//!   pre-activation for sparse inputs (forward pass, candidate scoring);
//! * [`gather_dot_batch`] — one contiguous weight row scored against
//!   the examples an owner mask names over a dense basis, loading each
//!   weight once per register block (batched serving);
//! * [`adam_step_gather`] — backward's per-`(neuron, prev-active)` loop
//!   fused into one pass: load `w/m/v` once per id, accumulate the
//!   back-propagated error signal through the pre-update weight, apply
//!   the Adam step, store once;
//! * [`gather_dot_input_major`] / [`adam_step_input_major`] — the same
//!   forward and Adam for a layer stored **input-major** (`fan_in`
//!   rows of one cell per unit: the engine's first layer), where each
//!   input id is one contiguous row over every unit. Each unit keeps the
//!   exact operation order of the per-unit kernel, so results are
//!   bit-identical to [`gather_dot`] / [`adam_step_gather`] on the same
//!   weights stored unit-major, in either mode.
//!
//! All vectorized entry points validate every id against the row length
//! **before** touching memory (one auto-vectorizable integer pass that
//! also detects the dense-identity id list `0, 1, 2, …`, the common case
//! on hidden-to-output edges, which unlocks the contiguous SIMD paths).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::ops::{adam_step, prefetch_read, AdamParams, KernelMode};

/// Reads one cell of a HOGWILD slice: relaxed load + `from_bits`.
#[inline(always)]
pub fn read(cell: &AtomicU32) -> f32 {
    f32::from_bits(cell.load(Ordering::Relaxed))
}

/// Writes one cell of a HOGWILD slice: `to_bits` + relaxed store.
#[inline(always)]
pub fn write(cell: &AtomicU32, value: f32) {
    cell.store(value.to_bits(), Ordering::Relaxed);
}

/// Validates that every id indexes below `limit` and reports whether the
/// id list is the dense identity `0, 1, …, ids.len()-1` (one pass,
/// auto-vectorizable integer reductions).
///
/// # Panics
///
/// Panics if any id is out of bounds.
#[inline]
fn validate_ids(ids: &[u32], limit: usize) -> bool {
    let n = ids.len();
    if n == 0 {
        return true;
    }
    // Cheap endpoint pre-test, then a branch-free xor-fold the compiler
    // vectorizes; a confirmed identity needs only the O(1) length check.
    if ids[0] == 0 && ids[n - 1] == (n - 1) as u32 {
        let mut acc = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            acc |= id ^ i as u32;
        }
        if acc == 0 {
            assert!(n <= limit, "gather id out of bounds: {} >= {limit}", n - 1);
            return true;
        }
    }
    let mut max = 0u32;
    for &id in ids {
        max = max.max(id);
    }
    assert!(
        (max as usize) < limit,
        "gather id out of bounds: {max} >= {limit}"
    );
    false
}

/// The vectorized kernels' raw view of a row (see the module-level
/// protocol): the pointer is read and written with plain `f32` ops.
#[inline(always)]
fn raw(cells: &[AtomicU32]) -> *mut f32 {
    // AtomicU32 has interior mutability, so writing through a pointer
    // derived from a shared slice is permitted.
    cells.as_ptr() as *mut f32
}

#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn have_avx2_fma() -> bool {
    // `is_x86_feature_detected!` caches in an atomic; steady-state cost
    // is one relaxed load per call.
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Fused sparse dot against one parameter row:
/// `init + Σᵢ row[ids[i]] · vals[i]`.
///
/// `init` seeds the accumulator (the neuron's bias), so the `Scalar` mode
/// reproduces the strict sequential accumulation
/// `((init + w₀v₀) + w₁v₁) + …` bit-for-bit — the order
/// `tests/equivalence.rs` pins. `Vectorized` validates the ids up front,
/// then runs 8-lane blocks: contiguous FMA over dense-identity ids,
/// hardware `vgatherdps` (AVX2) or an unrolled raw gather otherwise;
/// for fewer than 8 ids it degrades to the sequential tail and agrees
/// with `Scalar` exactly.
///
/// Duplicate ids are fine (reads only).
///
/// # Panics
///
/// Panics if `ids` and `vals` lengths differ or an id indexes past the
/// row.
pub fn gather_dot(
    row: &[AtomicU32],
    ids: &[u32],
    vals: &[f32],
    init: f32,
    mode: KernelMode,
) -> f32 {
    assert_eq!(ids.len(), vals.len(), "gather_dot: length mismatch");
    match mode {
        KernelMode::Scalar => {
            let mut z = init;
            for (&id, &v) in ids.iter().zip(vals) {
                z += read(&row[id as usize]) * v;
            }
            z
        }
        KernelMode::Vectorized => {
            let identity = validate_ids(ids, row.len());
            let n = ids.len();
            let rp = raw(row) as *const f32;

            #[cfg(target_arch = "x86_64")]
            if n >= 16 && have_avx2_fma() {
                // SAFETY: ids validated above; AVX2+FMA presence checked.
                return init + unsafe { avx::gather_dot(rp, ids, vals, identity) };
            }

            // Portable fallback: 8 independent accumulators (ILP) over
            // the raw view, bounds already validated.
            let mut acc = [0.0f32; 8];
            let chunks = n / 8;
            if identity {
                for c in 0..chunks {
                    let i = c * 8;
                    for lane in 0..8 {
                        // SAFETY: identity ids => i + lane < n <= row.len().
                        acc[lane] += unsafe { *rp.add(i + lane) } * vals[i + lane];
                    }
                }
            } else {
                for c in 0..chunks {
                    let i = c * 8;
                    if i + 15 < n {
                        prefetch_read(rp.wrapping_add(ids[i + 8] as usize));
                        prefetch_read(rp.wrapping_add(ids[i + 15] as usize));
                    }
                    for lane in 0..8 {
                        // SAFETY: all ids validated against row.len().
                        acc[lane] += unsafe { *rp.add(ids[i + lane] as usize) } * vals[i + lane];
                    }
                }
            }
            let mut z = init + acc.iter().sum::<f32>();
            for i in chunks * 8..n {
                // SAFETY: ids validated against row.len().
                z += unsafe { *rp.add(ids[i] as usize) } * vals[i];
            }
            z
        }
    }
}

/// Scores the first `n` cells of **one** parameter row against the
/// examples an owner mask names: for every bit `e` set in `owners`,
/// `out[e] = init + Σᵢ row[i] · vals[e·n + i]` for `i < n`. Entries of
/// `out` whose bit is clear are left as they were.
///
/// `vals` is example-major over the `b = out.len()` examples: example
/// `e`'s values occupy `vals[e * n .. (e + 1) * n]`. This is the batched
/// serving kernel over a dense hidden basis — a candidate neuron's row is
/// scored against exactly the examples that retrieved it, loaded once per
/// register block and reused across them. [`crate::quant::dot_batch_q16`]
/// is its quantized sibling.
///
/// `Scalar` is [`gather_dot`]'s strict sequential loop per example (the
/// reference); `Vectorized` blocks owners eight at a time over shared row
/// loads, the remainder as one narrower block. Each example's
/// accumulation order is independent of which other examples ride along,
/// so a score's bits do not depend on the owner set.
///
/// # Panics
///
/// Panics if `n > row.len()`, `vals.len() != n * out.len()`, or an owner
/// bit names an example at or past `out.len()` — all checked before any
/// memory is read.
pub fn gather_dot_batch(
    row: &[AtomicU32],
    n: usize,
    vals: &[f32],
    owners: u64,
    init: f32,
    out: &mut [f32],
    mode: KernelMode,
) {
    assert!(n <= row.len(), "gather_dot_batch: n exceeds row length");
    assert_eq!(
        vals.len(),
        n * out.len(),
        "gather_dot_batch: vals must hold n values per example"
    );
    check_owners(owners, out.len());
    let row = &row[..n];
    match mode {
        KernelMode::Scalar => {
            for e in owner_ids(owners) {
                let mut z = init;
                for (cell, &v) in row.iter().zip(&vals[e * n..(e + 1) * n]) {
                    z += read(cell) * v;
                }
                out[e] = z;
            }
        }
        KernelMode::Vectorized => {
            #[cfg(target_arch = "x86_64")]
            if n >= 16 && have_avx2_fma() {
                // SAFETY: the row holds n cells (sliced above), every owner
                // indexes one of the out.len() examples in vals; AVX2+FMA
                // checked.
                unsafe { avx::dot_batch(raw(row), n, vals, owners, init, out) };
                return;
            }

            for e in owner_ids(owners) {
                out[e] = init;
            }
            let chunks = n / 4;
            for c in 0..chunks {
                let i = c * 4;
                let w = [
                    read(&row[i]),
                    read(&row[i + 1]),
                    read(&row[i + 2]),
                    read(&row[i + 3]),
                ];
                for e in owner_ids(owners) {
                    let ex = &vals[e * n + i..e * n + i + 4];
                    out[e] += w[0] * ex[0] + w[1] * ex[1] + w[2] * ex[2] + w[3] * ex[3];
                }
            }
            for (i, cell) in row.iter().enumerate().skip(chunks * 4) {
                let w = read(cell);
                for e in owner_ids(owners) {
                    out[e] += w * vals[e * n + i];
                }
            }
        }
    }
}

/// Checks that an owner mask names only examples below `b`: one shift,
/// since bits from 64 on cannot exist.
///
/// # Panics
///
/// Panics if a bit names an example at or past `b`.
#[inline(always)]
pub(crate) fn check_owners(owners: u64, b: usize) {
    assert!(
        owners.checked_shr(b as u32).unwrap_or(0) == 0,
        "owner mask {owners:#x} names an example past the batch of {b}"
    );
}

/// Removes the lowest set bit of `mask` and returns its index.
#[inline(always)]
pub(crate) fn pop_owner(mask: &mut u64) -> usize {
    let e = mask.trailing_zeros() as usize;
    *mask &= *mask - 1;
    e
}

/// The examples an owner mask names, ascending. The mask is walked in a
/// register: no owner list is ever stored.
#[inline(always)]
pub(crate) fn owner_ids(mut owners: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || (owners != 0).then(|| pop_owner(&mut owners)))
}

/// Fused HOGWILD Adam update of one neuron's row over the prev-active
/// ids, replacing backward's per-pair accessor loop with a single sweep.
///
/// For each `i`, with `idx = ids[i]`:
///
/// 1. load the **pre-update** weight `w[idx]` once;
/// 2. if `prev_delta` is given, accumulate the back-propagated error
///    signal `prev_delta[i] += delta · w_old` (the message the previous
///    layer receives, computed through the weight *before* this step);
/// 3. apply one Adam step with gradient `g = delta · vals[i]` to
///    `(w[idx], m[idx], v[idx])` and store each exactly once.
///
/// `Scalar` is the strict sequential loop (bit-identical to the old
/// per-pair `update_weight` path single-threaded). `Vectorized` uses the
/// same per-element arithmetic — on dense-identity ids as 8-lane AVX2
/// blocks whose `mul/add/sqrt/div` sequence mirrors the scalar ops
/// exactly, otherwise as an unrolled gather — so for **unique** ids the
/// two modes agree bit-for-bit. A duplicated id inside one unrolled block
/// may read a stale weight in `Vectorized` mode — the same lost-update
/// tolerance HOGWILD already grants concurrent threads. The engine's id
/// lists (active sets, sparse-feature indices) are unique by
/// construction.
///
/// # Panics
///
/// Panics if `ids`/`vals` (and `prev_delta` when given) lengths differ or
/// an id indexes past the row slices.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_gather(
    w: &[AtomicU32],
    m: &[AtomicU32],
    v: &[AtomicU32],
    ids: &[u32],
    vals: &[f32],
    delta: f32,
    mut prev_delta: Option<&mut [f32]>,
    adam: &AdamParams,
    clr: f32,
    mode: KernelMode,
) {
    assert_eq!(ids.len(), vals.len(), "adam_step_gather: length mismatch");
    if let Some(pd) = prev_delta.as_deref() {
        assert_eq!(
            pd.len(),
            ids.len(),
            "adam_step_gather: prev_delta length mismatch"
        );
    }
    match mode {
        KernelMode::Scalar => {
            for (i, (&id, &val)) in ids.iter().zip(vals).enumerate() {
                let idx = id as usize;
                let w_old = read(&w[idx]);
                if let Some(pd) = prev_delta.as_deref_mut() {
                    pd[i] += delta * w_old;
                }
                let (w2, m2, v2) =
                    adam_step(w_old, read(&m[idx]), read(&v[idx]), delta * val, adam, clr);
                write(&w[idx], w2);
                write(&m[idx], m2);
                write(&v[idx], v2);
            }
        }
        KernelMode::Vectorized => {
            let limit = w.len().min(m.len()).min(v.len());
            let identity = validate_ids(ids, limit);
            let n = ids.len();
            let (wp, mp, vp) = (raw(w), raw(m), raw(v));

            #[cfg(target_arch = "x86_64")]
            if identity && n >= 8 && have_avx2_fma() {
                // SAFETY: identity ids validated against all three rows;
                // AVX2 presence checked (the block uses no FMA so its
                // arithmetic matches Scalar bit-for-bit).
                unsafe {
                    avx::adam_contiguous(wp, mp, vp, vals, delta, prev_delta, adam, clr);
                }
                return;
            }
            let _ = identity;

            let chunks = n / 4;
            for c in 0..chunks {
                let i = c * 4;
                if i + 4 < n {
                    let nid = ids[i + 4] as usize;
                    prefetch_read(wp.wrapping_add(nid));
                    prefetch_read(mp.wrapping_add(nid));
                    prefetch_read(vp.wrapping_add(nid));
                }
                let idx = [
                    ids[i] as usize,
                    ids[i + 1] as usize,
                    ids[i + 2] as usize,
                    ids[i + 3] as usize,
                ];
                // Batch the weight loads so the error-signal accumulation
                // and the Adam math run on independent registers.
                // SAFETY: ids validated against every row's length.
                let w_old = unsafe {
                    [
                        *wp.add(idx[0]),
                        *wp.add(idx[1]),
                        *wp.add(idx[2]),
                        *wp.add(idx[3]),
                    ]
                };
                if let Some(pd) = prev_delta.as_deref_mut() {
                    for lane in 0..4 {
                        pd[i + lane] += delta * w_old[lane];
                    }
                }
                for lane in 0..4 {
                    let j = idx[lane];
                    // SAFETY: ids validated against every row's length.
                    unsafe {
                        let (w2, m2, v2) = adam_step(
                            w_old[lane],
                            *mp.add(j),
                            *vp.add(j),
                            delta * vals[i + lane],
                            adam,
                            clr,
                        );
                        *wp.add(j) = w2;
                        *mp.add(j) = m2;
                        *vp.add(j) = v2;
                    }
                }
            }
            for i in chunks * 4..n {
                let idx = ids[i] as usize;
                // SAFETY: ids validated against every row's length.
                unsafe {
                    let w_old = *wp.add(idx);
                    if let Some(pd) = prev_delta.as_deref_mut() {
                        pd[i] += delta * w_old;
                    }
                    let (w2, m2, v2) = adam_step(
                        w_old,
                        *mp.add(idx),
                        *vp.add(idx),
                        delta * vals[i],
                        adam,
                        clr,
                    );
                    *wp.add(idx) = w2;
                    *mp.add(idx) = m2;
                    *vp.add(idx) = v2;
                }
            }
        }
    }
}

/// Input rows ahead of the one in flight that the input-major Adam sweep
/// prefetches: ids are known up front, and one row is too short a sweep
/// to hide a miss on the next.
const ROW_PREFETCH_AHEAD: usize = 4;

/// Prefetches the head `len` cells of `rp`'s row, one hint per cache
/// line (16 `f32`s).
#[inline(always)]
fn prefetch_row_head(rp: *const f32, len: usize) {
    for c in (0..len).step_by(16) {
        prefetch_read(rp.wrapping_add(c));
    }
}

/// Checks an input-major matrix of `cells` cells and `stride` units per
/// row, then validates every id against its row count and every unit
/// against `stride` — all before any cell is touched. Returns whether
/// `units` is the dense identity `0, 1, …`.
///
/// # Panics
///
/// Panics if `cells` is not a multiple of `stride` or an id or unit is
/// out of bounds.
fn validate_input_major(cells: usize, stride: usize, ids: &[u32], units: &[u32]) -> bool {
    let rows = cells.checked_div(stride).unwrap_or(0);
    assert_eq!(rows * stride, cells, "input-major matrix shape mismatch");
    validate_ids(ids, rows);
    validate_ids(units, stride)
}

/// Pre-activations of several units of a layer stored **input-major**:
/// `w` holds `fan_in` rows of `stride` cells, input `i`'s weight into
/// unit `j` at `w[i·stride + j]`. On entry `out[k]` holds unit
/// `units[k]`'s init (its bias); on return
/// `out[k] = init + Σₚ w[ids[p]·stride + units[k]] · vals[p]`.
///
/// Each input id reads one contiguous row segment instead of one
/// scattered cell per unit, and each unit's sum keeps the exact
/// operation order [`gather_dot`] applies to that unit's unit-major row.
/// So `out[k]` is **bit-identical** to
/// `gather_dot(row of unit units[k], ids, vals, init, mode)`:
///
/// * `Scalar`: the strict sequential loop `((init + w₀v₀) + w₁v₁) + …`,
///   one row axpy per id;
/// * `Vectorized` with `n ≥ 16` ids and AVX2+FMA: per 8-unit block, 16
///   FMA partial sums in registers (id `p` into sum `p mod 16`, the lanes
///   of [`gather_dot`]'s two 8-lane accumulators), folded by the same
///   `acc0 + acc1` and `hsum` tree, then the sequential tail, then
///   `init +`; every row's segment is prefetched up front;
/// * `Vectorized` otherwise: per unit, [`gather_dot`]'s 8 mul-add
///   accumulators (`p mod 8`), then `init + Σ`, then the tail.
///
/// Duplicate ids and units are fine (reads only).
///
/// # Panics
///
/// Panics if `ids`/`vals` or `units`/`out` lengths differ, `w.len()` is
/// not a multiple of `stride`, or an id or unit is out of bounds — all
/// checked before any cell is read.
pub fn gather_dot_input_major(
    w: &[AtomicU32],
    stride: usize,
    ids: &[u32],
    vals: &[f32],
    units: &[u32],
    out: &mut [f32],
    mode: KernelMode,
) {
    assert_eq!(
        ids.len(),
        vals.len(),
        "gather_dot_input_major: length mismatch"
    );
    assert_eq!(
        units.len(),
        out.len(),
        "gather_dot_input_major: out length mismatch"
    );
    let dense = validate_input_major(w.len(), stride, ids, units);
    let n = ids.len();
    match mode {
        KernelMode::Scalar => {
            for (&id, &v) in ids.iter().zip(vals) {
                let row = &w[id as usize * stride..][..stride];
                for (z, &j) in out.iter_mut().zip(units) {
                    *z += read(&row[j as usize]) * v;
                }
            }
        }
        KernelMode::Vectorized => {
            let wp = raw(w) as *const f32;

            #[cfg(target_arch = "x86_64")]
            if n >= 16 && have_avx2_fma() {
                // SAFETY: ids and units validated against the matrix;
                // AVX2+FMA presence checked.
                unsafe { avx::dot_input_major(wp, stride, ids, vals, units, dense, out) };
                return;
            }
            let _ = dense;

            // Portable: gather_dot's 8 mul-add accumulators per unit, then
            // its `init + Σ` and sequential tail.
            let head = n / 8 * 8;
            for (z, &j) in out.iter_mut().zip(units) {
                let term = |p: usize| {
                    // SAFETY: ids and units validated against the matrix.
                    unsafe { *wp.add(ids[p] as usize * stride + j as usize) * vals[p] }
                };
                let mut acc = [0.0f32; 8];
                for p in 0..head {
                    acc[p % 8] += term(p);
                }
                *z += acc.iter().sum::<f32>();
                for p in head..n {
                    *z += term(p);
                }
            }
        }
    }
}

/// Fused HOGWILD Adam update of several units of a layer stored
/// input-major (the layout [`gather_dot_input_major`] reads): for every
/// input `p` and every `k` with `deltas[k] != 0`, one Adam step with
/// gradient `deltas[k] · vals[p]` on the `(w, m, v)` cells at
/// `ids[p]·stride + units[k]`.
///
/// Each input id is one contiguous masked sweep over its rows of `w`,
/// `m` and `v`. Per cell the arithmetic is [`adam_step_gather`]'s, so
/// for unique ids the result is **bit-identical** to calling
/// `adam_step_gather(row of unit units[k], …, ids, vals, deltas[k],
/// None, …)` for every `k` whose delta is nonzero, in either mode. A
/// unit whose delta is 0 is never written: the AVX2 sweep stores with
/// `vmaskmovps`, so racing HOGWILD writers to those cells are never
/// overwritten with stale values.
///
/// # Panics
///
/// Panics if `ids`/`vals`, `units`/`deltas` or the `w`/`m`/`v` lengths
/// differ, `w.len()` is not a multiple of `stride`, or an id or unit is
/// out of bounds — all checked before any cell is touched.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_input_major(
    w: &[AtomicU32],
    m: &[AtomicU32],
    v: &[AtomicU32],
    stride: usize,
    ids: &[u32],
    vals: &[f32],
    units: &[u32],
    deltas: &[f32],
    adam: &AdamParams,
    clr: f32,
    mode: KernelMode,
) {
    assert_eq!(
        ids.len(),
        vals.len(),
        "adam_step_input_major: length mismatch"
    );
    assert_eq!(
        units.len(),
        deltas.len(),
        "adam_step_input_major: deltas length mismatch"
    );
    assert!(
        w.len() == m.len() && w.len() == v.len(),
        "adam_step_input_major: w/m/v length mismatch"
    );
    let dense = validate_input_major(w.len(), stride, ids, units);

    #[cfg(target_arch = "x86_64")]
    if mode == KernelMode::Vectorized && dense && have_avx2_fma() {
        // SAFETY: ids validated against the row count and the dense
        // units against `stride`; AVX2 presence checked (the sweep uses
        // no FMA, so it matches Scalar).
        unsafe {
            avx::adam_input_major(raw(w), raw(m), raw(v), stride, ids, vals, deltas, adam, clr)
        };
        return;
    }
    let _ = (dense, mode);

    // Scalar, and Vectorized without AVX2 or over a sparse unit list: the
    // per-cell loop (a relaxed atomic access is a plain move).
    for (&id, &val) in ids.iter().zip(vals) {
        let base = id as usize * stride;
        for (&j, &delta) in units.iter().zip(deltas) {
            if delta == 0.0 {
                continue;
            }
            let idx = base + j as usize;
            let (w2, m2, v2) = adam_step(
                read(&w[idx]),
                read(&m[idx]),
                read(&v[idx]),
                delta * val,
                adam,
                clr,
            );
            write(&w[idx], w2);
            write(&m[idx], m2);
            write(&v[idx], v2);
        }
    }
}

/// Runtime-dispatched AVX2/FMA implementations (x86-64 only) — the
/// stand-in for the paper's hand-written Intel AVX kernels (§5.4,
/// Appendix D). Callers check `have_avx2_fma()` and validate ids first.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    use super::{pop_owner, prefetch_row_head, ROW_PREFETCH_AHEAD};
    use crate::ops::AdamParams;

    /// Horizontal sum of a 256-bit accumulator.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (register-only shuffles, touches no memory).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// `Σᵢ row[ids[i]]·vals[i]` — contiguous FMA when `identity`,
    /// hardware gather otherwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every id must index below the row length;
    /// `ids.len() == vals.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gather_dot(rp: *const f32, ids: &[u32], vals: &[f32], identity: bool) -> f32 {
        let n = ids.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let chunks = n / 16;
        if identity {
            for c in 0..chunks {
                let i = c * 16;
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(rp.add(i)),
                    _mm256_loadu_ps(vals.as_ptr().add(i)),
                    acc0,
                );
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(rp.add(i + 8)),
                    _mm256_loadu_ps(vals.as_ptr().add(i + 8)),
                    acc1,
                );
            }
        } else {
            for c in 0..chunks {
                let i = c * 16;
                let idx0 = _mm256_loadu_si256(ids.as_ptr().add(i) as *const __m256i);
                let idx1 = _mm256_loadu_si256(ids.as_ptr().add(i + 8) as *const __m256i);
                acc0 = _mm256_fmadd_ps(
                    _mm256_i32gather_ps::<4>(rp, idx0),
                    _mm256_loadu_ps(vals.as_ptr().add(i)),
                    acc0,
                );
                acc1 = _mm256_fmadd_ps(
                    _mm256_i32gather_ps::<4>(rp, idx1),
                    _mm256_loadu_ps(vals.as_ptr().add(i + 8)),
                    acc1,
                );
            }
        }
        let mut z = hsum(_mm256_add_ps(acc0, acc1));
        for i in chunks * 16..n {
            z += *rp.add(ids[i] as usize) * vals[i];
        }
        z
    }

    /// One contiguous row against the examples `owners` names in the
    /// example-major `vals`, owners blocked eight at a time over shared
    /// row loads and the remainder run as one block of fewer chains (a
    /// lone FMA chain is latency-bound).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; the row must hold at least `n` elements; every
    /// owner `e` must satisfy `(e + 1) * n <= vals.len()` and
    /// `e < out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_batch(
        rp: *const f32,
        n: usize,
        vals: &[f32],
        mut owners: u64,
        init: f32,
        out: &mut [f32],
    ) {
        while owners.count_ones() >= 8 {
            dot_block::<8>(rp, n, vals, &mut owners, init, out);
        }
        let rest = &mut owners;
        match rest.count_ones() {
            0 => {}
            1 => dot_block::<1>(rp, n, vals, rest, init, out),
            2 => dot_block::<2>(rp, n, vals, rest, init, out),
            3 => dot_block::<3>(rp, n, vals, rest, init, out),
            4 => dot_block::<4>(rp, n, vals, rest, init, out),
            5 => dot_block::<5>(rp, n, vals, rest, init, out),
            6 => dot_block::<6>(rp, n, vals, rest, init, out),
            _ => dot_block::<7>(rp, n, vals, rest, init, out),
        }
    }

    /// [`dot_batch`] over the `N` lowest owners, which it pops from
    /// `owners`: `N` independent FMA chains sharing each row load.
    ///
    /// # Safety
    ///
    /// As [`dot_batch`], with at least `N` bits set in `owners`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_block<const N: usize>(
        rp: *const f32,
        n: usize,
        vals: &[f32],
        owners: &mut u64,
        init: f32,
        out: &mut [f32],
    ) {
        let chunks = n / 8;
        let ids: [usize; N] = std::array::from_fn(|_| pop_owner(owners));
        let base = ids.map(|e| e * n);
        let mut acc = [_mm256_setzero_ps(); N];
        for c in 0..chunks {
            let i = c * 8;
            let w8 = _mm256_loadu_ps(rp.add(i));
            for k in 0..N {
                acc[k] =
                    _mm256_fmadd_ps(w8, _mm256_loadu_ps(vals.as_ptr().add(base[k] + i)), acc[k]);
            }
        }
        for k in 0..N {
            let mut z = init + hsum(acc[k]);
            for i in chunks * 8..n {
                z += *rp.add(i) * vals[base[k] + i];
            }
            out[ids[k]] = z;
        }
    }

    /// Contiguous fused Adam sweep over `vals.len()` elements starting at
    /// the row heads. Uses `mul/add/sqrt/div` (no FMA) in exactly the
    /// scalar `adam_step` operation order, so each lane is bit-identical
    /// to the Scalar path.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `wp/mp/vp` must each point at `vals.len()` valid
    /// elements; `prev_delta`, when given, has `vals.len()` elements.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_contiguous(
        wp: *mut f32,
        mp: *mut f32,
        vp: *mut f32,
        vals: &[f32],
        delta: f32,
        mut prev_delta: Option<&mut [f32]>,
        adam: &AdamParams,
        clr: f32,
    ) {
        let n = vals.len();
        let b1 = _mm256_set1_ps(adam.beta1);
        let c1 = _mm256_set1_ps(1.0 - adam.beta1);
        let b2 = _mm256_set1_ps(adam.beta2);
        let c2 = _mm256_set1_ps(1.0 - adam.beta2);
        let eps = _mm256_set1_ps(adam.eps);
        let lr = _mm256_set1_ps(clr);
        let dv = _mm256_set1_ps(delta);
        let chunks = n / 8;
        for c in 0..chunks {
            let i = c * 8;
            let w_old = _mm256_loadu_ps(wp.add(i));
            if let Some(pd) = prev_delta.as_deref_mut() {
                let p = pd.as_mut_ptr().add(i);
                _mm256_storeu_ps(
                    p,
                    _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(dv, w_old)),
                );
            }
            // g = delta * val;  m = β₁m + (1−β₁)g;  v = β₂v + ((1−β₂)g)g;
            // w = w_old − clr·m / (√v + ε)  — the scalar op order.
            let g = _mm256_mul_ps(dv, _mm256_loadu_ps(vals.as_ptr().add(i)));
            let m2 = _mm256_add_ps(
                _mm256_mul_ps(b1, _mm256_loadu_ps(mp.add(i))),
                _mm256_mul_ps(c1, g),
            );
            let v2 = _mm256_add_ps(
                _mm256_mul_ps(b2, _mm256_loadu_ps(vp.add(i))),
                _mm256_mul_ps(_mm256_mul_ps(c2, g), g),
            );
            let den = _mm256_add_ps(_mm256_sqrt_ps(v2), eps);
            let w2 = _mm256_sub_ps(w_old, _mm256_div_ps(_mm256_mul_ps(lr, m2), den));
            _mm256_storeu_ps(wp.add(i), w2);
            _mm256_storeu_ps(mp.add(i), m2);
            _mm256_storeu_ps(vp.add(i), v2);
        }
        for i in chunks * 8..n {
            let w_old = *wp.add(i);
            if let Some(pd) = prev_delta.as_deref_mut() {
                pd[i] += delta * w_old;
            }
            let (w2, m2, v2) =
                crate::ops::adam_step(w_old, *mp.add(i), *vp.add(i), delta * vals[i], adam, clr);
            *wp.add(i) = w2;
            *mp.add(i) = m2;
            *vp.add(i) = v2;
        }
    }

    /// Lanes `0..rem` set (all eight when `rem ≥ 8`).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (register-only, touches no memory).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_below(rem: usize) -> __m256i {
        let rem = rem.min(8) as i32;
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(rem),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Units `k..k + 8` of one input-major row (0 past the last unit): a
    /// plain load when `dense` — masked to `mask` unless `full` — or
    /// eight scalar loads through `units` otherwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2; when `dense`, units `k..k + 8` (only the masked-in
    /// ones unless `full`) index within the row at `row`; otherwise every
    /// id in `units[k..]` does.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_units(
        row: *const f32,
        units: &[u32],
        dense: bool,
        k: usize,
        full: bool,
        mask: __m256i,
    ) -> __m256 {
        if !dense {
            let mut lanes = [0.0f32; 8];
            for (lane, &j) in lanes.iter_mut().zip(&units[k..]) {
                *lane = *row.add(j as usize);
            }
            _mm256_loadu_ps(lanes.as_ptr())
        } else if full {
            _mm256_loadu_ps(row.add(k))
        } else {
            _mm256_maskload_ps(row.add(k), mask)
        }
    }

    /// [`super::gather_dot_input_major`]'s `n ≥ 16` body. Per block of
    /// 8 units (one lane each): two passes of 8 FMA chains, id `p` into
    /// chain `p mod 16` (the lanes of [`super::gather_dot`]'s `acc0` and
    /// `acc1`), then the `acc0 + acc1` / [`hsum`] fold, the sequential
    /// tail and `init +` — that unit's exact order.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every id indexes a row of `stride` cells at
    /// `wp`; every unit (`0..units.len()` when `dense`) is below
    /// `stride`; `out.len() == units.len()` and `ids.len() ==
    /// vals.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_input_major(
        wp: *const f32,
        stride: usize,
        ids: &[u32],
        vals: &[f32],
        units: &[u32],
        dense: bool,
        out: &mut [f32],
    ) {
        let n = ids.len();
        let u = units.len();
        let head = n / 16 * 16;
        if dense {
            // Every block revisits every row: start all the misses now.
            for &id in ids {
                prefetch_row_head(wp.wrapping_add(id as usize * stride), u);
            }
        }
        let mut k = 0;
        while k < u {
            let mask = lanes_below(u - k);
            let full = u - k >= 8;
            let term = |p: usize| {
                let row = wp.add(ids[p] as usize * stride);
                (
                    load_units(row, units, dense, k, full, mask),
                    _mm256_set1_ps(vals[p]),
                )
            };
            let mut acc = [[_mm256_setzero_ps(); 8]; 2];
            for (half, chains) in acc.iter_mut().enumerate() {
                for c in (0..head).step_by(16) {
                    for (s, chain) in chains.iter_mut().enumerate() {
                        let (w8, v8) = term(c + 8 * half + s);
                        *chain = _mm256_fmadd_ps(w8, v8, *chain);
                    }
                }
            }
            // acc0 + acc1, then hsum's lo + hi, movehl and final add.
            let t: [__m256; 8] = std::array::from_fn(|l| _mm256_add_ps(acc[0][l], acc[1][l]));
            let q0 = _mm256_add_ps(t[0], t[4]);
            let q1 = _mm256_add_ps(t[1], t[5]);
            let q2 = _mm256_add_ps(t[2], t[6]);
            let q3 = _mm256_add_ps(t[3], t[7]);
            let mut z = _mm256_add_ps(_mm256_add_ps(q0, q2), _mm256_add_ps(q1, q3));
            for p in head..n {
                let (w8, v8) = term(p);
                z = _mm256_add_ps(z, _mm256_mul_ps(w8, v8));
            }
            let o = out.as_mut_ptr().add(k);
            if full {
                _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), z));
            } else {
                _mm256_maskstore_ps(o, mask, _mm256_add_ps(_mm256_maskload_ps(o, mask), z));
            }
            k += 8;
        }
    }

    /// [`super::adam_step_input_major`]'s dense-unit sweep: per input
    /// row, 8 units at a time, the [`adam_contiguous`] op sequence (no
    /// FMA) with every load and store masked to the in-range units whose
    /// delta is nonzero, so other cells are neither read nor written.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every id indexes a row of `stride` cells at each of
    /// `wp`/`mp`/`vp`; `deltas.len() ≤ stride`; `ids.len() ==
    /// vals.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_input_major(
        wp: *mut f32,
        mp: *mut f32,
        vp: *mut f32,
        stride: usize,
        ids: &[u32],
        vals: &[f32],
        deltas: &[f32],
        adam: &AdamParams,
        clr: f32,
    ) {
        let u = deltas.len();
        let b1 = _mm256_set1_ps(adam.beta1);
        let c1 = _mm256_set1_ps(1.0 - adam.beta1);
        let b2 = _mm256_set1_ps(adam.beta2);
        let c2 = _mm256_set1_ps(1.0 - adam.beta2);
        let eps = _mm256_set1_ps(adam.eps);
        let lr = _mm256_set1_ps(clr);
        let zero = _mm256_setzero_ps();
        for (p, (&id, &val)) in ids.iter().zip(vals).enumerate() {
            if let Some(&ahead) = ids.get(p + ROW_PREFETCH_AHEAD) {
                let base = ahead as usize * stride;
                prefetch_row_head(wp.wrapping_add(base), u);
                prefetch_row_head(mp.wrapping_add(base), u);
                prefetch_row_head(vp.wrapping_add(base), u);
            }
            let base = id as usize * stride;
            let (w, m, v) = (wp.add(base), mp.add(base), vp.add(base));
            let vv = _mm256_set1_ps(val);
            let mut k = 0;
            while k < u {
                let in_range = lanes_below(u - k);
                let dv = _mm256_maskload_ps(deltas.as_ptr().add(k), in_range);
                // `!(delta == 0.0)`: NaN deltas are live, like the scalar
                // skip test.
                let live = _mm256_and_si256(
                    in_range,
                    _mm256_castps_si256(_mm256_cmp_ps::<_CMP_NEQ_UQ>(dv, zero)),
                );
                if _mm256_testz_si256(live, live) == 0 {
                    let w_old = _mm256_maskload_ps(w.add(k), live);
                    let g = _mm256_mul_ps(dv, vv);
                    let m2 = _mm256_add_ps(
                        _mm256_mul_ps(b1, _mm256_maskload_ps(m.add(k), live)),
                        _mm256_mul_ps(c1, g),
                    );
                    let v2 = _mm256_add_ps(
                        _mm256_mul_ps(b2, _mm256_maskload_ps(v.add(k), live)),
                        _mm256_mul_ps(_mm256_mul_ps(c2, g), g),
                    );
                    let den = _mm256_add_ps(_mm256_sqrt_ps(v2), eps);
                    let w2 = _mm256_sub_ps(w_old, _mm256_div_ps(_mm256_mul_ps(lr, m2), den));
                    _mm256_maskstore_ps(w.add(k), live, w2);
                    _mm256_maskstore_ps(m.add(k), live, m2);
                    _mm256_maskstore_ps(v.add(k), live, v2);
                }
                k += 8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn atomic_row(values: &[f32]) -> Vec<AtomicU32> {
        values.iter().map(|v| AtomicU32::new(v.to_bits())).collect()
    }

    fn row_values(row: &[AtomicU32]) -> Vec<f32> {
        row.iter().map(read).collect()
    }

    /// Pseudo-random but deterministic test data.
    fn wave(n: usize, f: f32, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * f).sin() * scale).collect()
    }

    #[test]
    fn read_write_round_trip() {
        let cell = AtomicU32::new(0);
        write(&cell, -3.25);
        assert_eq!(read(&cell), -3.25);
    }

    #[test]
    fn gather_dot_known_values() {
        let row = atomic_row(&[1.0, 2.0, 3.0, 4.0]);
        let ids = [3u32, 0];
        let vals = [10.0f32, 100.0];
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            assert_eq!(gather_dot(&row, &ids, &vals, 0.5, mode), 0.5 + 40.0 + 100.0);
        }
    }

    #[test]
    fn gather_dot_exact_agreement_on_short_ascending_ids() {
        // Fewer than 8 ids: the vectorized kernel takes the sequential
        // tail, so the summation order matches Scalar exactly.
        let row = atomic_row(&wave(32, 0.7, 2.0));
        let ids: Vec<u32> = (0..7).map(|i| i * 4).collect();
        let vals = wave(7, 0.3, 1.5);
        let s = gather_dot(&row, &ids, &vals, 0.125, KernelMode::Scalar);
        let v = gather_dot(&row, &ids, &vals, 0.125, KernelMode::Vectorized);
        assert_eq!(s.to_bits(), v.to_bits());
    }

    #[test]
    fn gather_dot_dense_identity_agrees_with_scalar() {
        // The contiguous SIMD path (dense-identity ids, n >= 16).
        let row = atomic_row(&wave(200, 0.61, 1.5));
        let ids: Vec<u32> = (0..200u32).collect();
        let vals = wave(200, 0.23, 1.0);
        let s = gather_dot(&row, &ids, &vals, 0.5, KernelMode::Scalar);
        let v = gather_dot(&row, &ids, &vals, 0.5, KernelMode::Vectorized);
        assert!((s - v).abs() <= 1e-4 * (1.0 + s.abs()), "{s} vs {v}");
    }

    #[test]
    fn gather_dot_batch_matches_per_example() {
        // Below 16 cells the vectorized mode takes the portable
        // four-wide path; Scalar is gather_dot per example, bit for bit.
        for n in [7usize, 13, 37, 64] {
            let row = atomic_row(&wave(n + 3, 0.9, 1.0));
            let ids: Vec<u32> = (0..n as u32).collect();
            let examples = 5;
            let vals = wave(n * examples, 0.21, 1.0);
            let mut out = vec![0.0f32; examples];
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                gather_dot_batch(&row, n, &vals, 0b1_1111, -0.25, &mut out, mode);
                for (e, &o) in out.iter().enumerate() {
                    let ex = &vals[e * n..(e + 1) * n];
                    let single = gather_dot(&row, &ids, ex, -0.25, KernelMode::Scalar);
                    if mode == KernelMode::Scalar {
                        assert_eq!(o.to_bits(), single.to_bits(), "n {n}, example {e}");
                    }
                    assert!(
                        (o - single).abs() <= 1e-4 * (1.0 + single.abs()),
                        "mode {mode}, n {n}, example {e}: {o} vs {single}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_dot_batch_empty_ids_yields_init() {
        let row = atomic_row(&[1.0]);
        let mut out = vec![9.0f32; 3];
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            gather_dot_batch(&row, 0, &[], 0b111, 0.75, &mut out, mode);
            assert_eq!(out, vec![0.75; 3]);
        }
    }

    /// Scores the `owners` of a batch of `vals.len() / n` examples and
    /// checks each owner's score against its one-example call to the
    /// bit, and every other slot untouched.
    fn check_owner_set(
        row: &[AtomicU32],
        n: usize,
        vals: &[f32],
        owners: u64,
        mode: KernelMode,
    ) -> Result<(), String> {
        let untouched = f32::from_bits(0x7fc0_1234);
        let mut out = vec![untouched; vals.len() / n];
        gather_dot_batch(row, n, vals, owners, 0.375, &mut out, mode);
        for (e, &z) in out.iter().enumerate() {
            let want = if owners >> e & 1 == 1 {
                let mut one = [0.0f32];
                gather_dot_batch(row, n, &vals[e * n..(e + 1) * n], 1, 0.375, &mut one, mode);
                one[0]
            } else {
                untouched
            };
            prop_assert!(
                z.to_bits() == want.to_bits(),
                "{mode}, n {n}, example {e}: {z} vs {want}"
            );
        }
        Ok(())
    }

    /// `count` distinct example indices below 64, drawn from `seed`.
    fn owner_subset(count: usize, seed: u64) -> u64 {
        let mut ids: Vec<u64> = (0..64).collect();
        let mut state = seed | 1;
        for i in (1..64).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ids.swap(i, (state % (i as u64 + 1)) as usize);
        }
        ids[..count].iter().fold(0, |m, &e| m | 1 << e)
    }

    #[test]
    fn gather_dot_batch_owner_sets_of_every_size_match_one_example_calls() {
        // Every owner count 0..=64 covers each full 8-block and every
        // remainder block width; n spans the portable path (< 16), the
        // AVX2 path and 8-lane tails.
        for n in [1usize, 7, 15, 16, 21, 64, 133] {
            let row = atomic_row(&wave(n, 0.83, 1.5));
            let vals = wave(n * 64, 0.19, 1.0);
            for count in 0..=64 {
                let owners = owner_subset(count, (n * 64 + count) as u64);
                assert_eq!(owners.count_ones() as usize, count);
                for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                    check_owner_set(&row, n, &vals, owners, mode).unwrap();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the batch")]
    fn gather_dot_batch_rejects_an_owner_past_the_batch() {
        let row = atomic_row(&wave(16, 0.5, 1.0));
        let vals = wave(16 * 3, 0.3, 1.0);
        let mut out = [0.0f32; 3];
        gather_dot_batch(
            &row,
            16,
            &vals,
            0b1001,
            0.0,
            &mut out,
            KernelMode::Vectorized,
        );
    }

    #[test]
    fn adam_step_gather_matches_sequential_reference() {
        let adam = AdamParams::with_lr(0.01);
        let clr = adam.corrected_lr(3);
        let fan_in = 37;
        let ids: Vec<u32> = (0..fan_in as u32).rev().collect(); // unique, descending
        let vals = wave(fan_in, 0.51, 2.0);
        let delta = 0.7f32;

        let run = |mode: KernelMode| {
            let w = atomic_row(&wave(fan_in, 0.13, 1.0));
            let m = atomic_row(&wave(fan_in, 0.29, 0.1));
            let v = atomic_row(
                &wave(fan_in, 0.37, 0.01)
                    .iter()
                    .map(|x| x * x)
                    .collect::<Vec<_>>(),
            );
            let mut pd = vec![0.5f32; fan_in];
            adam_step_gather(
                &w,
                &m,
                &v,
                &ids,
                &vals,
                delta,
                Some(&mut pd),
                &adam,
                clr,
                mode,
            );
            (row_values(&w), row_values(&m), row_values(&v), pd)
        };
        let (ws, ms, vs, pds) = run(KernelMode::Scalar);
        let (wv, mv, vv, pdv) = run(KernelMode::Vectorized);
        // Unique ids + identical per-element arithmetic: exact agreement.
        for i in 0..fan_in {
            assert_eq!(ws[i].to_bits(), wv[i].to_bits(), "w[{i}]");
            assert_eq!(ms[i].to_bits(), mv[i].to_bits(), "m[{i}]");
            assert_eq!(vs[i].to_bits(), vv[i].to_bits(), "v[{i}]");
            assert_eq!(pds[i].to_bits(), pdv[i].to_bits(), "prev_delta[{i}]");
        }
    }

    #[test]
    fn adam_step_gather_identity_simd_block_is_bit_exact() {
        // Dense-identity ids, n >= 8: the AVX block (when available) must
        // still match Scalar bit-for-bit — it uses the same op sequence.
        let adam = AdamParams::default();
        let clr = adam.corrected_lr(12);
        let n = 61; // 7 full 8-lane blocks + remainder
        let ids: Vec<u32> = (0..n as u32).collect();
        let vals = wave(n, 0.47, 1.7);
        let run = |mode: KernelMode| {
            let w = atomic_row(&wave(n, 0.11, 1.0));
            let m = atomic_row(&wave(n, 0.31, 0.2));
            let v = atomic_row(&vec![0.003f32; n]);
            let mut pd = vec![0.25f32; n];
            adam_step_gather(
                &w,
                &m,
                &v,
                &ids,
                &vals,
                -0.9,
                Some(&mut pd),
                &adam,
                clr,
                mode,
            );
            (row_values(&w), row_values(&m), row_values(&v), pd)
        };
        let (ws, ms, vs, pds) = run(KernelMode::Scalar);
        let (wv, mv, vv, pdv) = run(KernelMode::Vectorized);
        for i in 0..n {
            assert_eq!(ws[i].to_bits(), wv[i].to_bits(), "w[{i}]");
            assert_eq!(ms[i].to_bits(), mv[i].to_bits(), "m[{i}]");
            assert_eq!(vs[i].to_bits(), vv[i].to_bits(), "v[{i}]");
            assert_eq!(pds[i].to_bits(), pdv[i].to_bits(), "prev_delta[{i}]");
        }
    }

    #[test]
    fn adam_step_gather_without_prev_delta() {
        let adam = AdamParams::default();
        let clr = adam.corrected_lr(1);
        let w = atomic_row(&[1.0, 2.0]);
        let m = atomic_row(&[0.0, 0.0]);
        let v = atomic_row(&[0.0, 0.0]);
        adam_step_gather(
            &w,
            &m,
            &v,
            &[0, 1],
            &[1.0, -1.0],
            0.5,
            None,
            &adam,
            clr,
            KernelMode::Vectorized,
        );
        // Positive gradient moves the weight down, negative up.
        assert!(read(&w[0]) < 1.0);
        assert!(read(&w[1]) > 2.0);
        assert!(read(&m[0]) > 0.0 && read(&v[0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gather_dot_validates_lengths() {
        let row = atomic_row(&[1.0]);
        let _ = gather_dot(&row, &[0, 0], &[1.0], 0.0, KernelMode::Scalar);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vectorized_gather_validates_ids_before_touching_memory() {
        let row = atomic_row(&[1.0, 2.0]);
        let _ = gather_dot(&row, &[0, 5], &[1.0, 1.0], 0.0, KernelMode::Vectorized);
    }

    proptest! {
        #[test]
        fn prop_gather_dot_modes_agree(
            pairs in proptest::collection::vec((0u32..64, -4.0f32..4.0), 0..120),
            init in -2.0f32..2.0
        ) {
            let row = atomic_row(&wave(64, 0.77, 3.0));
            let (ids, vals): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
            let s = gather_dot(&row, &ids, &vals, init, KernelMode::Scalar);
            let v = gather_dot(&row, &ids, &vals, init, KernelMode::Vectorized);
            prop_assert!((s - v).abs() <= 1e-5 * (1.0 + s.abs()) * ids.len().max(1) as f32,
                "scalar {s} vs vectorized {v}");
        }

        #[test]
        fn prop_adam_step_gather_modes_agree(
            raw_ids in proptest::collection::vec(0u32..96, 1..80),
            delta in -2.0f32..2.0,
            step in 1u64..200
        ) {
            // Unique ids (the engine's id lists never repeat).
            let mut ids = raw_ids;
            ids.sort_unstable();
            ids.dedup();
            let vals = wave(ids.len(), 0.43, 2.0);
            let adam = AdamParams::default();
            let clr = adam.corrected_lr(step);
            let run = |mode: KernelMode| {
                let w = atomic_row(&wave(96, 0.17, 1.0));
                let m = atomic_row(&wave(96, 0.23, 0.1));
                let v = atomic_row(&vec![0.01f32; 96]);
                let mut pd = vec![0.0f32; ids.len()];
                adam_step_gather(&w, &m, &v, &ids, &vals, delta, Some(&mut pd), &adam, clr, mode);
                (row_values(&w), pd)
            };
            let (ws, pds) = run(KernelMode::Scalar);
            let (wv, pdv) = run(KernelMode::Vectorized);
            for i in 0..96 {
                prop_assert!((ws[i] - wv[i]).abs() <= 1e-5 * (1.0 + ws[i].abs()), "w[{}]", i);
            }
            for i in 0..ids.len() {
                prop_assert!((pds[i] - pdv[i]).abs() <= 1e-5 * (1.0 + pds[i].abs()), "pd[{}]", i);
            }
        }

        #[test]
        fn prop_gather_dot_batch_owner_subsets_match_one_example_calls(
            n in 1usize..201,
            shape in (1usize..65, 0u64..u64::MAX)
        ) {
            let (b, owners) = (shape.0, shape.1 & (u64::MAX >> (64 - shape.0)));
            let row = atomic_row(&wave(n, 0.71, 2.0));
            let vals = wave(n * b, 0.37, 1.0);
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                check_owner_set(&row, n, &vals, owners, mode)?;
            }
        }

        #[test]
        fn prop_input_major_kernels_match_per_unit_kernels_bit_for_bit(
            pairs in proptest::collection::vec((0u32..IM_FAN_IN as u32, -4.0f32..4.0), 0..41),
            shape in (1usize..40, 0u64..1 << 40)
        ) {
            let case = ImCase::new(&pairs, shape.0, shape.1);
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                case.forward_matches(mode)?;
                case.adam_matches(mode)?;
            }
        }
    }

    /// Fan-in of the input-major test layers.
    const IM_FAN_IN: usize = 96;

    /// One input-major kernel case: a `stride`-unit layer over
    /// `IM_FAN_IN` inputs, unique ids (the engine's feature ids are),
    /// dense or sparse active units, and deltas of which about a third
    /// are zero.
    struct ImCase {
        stride: usize,
        ids: Vec<u32>,
        vals: Vec<f32>,
        units: Vec<u32>,
        deltas: Vec<f32>,
        bias: Vec<f32>,
    }

    impl ImCase {
        fn new(pairs: &[(u32, f32)], stride: usize, seed: u64) -> Self {
            let mut state = seed;
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut seen = [false; IM_FAN_IN];
            let (ids, vals) = pairs
                .iter()
                .filter(|&&(id, _)| !std::mem::replace(&mut seen[id as usize], true))
                .copied()
                .unzip();
            let units: Vec<u32> = if next() % 2 == 0 {
                (0..stride as u32).collect()
            } else {
                let mut all: Vec<u32> = (0..stride as u32).collect();
                for i in (1..all.len()).rev() {
                    all.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                all.truncate(1 + (next() % stride as u64) as usize);
                all
            };
            let unit = |r: u64| (r >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            let deltas = units
                .iter()
                .map(|_| match next() % 3 {
                    0 => 0.0,
                    _ => unit(next()),
                })
                .collect();
            let bias = (0..stride).map(|_| unit(next())).collect();
            Self {
                stride,
                ids,
                vals,
                units,
                deltas,
                bias,
            }
        }

        /// A unit-major `stride × IM_FAN_IN` matrix, one atomic row per
        /// unit, and the same values input-major.
        fn layouts(&self, f: f32, scale: f32) -> (Vec<Vec<AtomicU32>>, Vec<AtomicU32>) {
            let values = wave(self.stride * IM_FAN_IN, f, scale);
            let rows = values.chunks_exact(IM_FAN_IN).map(atomic_row).collect();
            let mut transposed = vec![0.0; values.len()];
            for (j, row) in values.chunks_exact(IM_FAN_IN).enumerate() {
                for (i, &x) in row.iter().enumerate() {
                    transposed[i * self.stride + j] = x;
                }
            }
            (rows, atomic_row(&transposed))
        }

        /// Whether unit-major `rows` and input-major `cells` hold the same
        /// bits in every cell.
        fn same_bits(
            &self,
            rows: &[Vec<AtomicU32>],
            cells: &[AtomicU32],
            what: &str,
        ) -> Result<(), String> {
            for (j, row) in rows.iter().enumerate() {
                for (i, cell) in row.iter().enumerate() {
                    let (a, b) = (read(cell), read(&cells[i * self.stride + j]));
                    if a.to_bits() != b.to_bits() {
                        return Err(format!("{what}[unit {j}][input {i}]: {a} vs {b}"));
                    }
                }
            }
            Ok(())
        }

        fn forward_matches(&self, mode: KernelMode) -> Result<(), String> {
            let (rows, cells) = self.layouts(0.37, 1.5);
            let mut out: Vec<f32> = self.units.iter().map(|&j| self.bias[j as usize]).collect();
            gather_dot_input_major(
                &cells,
                self.stride,
                &self.ids,
                &self.vals,
                &self.units,
                &mut out,
                mode,
            );
            for (&j, &got) in self.units.iter().zip(&out) {
                let j = j as usize;
                let want = gather_dot(&rows[j], &self.ids, &self.vals, self.bias[j], mode);
                if want.to_bits() != got.to_bits() {
                    return Err(format!(
                        "{mode} forward, nnz {}, stride {}, unit {j}: {want} vs {got}",
                        self.ids.len(),
                        self.stride
                    ));
                }
            }
            Ok(())
        }

        fn adam_matches(&self, mode: KernelMode) -> Result<(), String> {
            let adam = AdamParams::default();
            let clr = adam.corrected_lr(7);
            let (w_rows, w) = self.layouts(0.13, 1.0);
            let (m_rows, m) = self.layouts(0.29, 0.1);
            let (v_rows, v) = self.layouts(0.41, 0.01);
            for cell in v_rows.iter().flatten().chain(&v) {
                write(cell, read(cell) * read(cell));
            }
            for (&j, &delta) in self.units.iter().zip(&self.deltas) {
                if delta != 0.0 {
                    let j = j as usize;
                    adam_step_gather(
                        &w_rows[j], &m_rows[j], &v_rows[j], &self.ids, &self.vals, delta, None,
                        &adam, clr, mode,
                    );
                }
            }
            adam_step_input_major(
                &w,
                &m,
                &v,
                self.stride,
                &self.ids,
                &self.vals,
                &self.units,
                &self.deltas,
                &adam,
                clr,
                mode,
            );
            let what = format!(
                "{mode} adam, nnz {}, stride {}",
                self.ids.len(),
                self.stride
            );
            self.same_bits(&w_rows, &w, &format!("{what}: w"))?;
            self.same_bits(&m_rows, &m, &format!("{what}: m"))?;
            self.same_bits(&v_rows, &v, &format!("{what}: v"))
        }
    }

    #[test]
    fn input_major_kernels_match_per_unit_kernels_on_every_nnz() {
        // Every id count 0..=40 (below 16, exactly 16 and 32, and every
        // tail), unit counts on and off multiples of 8, dense and sparse
        // active sets, both modes.
        let pairs: Vec<(u32, f32)> = (0..40u32)
            .map(|p| {
                (
                    (p * 37 + 11) % IM_FAN_IN as u32,
                    ((p as f32) * 0.71).sin() * 3.0,
                )
            })
            .collect();
        for nnz in 0..=40 {
            for stride in [1, 5, 8, 13, 16, 37] {
                for seed in 0..4 {
                    let case = ImCase::new(&pairs[..nnz], stride, seed);
                    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                        case.forward_matches(mode).unwrap();
                        case.adam_matches(mode).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn input_major_kernels_validate_ids_before_touching_memory() {
        let adam = AdamParams::default();
        let (stride, fan_in) = (5, 7);
        let bad = [
            (vec![0u32, 3, fan_in as u32], vec![0u32, 1, 2]),
            (vec![0u32, 3, 6], vec![0u32, stride as u32]),
        ];
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            for (ids, units) in &bad {
                let vals = vec![1.0f32; ids.len()];
                let deltas = vec![1.0f32; units.len()];
                let w = atomic_row(&wave(stride * fan_in, 0.3, 1.0));
                let m = atomic_row(&vec![0.0; stride * fan_in]);
                let v = atomic_row(&vec![0.0; stride * fan_in]);
                let before = row_values(&w);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    adam_step_input_major(
                        &w, &m, &v, stride, ids, &vals, units, &deltas, &adam, 0.1, mode,
                    )
                }));
                assert!(caught.is_err(), "{mode}: adam accepted {ids:?} / {units:?}");
                assert_eq!(row_values(&w), before, "{mode}: w touched before the panic");
                assert!(row_values(&m)
                    .iter()
                    .chain(&row_values(&v))
                    .all(|&x| x == 0.0));
                let mut out = vec![0.5f32; units.len()];
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    gather_dot_input_major(&w, stride, ids, &vals, units, &mut out, mode)
                }));
                assert!(
                    caught.is_err(),
                    "{mode}: forward accepted {ids:?} / {units:?}"
                );
                assert!(
                    out.iter().all(|&z| z == 0.5),
                    "{mode}: out written before the panic"
                );
            }
        }
    }
}
