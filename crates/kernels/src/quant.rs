//! Fixed-point i16 row kernels for the frozen serving path.
//!
//! Training stays f32/HOGWILD; at snapshot time the wide output layer's
//! rows can be quantized to 16-bit fixed point with one scale per row
//! (`w ≈ scale · q`, `q ∈ [-32767, 32767]`), halving the bytes every
//! candidate-scoring gather moves. These kernels fuse the dequantization
//! into the dot product: the integer row is widened in registers and
//! multiplied by the f32 activations, and the row scale is applied once
//! to the final sum — `z = init + scale · Σᵢ q[i] · valsᵢ`.
//!
//! Mirrors [`crate::fused`]: `Scalar` is the strict sequential reference,
//! `Vectorized` dispatches to AVX2/FMA at runtime with an unrolled
//! portable fallback. Quantized rows are immutable (serving only), so
//! unlike `fused` there is no atomic-cell protocol here — plain `&[i16]`.

use crate::fused::{check_owners, owner_ids};
use crate::ops::KernelMode;

/// Quantizes one f32 row to i16, returning the per-row scale.
///
/// The scale is `max|row| / 32767` so the largest magnitude maps to the
/// edge of the i16 range; an all-zero row gets scale `0.0`. Round-trip
/// error per weight is at most `scale / 2` (plus a few ulps of f32
/// rounding in the encode — the reciprocal `32767 / max` is not exact).
///
/// # Panics
///
/// Panics if the slice lengths differ or the row contains a non-finite
/// value.
pub fn quantize_row(row: &[f32], q: &mut [i16]) -> f32 {
    assert_eq!(row.len(), q.len(), "quantize_row: length mismatch");
    let mut max = 0.0f32;
    for &w in row {
        assert!(w.is_finite(), "quantize_row: non-finite weight {w}");
        max = max.max(w.abs());
    }
    if max == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let scale = max / 32767.0;
    let inv = 32767.0 / max;
    for (dst, &w) in q.iter_mut().zip(row) {
        *dst = (w * inv).round().clamp(-32767.0, 32767.0) as i16;
    }
    scale
}

/// Scores the first `n` codes of one quantized row against the examples
/// an owner mask names: for every bit `e` set in `owners`,
/// `out[e] = init + scale · Σᵢ q[i] · vals[e·n + i]`. Entries of `out`
/// whose bit is clear are left as they were.
///
/// The integer-to-float widening is exact (`|q| ≤ 32767 < 2²⁴`), so the
/// only quantization error is the one introduced at encode time. `vals`
/// is example-major over the `b = out.len()` examples, exactly like
/// [`crate::fused::gather_dot_batch`] — this is its quantized sibling for
/// the batched serving scorer, moving half the row bytes. `Scalar` and
/// `Vectorized` differ only in summation order; within a mode a score's
/// bits do not depend on the owner set.
///
/// # Panics
///
/// Panics if `n > q.len()`, `vals.len() != n * out.len()`, or an owner
/// bit names an example at or past `out.len()` — all checked before any
/// memory is read.
#[allow(clippy::too_many_arguments)]
pub fn dot_batch_q16(
    q: &[i16],
    scale: f32,
    n: usize,
    vals: &[f32],
    owners: u64,
    init: f32,
    out: &mut [f32],
    mode: KernelMode,
) {
    assert!(n <= q.len(), "dot_batch_q16: n exceeds row length");
    assert_eq!(
        vals.len(),
        n * out.len(),
        "dot_batch_q16: vals must hold n values per example"
    );
    check_owners(owners, out.len());
    match mode {
        KernelMode::Scalar => {
            for e in owner_ids(owners) {
                let ex = &vals[e * n..(e + 1) * n];
                let mut acc = 0.0f32;
                for (i, &v) in ex.iter().enumerate() {
                    acc += q[i] as f32 * v;
                }
                out[e] = init + scale * acc;
            }
        }
        KernelMode::Vectorized => {
            #[cfg(target_arch = "x86_64")]
            if n >= 16 && crate::fused::have_avx2_fma() {
                // SAFETY: n bounds-checked against the row, every owner
                // indexes one of the out.len() examples in vals; AVX2+FMA
                // presence checked.
                unsafe { avxq::dot_batch(q.as_ptr(), scale, n, vals, owners, init, out) };
                return;
            }

            for e in owner_ids(owners) {
                let ex = &vals[e * n..(e + 1) * n];
                let mut acc = [0.0f32; 4];
                let chunks = n / 4;
                for c in 0..chunks {
                    let i = c * 4;
                    for lane in 0..4 {
                        acc[lane] += q[i + lane] as f32 * ex[i + lane];
                    }
                }
                let mut z = acc.iter().sum::<f32>();
                for i in chunks * 4..n {
                    z += q[i] as f32 * ex[i];
                }
                out[e] = init + scale * z;
            }
        }
    }
}

/// AVX2/FMA widening-dot kernel (x86-64 only). Eight i16 lanes are
/// loaded per 128-bit read, widened to i32 then f32 — both exact — and
/// FMA'd against the activations.
#[cfg(target_arch = "x86_64")]
mod avxq {
    use std::arch::x86_64::*;

    use crate::fused::pop_owner;

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
        let quad = _mm_add_ps(lo, hi);
        let dual = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let s = _mm_add_ss(dual, _mm_shuffle_ps(dual, dual, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Loads 8 consecutive i16 and widens to 8 f32 lanes (exact).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must point at 8 readable i16.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen8(p: *const i16) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(p as *const __m128i)))
    }

    /// One contiguous quantized row against the examples `owners` names
    /// in the example-major `vals`, owners blocked eight at a time so each
    /// widened row block is reused across eight FMA chains — the widen
    /// (load + two converts) costs roughly triple an f32 row load, so it
    /// needs that much amortization to reach compute parity with the f32
    /// kernel while moving half the row bytes. The remainder runs as one
    /// block of fewer chains: a lone FMA chain is latency-bound.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; the row must hold at least `n` elements; every
    /// owner `e` must satisfy `(e + 1) * n <= vals.len()` and
    /// `e < out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_batch(
        qp: *const i16,
        scale: f32,
        n: usize,
        vals: &[f32],
        mut owners: u64,
        init: f32,
        out: &mut [f32],
    ) {
        while owners.count_ones() >= 8 {
            dot_block::<8>(qp, scale, n, vals, &mut owners, init, out);
        }
        let rest = &mut owners;
        match rest.count_ones() {
            0 => {}
            1 => dot_block::<1>(qp, scale, n, vals, rest, init, out),
            2 => dot_block::<2>(qp, scale, n, vals, rest, init, out),
            3 => dot_block::<3>(qp, scale, n, vals, rest, init, out),
            4 => dot_block::<4>(qp, scale, n, vals, rest, init, out),
            5 => dot_block::<5>(qp, scale, n, vals, rest, init, out),
            6 => dot_block::<6>(qp, scale, n, vals, rest, init, out),
            _ => dot_block::<7>(qp, scale, n, vals, rest, init, out),
        }
    }

    /// [`dot_batch`] over the `N` lowest owners, which it pops from
    /// `owners`: `N` independent FMA chains sharing each widened row
    /// block.
    ///
    /// # Safety
    ///
    /// As [`dot_batch`], with at least `N` bits set in `owners`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_block<const N: usize>(
        qp: *const i16,
        scale: f32,
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
            let w8 = widen8(qp.add(i));
            for k in 0..N {
                acc[k] =
                    _mm256_fmadd_ps(w8, _mm256_loadu_ps(vals.as_ptr().add(base[k] + i)), acc[k]);
            }
        }
        for k in 0..N {
            let mut z = hsum(acc[k]);
            for i in chunks * 8..n {
                z += *qp.add(i) as f32 * vals[base[k] + i];
            }
            out[ids[k]] = init + scale * z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct TinyRng(u64);

    impl TinyRng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn f32(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        }
    }

    #[test]
    fn quantize_round_trip_error_bound() {
        let mut rng = TinyRng(3);
        let row: Vec<f32> = (0..257).map(|_| rng.f32() * 2.0).collect();
        let mut q = vec![0i16; row.len()];
        let scale = quantize_row(&row, &mut q);
        for (&w, &qi) in row.iter().zip(&q) {
            let back = qi as f32 * scale;
            assert!(
                (w - back).abs() <= scale * 0.5 + f32::EPSILON,
                "{w} -> {back} (scale {scale})"
            );
        }
    }

    #[test]
    fn quantize_zero_row() {
        let row = [0.0f32; 9];
        let mut q = [1i16; 9];
        let scale = quantize_row(&row, &mut q);
        assert_eq!(scale, 0.0);
        assert!(q.iter().all(|&x| x == 0));
    }

    #[test]
    fn quantize_saturates_at_extremes() {
        let row = [3.0f32, -3.0, 1.5];
        let mut q = [0i16; 3];
        let scale = quantize_row(&row, &mut q);
        assert_eq!(q[0], 32767);
        assert_eq!(q[1], -32767);
        assert!((scale - 3.0 / 32767.0).abs() < 1e-9);
    }

    fn setup(n: usize, seed: u64) -> (Vec<i16>, f32, Vec<f32>) {
        let mut rng = TinyRng(seed | 1);
        let row: Vec<f32> = (0..n).map(|_| rng.f32()).collect();
        let mut q = vec![0i16; n];
        let scale = quantize_row(&row, &mut q);
        let vals: Vec<f32> = (0..n).map(|_| rng.f32()).collect();
        (q, scale, vals)
    }

    #[test]
    fn quantized_dot_tracks_f32_dot() {
        // The fused dequantized score must stay within the analytic
        // error bound of the exact f32 dot: |err| ≤ (scale/2)·Σ|v|.
        let mut rng = TinyRng(21);
        let n = 128;
        let row: Vec<f32> = (0..n).map(|_| rng.f32()).collect();
        let vals: Vec<f32> = (0..n).map(|_| rng.f32()).collect();
        let mut q = vec![0i16; n];
        let scale = quantize_row(&row, &mut q);
        let exact: f32 = row.iter().zip(&vals).map(|(w, v)| w * v).sum();
        let bound = 0.5 * scale * vals.iter().map(|v| v.abs()).sum::<f32>() + 1e-4;
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let mut approx = [0.0f32];
            dot_batch_q16(&q, scale, n, &vals, 1, 0.0, &mut approx, mode);
            assert!(
                (exact - approx[0]).abs() <= bound,
                "{mode}: {exact} vs {} (bound {bound})",
                approx[0]
            );
        }
    }

    /// Scores the `owners` of a batch of `vals.len() / n` examples and
    /// checks each owner's score against its one-example call to the
    /// bit, and every other slot untouched.
    fn check_owner_set(
        q: &[i16],
        scale: f32,
        vals: &[f32],
        owners: u64,
        mode: KernelMode,
    ) -> Result<(), String> {
        let n = q.len();
        let untouched = f32::from_bits(0x7fc0_1234);
        let mut out = vec![untouched; vals.len() / n];
        dot_batch_q16(q, scale, n, vals, owners, 0.375, &mut out, mode);
        for (e, &z) in out.iter().enumerate() {
            let want = if owners >> e & 1 == 1 {
                let mut one = [0.0f32];
                let ex = &vals[e * n..(e + 1) * n];
                dot_batch_q16(q, scale, n, ex, 1, 0.375, &mut one, mode);
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

    #[test]
    fn owner_sets_of_every_size_match_one_example_calls() {
        // Every owner count 0..=64 covers each full 8-block and every
        // remainder block width; n spans the portable path (< 16), the
        // AVX2 path and 8-lane tails.
        for n in [1usize, 7, 15, 16, 21, 64, 133] {
            let (q, scale, _) = setup(n, n as u64);
            let mut rng = TinyRng(n as u64 * 7 + 1);
            let vals: Vec<f32> = (0..n * 64).map(|_| rng.f32()).collect();
            for count in 0..=64 {
                // A random `count`-subset of the 64 examples.
                let mut ids: Vec<u32> = (0..64).collect();
                for i in (1..64).rev() {
                    ids.swap(i, (rng.next() % (i as u64 + 1)) as usize);
                }
                let owners = ids[..count].iter().fold(0u64, |m, &e| m | 1 << e);
                for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                    check_owner_set(&q, scale, &vals, owners, mode).unwrap();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the batch")]
    fn owner_past_the_batch_is_rejected() {
        let (q, scale, _) = setup(16, 5);
        let vals = vec![0.5f32; 16 * 3];
        let mut out = [0.0f32; 3];
        dot_batch_q16(
            &q,
            scale,
            16,
            &vals,
            0b1001,
            0.0,
            &mut out,
            KernelMode::Vectorized,
        );
    }

    proptest! {
        #[test]
        fn prop_owner_subsets_match_one_example_calls(
            n in 1usize..201,
            shape in (1usize..65, 0u64..u64::MAX),
            seed in 1u64..3000,
        ) {
            let (b, owners) = (shape.0, shape.1 & (u64::MAX >> (64 - shape.0)));
            let (q, scale, _) = setup(n, seed);
            let mut rng = TinyRng(seed.wrapping_mul(31) | 1);
            let vals: Vec<f32> = (0..n * b).map(|_| rng.f32()).collect();
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                check_owner_set(&q, scale, &vals, owners, mode)?;
            }
        }

        /// One example (batch 1) with a nonzero `init`, over rows longer
        /// than the batch proptest draws.
        #[test]
        fn prop_modes_agree(
            seed in 1u64..3000,
            n in 1usize..200,
            init in -2.0f32..2.0,
        ) {
            let (q, scale, vals) = setup(n, seed);
            let mut a = [0.0f32];
            let mut b = [0.0f32];
            dot_batch_q16(&q, scale, n, &vals, 1, init, &mut a, KernelMode::Scalar);
            dot_batch_q16(&q, scale, n, &vals, 1, init, &mut b, KernelMode::Vectorized);
            prop_assert!((a[0] - b[0]).abs() <= 1e-3 * (1.0 + a[0].abs()));
        }

        #[test]
        fn prop_batch_modes_agree(
            seed in 1u64..3000,
            n in 1usize..80,
            b in 1usize..12,
        ) {
            let (q, scale, _) = setup(n, seed);
            let mut rng = TinyRng(seed.wrapping_mul(31) | 1);
            let vals: Vec<f32> = (0..n * b).map(|_| rng.f32()).collect();
            let all = u64::MAX >> (64 - b);
            let mut s = vec![0.0f32; b];
            let mut v = vec![0.0f32; b];
            dot_batch_q16(&q, scale, n, &vals, all, 0.0, &mut s, KernelMode::Scalar);
            dot_batch_q16(&q, scale, n, &vals, all, 0.0, &mut v, KernelMode::Vectorized);
            for (x, y) in s.iter().zip(&v) {
                prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
            }
        }
    }
}
