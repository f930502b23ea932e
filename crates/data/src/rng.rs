//! Deterministic pseudo-random number generation.
//!
//! The training engine, the LSH hash functions and the synthetic dataset
//! generator all need cheap, reproducible randomness. We implement two
//! small, well-known generators rather than depending on `rand` in the hot
//! path:
//!
//! * [`SplitMix64`] — used for seeding and for one-shot hash mixing;
//! * [`Xoshiro256PlusPlus`] — the workhorse stream generator.
//!
//! Both are wrapped by the [`Rng`] trait so call sites stay generic.

/// A minimal random-number-generator interface.
///
/// All helper methods are derived from [`Rng::next_u64`], so implementors
/// only provide that one method.
///
/// # Example
///
/// ```
/// use slide_data::rng::{Rng, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
/// let x = rng.gen_range(0, 10);
/// assert!(x < 10);
/// ```
pub trait Rng {
    /// Returns the next 64 random bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range requires lo < hi ({lo} >= {hi})");
        let span = (hi - lo) as u64;
        // Lemire's multiply-shift rejection-free mapping; the modulo bias is
        // below 2^-64 * span, negligible for our span sizes.
        let hi64 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi64 as usize
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a standard normal sample (Box–Muller transform).
    fn next_normal(&mut self) -> f64 {
        // Draw until u1 is nonzero so ln() is finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0, i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct values from `[0, n)` (Floyd's algorithm),
    /// returned in unspecified order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from [0, {n})");
        // Floyd's algorithm: O(k) expected time, no O(n) allocation.
        let mut chosen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.gen_range(0, j + 1);
            let v = if chosen.contains(&t) { j } else { t };
            chosen.insert(v);
            out.push(v);
        }
        out
    }
}

/// SplitMix64: a tiny, fast generator with good avalanche behaviour.
///
/// Primarily used to derive seeds for [`Xoshiro256PlusPlus`] streams and as
/// a stateless integer mixer ([`mix64`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0x9E37_79B9_7F4A_7C15)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// Stateless 64-bit finalizer (the SplitMix64 output function).
///
/// Useful as a cheap hash for integers, e.g. mapping neuron ids to buckets.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — the default stream generator for all randomized
/// components (weight init, hash function generation, dataset synthesis).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the four state words from a single `u64` via SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Applies a fixed jump polynomial to the state, moving it a fixed
    /// distance along the stream; [`Xoshiro256PlusPlus::stream`] uses it
    /// to decorrelate the streams it derives.
    ///
    /// The distance is **not** 2^128: words 2 and 3 of `JUMP` differ from
    /// the reference xoshiro256 jump constant, which is x^(2^128) mod the
    /// transition's characteristic polynomial (pinned by
    /// `advance_by_two_to_the_128_is_the_reference_jump_not_jump`). Every
    /// derived stream — and through them the Reservoir tables, the
    /// synthetic corpora and the pinned snapshot bytes — depends on these
    /// bits, so they are kept. For a jump by a known distance, use
    /// [`Xoshiro256PlusPlus::advance`].
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_6611_D871_5512,
            0x3982_0465_FFF0_2BE5,
        ];
        self.apply(JUMP);
    }

    /// Moves the state exactly as `n` calls to `next_u64` would, in
    /// O(log n) time.
    ///
    /// The state transition `A` is linear over GF(2), so `Aⁿ = r(A)` with
    /// `r(x) = xⁿ mod p(x)`, `p` the transition's degree-256
    /// characteristic polynomial. `r` is computed by square-and-multiply
    /// and applied like a jump constant: 256 steps with XOR accumulation.
    pub fn advance(&mut self, n: u128) {
        self.apply(x_pow_mod(n));
    }

    /// Replaces the state `s` with `r(A)·s` for the polynomial `r`
    /// (coefficient of xⁱ at bit `i % 64` of word `i / 64`).
    fn apply(&mut self, r: [u64; 4]) {
        let mut t = [0u64; 4];
        for word in r {
            for b in 0..64 {
                if (word >> b) & 1 == 1 {
                    for (ti, si) in t.iter_mut().zip(self.s.iter()) {
                        *ti ^= si;
                    }
                }
                self.next_u64();
            }
        }
        self.s = t;
    }

    /// Derives the `n`-th independent stream from this generator.
    pub fn stream(&self, n: u64) -> Self {
        let mut rng = self.clone();
        // Mix the stream index into the state, then decorrelate with a jump.
        let mut sm = SplitMix64::new(mix64(n ^ 0xA076_1D64_78BD_642F));
        for s in rng.s.iter_mut() {
            *s ^= sm.next_u64();
        }
        rng.jump();
        rng
    }
}

/// The characteristic polynomial of the xoshiro256 state transition over
/// GF(2): `p(x) = x²⁵⁶ + Σ cᵢ xⁱ`, with `cᵢ` at bit `i % 64` of word
/// `i / 64` and the x²⁵⁶ term implicit. Derived with Berlekamp–Massey from
/// a 1024-step sequence of one state bit; the reference jump constants are
/// x^(2^128) and x^(2^192) mod `p`, which the tests check.
const CHAR_POLY: [u64; 4] = [
    0x9D11_6F2B_B0F0_F001,
    0x0280_002B_CEFD_1A5E,
    0x04B4_EDCF_2625_9F85,
    0x0003_C03C_3F3E_CB19,
];

/// `r · x mod p`.
#[inline]
fn times_x(r: [u64; 4]) -> [u64; 4] {
    let carry = r[3] >> 63;
    let mut out = [
        r[0] << 1,
        r[1] << 1 | r[0] >> 63,
        r[2] << 1 | r[1] >> 63,
        r[3] << 1 | r[2] >> 63,
    ];
    if carry == 1 {
        for (o, c) in out.iter_mut().zip(CHAR_POLY) {
            *o ^= c;
        }
    }
    out
}

/// The 32 bits of `x` moved to the even bit positions of a `u64`.
#[inline]
fn spread(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// `r² mod p`. Squaring over GF(2) spreads coefficient `i` to `2i`; the
/// high half `h` of the square is folded back as `h · x²⁵⁶ mod p`.
fn square_mod(r: [u64; 4]) -> [u64; 4] {
    let mut sq = [0u64; 8];
    for (i, w) in r.into_iter().enumerate() {
        sq[2 * i] = spread(w);
        sq[2 * i + 1] = spread(w >> 32);
    }
    let mut high = [sq[4], sq[5], sq[6], sq[7]];
    for _ in 0..256 {
        high = times_x(high);
    }
    std::array::from_fn(|i| sq[i] ^ high[i])
}

/// `xⁿ mod p` by left-to-right square-and-multiply.
fn x_pow_mod(n: u128) -> [u64; 4] {
    let mut r = [1, 0, 0, 0];
    for bit in (0..128 - n.leading_zeros()).rev() {
        r = square_mod(r);
        if (n >> bit) & 1 == 1 {
            r = times_x(r);
        }
    }
    r
}

impl Default for Xoshiro256PlusPlus {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 from the public SplitMix64
        // reference implementation.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(first, rng2.next_u64());
        assert_ne!(rng.next_u64(), first);
    }

    #[test]
    fn xoshiro_deterministic_across_instances() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(99);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_streams_diverge() {
        let base = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let overlap = (0..64).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    /// The reference xoshiro256 `JUMP` (2^128 steps) and `LONG_JUMP`
    /// (2^192 steps) constants, as published by Vigna.
    const REFERENCE_JUMP: [u64; 4] = [
        0x180e_c6d3_3cfd_0aba,
        0xd5a6_1266_f0c9_392c,
        0xa958_2618_e03f_c9aa,
        0x39ab_dc45_29b1_661c,
    ];
    const REFERENCE_LONG_JUMP: [u64; 4] = [
        0x76e1_5d3e_fefd_cbbf,
        0xc500_4e44_1c52_2fb3,
        0x7771_0069_854e_e241,
        0x3910_9bb0_2acb_e635,
    ];

    fn stepped(rng: &Xoshiro256PlusPlus, n: u64) -> Xoshiro256PlusPlus {
        let mut rng = rng.clone();
        for _ in 0..n {
            rng.next_u64();
        }
        rng
    }

    #[test]
    fn advance_equals_stepping() {
        let start = Xoshiro256PlusPlus::seed_from_u64(31);
        let mut picks = SplitMix64::new(37);
        let random = (0..8).map(|_| picks.gen_range(0, 100_001) as u64);
        for n in [0, 1, 255, 256, 257].into_iter().chain(random) {
            let want = stepped(&start, n);
            let mut got = start.clone();
            got.advance(n as u128);
            assert_eq!(got, want, "advance({n})");
        }
    }

    #[test]
    fn advances_compose() {
        let start = Xoshiro256PlusPlus::seed_from_u64(41);
        let mut picks = SplitMix64::new(43);
        for _ in 0..6 {
            let a = (picks.next_u64() as u128) << (picks.next_u64() % 64);
            let b = picks.next_u64() as u128 | 1 << 100;
            let mut split = start.clone();
            split.advance(a);
            split.advance(b);
            let mut whole = start.clone();
            whole.advance(a + b);
            assert_eq!(split, whole, "advance({a}) + advance({b})");
        }
    }

    #[test]
    fn reference_jumps_are_powers_of_x_mod_the_characteristic_polynomial() {
        // x^(2^128) = (x^(2^127))², and x^(2^192) is 64 squarings more.
        assert_eq!(square_mod(x_pow_mod(1 << 127)), REFERENCE_JUMP);
        let long = (0..64).fold(REFERENCE_JUMP, |r, _| square_mod(r));
        assert_eq!(long, REFERENCE_LONG_JUMP);
    }

    #[test]
    fn advance_by_two_to_the_128_is_the_reference_jump_not_jump() {
        let start = Xoshiro256PlusPlus::seed_from_u64(47);
        let mut advanced = start.clone();
        advanced.advance(1 << 127);
        advanced.advance(1 << 127);
        let mut reference = start.clone();
        reference.apply(REFERENCE_JUMP);
        assert_eq!(advanced, reference);
        let mut jumped = start.clone();
        jumped.jump();
        assert_ne!(advanced, jumped);
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(5, 17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "gen_range requires lo < hi")]
    fn gen_range_empty_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.gen_range(3, 3);
    }

    #[test]
    fn uniform_f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(19);
        let s = rng.sample_distinct(50, 20);
        assert_eq!(s.len(), 20);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 20);
        assert!(s.iter().all(|&x| x < 50));
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = SplitMix64::new(23);
        let mut s = rng.sample_distinct(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(29);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }
}
