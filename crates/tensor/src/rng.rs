//! From-scratch seeded randomness for the whole workspace.
//!
//! The workspace is hermetic — no external crates — so this module replaces
//! `rand` with a small, deterministic generator stack:
//!
//! * [`SeededRng`] — a PCG-XSH-RR 64/32 generator (O'Neill 2014) whose
//!   state is expanded from a `u64` seed with SplitMix64, giving
//!   well-distributed streams even for adjacent seeds;
//! * the [`Rng`] trait — the minimal sampling surface the reproduction
//!   needs (`random::<T>()`, `random_range(..)`, `random_bool(p)`),
//!   mirroring the `rand` API so call sites stay unchanged;
//! * [`normal`] — Box–Muller Gaussian sampling;
//! * [`shuffled_indices`] — Fisher–Yates permutations for epoch shuffling.
//!
//! Every stochastic component of the reproduction (weight init, simulator
//! noise, dataset shuffling, black-box attacks) goes through a
//! caller-supplied RNG created by [`seeded`], so experiments are
//! reproducible end-to-end.
//!
//! **Determinism contract:** streams are stable for a given seed *and*
//! crate version, but they are **not** the streams the old `rand`-based
//! seed produced — any golden value pinned against the old generator must
//! be re-pinned (see CHANGES.md).

/// One step of SplitMix64 (Steele et al., "Fast splittable pseudorandom
/// number generators", OOPSLA 2014). Used to expand a `u64` seed into the
/// PCG state/increment pair, and good enough to be a generator in itself.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's deterministic generator: PCG-XSH-RR 64/32.
///
/// 64-bit LCG state, 32-bit output via an xorshift-high + random-rotate
/// permutation. Seeded through SplitMix64 so that small/adjacent seeds
/// still give decorrelated streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    state: u64,
    /// Stream selector; always odd.
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl SeededRng {
    /// Creates a deterministic generator from a `u64` seed.
    ///
    /// Same seed ⇒ identical stream; different seeds ⇒ (with overwhelming
    /// probability) unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let initstate = splitmix64(&mut sm);
        let initseq = splitmix64(&mut sm);
        let mut rng = Self {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.step();
        rng.state = rng.state.wrapping_add(initstate);
        rng.step();
        rng
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Captures the full generator state `(state, inc)` for
    /// checkpointing. Restoring via [`SeededRng::from_state`] resumes the
    /// stream at exactly this point, bit-for-bit.
    pub fn state(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Reconstructs a generator from a captured [`SeededRng::state`] pair.
    ///
    /// # Panics
    /// Panics if `inc` is even — every valid PCG stream selector is odd,
    /// so an even value means the state was corrupted in transit.
    pub fn from_state(state: u64, inc: u64) -> Self {
        assert!(inc & 1 == 1, "SeededRng::from_state: inc must be odd");
        Self { state, inc }
    }

    /// The core PCG output function: 32 uniform bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng for SeededRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = u64::from(self.next_u32());
        let lo = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

/// The minimal random-sampling trait used across the workspace.
///
/// Implementors only provide [`Rng::next_u64`]; everything else derives
/// from it. The method names deliberately mirror the `rand` crate so
/// migrating call sites was a pure import change.
pub trait Rng {
    /// 64 uniform bits — the only required method.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample of a primitive type (`f32`/`f64` in `[0, 1)`,
    /// integers over their full range, `bool` fair).
    #[inline]
    fn random<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a range (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "random_bool: p={p} not in [0,1]");
        f64::sample(self) < p
    }

    /// Bias-free integer in `0..n` via Lemire's widening-multiply method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn below(&mut self, n: u64) -> u64
    where
        Self: Sized,
    {
        assert!(n > 0, "below(): empty range");
        // Lemire 2019: multiply-shift with rejection of the biased zone.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Types that can be drawn uniformly from an [`Rng`].
pub trait Sample: Sized {
    /// Draws one uniform sample.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with the full 24-bit mantissa resolution.
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with the full 53-bit mantissa resolution.
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that can be sampled uniformly (half-open and inclusive).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "random_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "random_range: empty float range {:?}..{:?}",
                    self.start,
                    self.end
                );
                let u: $t = Sample::sample(rng);
                let v = self.start + (self.end - self.start) * u;
                // Rounding can land exactly on `end`; keep the interval
                // half-open (matters for bound assertions downstream).
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Creates a deterministic [`SeededRng`] from a `u64` seed.
pub fn seeded(seed: u64) -> SeededRng {
    SeededRng::seed_from_u64(seed)
}

/// Draws one sample from `N(mean, std²)` via the Box–Muller transform.
///
/// `std` may be zero (returns `mean` exactly). Negative `std` is a
/// programming error and panics.
pub fn normal<R: Rng>(rng: &mut R, mean: f32, std: f32) -> f32 {
    assert!(std >= 0.0, "normal(): std must be non-negative, got {std}");
    if std == 0.0 {
        return mean;
    }
    // Box–Muller: u1 must be strictly positive for the log.
    let mut u1: f32 = rng.random();
    while u1 <= f32::MIN_POSITIVE {
        u1 = rng.random();
    }
    let u2: f32 = rng.random();
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + std * mag * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fisher–Yates shuffle of indices `0..n`, used for epoch shuffling.
pub fn shuffled_indices<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        // Cross-seed determinism: adjacent seeds must decorrelate thanks
        // to the SplitMix64 expansion.
        for s in 0..16u64 {
            let a: Vec<u64> = {
                let mut r = seeded(s);
                (0..8).map(|_| r.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut r = seeded(s + 1);
                (0..8).map(|_| r.next_u64()).collect()
            };
            assert_ne!(a, b, "seeds {s} and {} collide", s + 1);
        }
    }

    #[test]
    fn uniform_f32_passes_ks_test() {
        // One-sample Kolmogorov–Smirnov against U(0,1): with n = 10_000
        // the 0.1% critical value is ~1.95/√n ≈ 0.0195. A broken
        // generator (constant, strongly biased, short cycle) fails by an
        // order of magnitude.
        let mut rng = seeded(42);
        let n = 10_000usize;
        let mut xs: Vec<f32> = (0..n).map(|_| rng.random::<f32>()).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let x = f64::from(x);
            assert!((0.0..1.0).contains(&x), "sample {x} outside [0,1)");
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((x - lo).abs()).max((hi - x).abs());
        }
        let critical = 1.95 / (n as f64).sqrt();
        assert!(d < critical, "KS statistic {d} ≥ {critical}");
    }

    #[test]
    fn uniform_range_respects_bounds_and_mean() {
        let mut rng = seeded(9);
        let n = 20_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let v: f32 = rng.random_range(-2.0f32..6.0);
            assert!((-2.0..6.0).contains(&v));
            sum += f64::from(v);
        }
        let mean = sum / f64::from(n);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn integer_ranges_cover_all_values_uniformly() {
        // χ²-style sanity: every bucket of 0..10 within ±15% of expected.
        let mut rng = seeded(17);
        let n = 50_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = n / 10;
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.15,
                "bucket {i} count {c} far from {expected}"
            );
        }
        // Inclusive ranges hit both endpoints.
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            match rng.random_range(3..=5u64) {
                3 => seen_lo = true,
                5 => seen_hi = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = seeded(77);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = seeded(1);
        assert_eq!(normal(&mut rng, 5.0, 0.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn normal_rejects_negative_std() {
        let mut rng = seeded(1);
        let _ = normal(&mut rng, 0.0, -1.0);
    }

    #[test]
    fn random_bool_matches_probability() {
        let mut rng = seeded(31);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.random_bool(0.3)).count();
        let frac = hits as f64 / f64::from(n);
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = seeded(5);
        let idx = shuffled_indices(100, &mut rng);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = seeded(5);
        assert!(shuffled_indices(0, &mut rng).is_empty());
        assert_eq!(shuffled_indices(1, &mut rng), vec![0]);
    }

    #[test]
    fn shuffle_positions_are_roughly_uniform() {
        // Permutation-uniformity smoke test: over many shuffles of 0..4,
        // element 0 should land in each position ~25% of the time.
        let mut rng = seeded(1234);
        let trials = 20_000;
        let mut pos_counts = [0usize; 4];
        for _ in 0..trials {
            let p = shuffled_indices(4, &mut rng);
            let where0 = p.iter().position(|&v| v == 0).unwrap();
            pos_counts[where0] += 1;
        }
        for (i, &c) in pos_counts.iter().enumerate() {
            let expected = trials / 4;
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "position {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn state_roundtrip_resumes_stream_exactly() {
        let mut a = seeded(99);
        // Burn an arbitrary prefix, snapshot mid-stream.
        for _ in 0..37 {
            let _ = a.next_u32();
        }
        let (state, inc) = a.state();
        let tail: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let mut b = SeededRng::from_state(state, inc);
        let resumed: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(tail, resumed);
        assert_eq!(a, b, "generators must be in identical end states");
    }

    #[test]
    #[should_panic(expected = "inc must be odd")]
    fn from_state_rejects_even_inc() {
        let _ = SeededRng::from_state(1, 2);
    }

    #[test]
    fn pcg_reference_stream_is_stable() {
        // Pin the first few outputs so an accidental algorithm change
        // (which would silently re-randomize every experiment) is caught.
        let mut rng = seeded(0);
        let got: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        // Golden values captured at substrate introduction (PR 1).
        assert_eq!(got, vec![2422489633, 1176037471, 2405161421, 2938897158]);
    }
}
