//! Sample statistics: nearest-rank percentiles, the "highest percentile
//! with at least ten samples beyond it" rule, and FNV checksums.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 0.99 × 1000 from rounding
    // up to the next rank.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Fewest samples for which `p` has [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
        .expect("unbounded search")
}

/// Median, tail and sample count of one timing series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// The nearest-rank tail percentile that was asked for.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` at the fixed tail percentile `tail_p`.
    ///
    /// # Panics
    /// Panics when there are too few samples for `tail_p` to have
    /// [`TAIL_MIN_BEYOND`] samples beyond it: such a tail is not reported.
    pub fn of(samples: &[f64], tail_p: f64) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert!(
            samples_beyond(sorted.len(), tail_p) >= TAIL_MIN_BEYOND,
            "{} samples cannot support p{tail_p}",
            sorted.len()
        );
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: percentile(&sorted, tail_p),
        }
    }
}

/// Median of a non-empty sample (nearest rank, as everywhere here).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Incremental FNV-1a (64-bit), the checksum the workspace pins its
/// goldens with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The 64-bit hash.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash folded to 32 bits.
    pub fn finish32(self) -> u32 {
        ((self.0 >> 32) ^ (self.0 & 0xffff_ffff)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        let s = ramp(5);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn exact_products_do_not_skip_a_rank() {
        // 0.99 × 1000 is 990.0000000000001 in f64.
        let s = ramp(1000);
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(39, 75.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_needed(75.0), 40);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(99.9), 10000);
    }

    #[test]
    fn summary_sorts_and_reports() {
        let mut s = ramp(40);
        s.reverse();
        let sum = Summary::of(&s, 75.0);
        assert_eq!(sum.n, 40);
        assert_eq!(sum.p50, 20.0);
        assert_eq!(sum.tail, 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn summary_refuses_an_unsupported_tail() {
        let _ = Summary::of(&ramp(39), 75.0);
    }

    #[test]
    fn fnv_matches_the_workspace_checksum() {
        let mut h = Fnv::default();
        h.write(b"apots");
        h.write(b"-bench");
        assert_eq!(h.finish(), apots_serde::atomic::fnv1a_64(b"apots-bench"));
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
