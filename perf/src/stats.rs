//! Order statistics and the seeded job permutation.

use olden_rng::{mix2, SplitMix64};

/// Samples a percentile needs beyond it before it is reported: with fewer
/// the figure is one or two slow rounds, not a property of the workload.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank) of `sorted`, refused unless at
/// least [`TAIL_SAMPLES`] samples lie at or beyond it — p90 needs 100
/// samples, the median 20.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&p), "percentile {p} out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    // The epsilon keeps 0.9 × 100 at rank 90 whatever the rounding.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} of {n} samples leaves fewer than {TAIL_SAMPLES} beyond it",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Plain median of any non-empty sample (no tail requirement): used for
/// per-kernel and set-up figures, which have a handful of samples and are
/// labelled with their count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so `compare` sees the spread an outside checker would. Needs two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|&v| v > 0.0));
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The order in which round `round` runs a list of `n` jobs: a
/// Fisher–Yates shuffle drawn from `(seed, round)` alone, so a seed names
/// one schedule on every commit.
pub fn permutation(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(mix2(seed, round ^ 0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// FNV-1a over a byte stream: the digest the pinned expected values are
/// stated in.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refused_under_100_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Ok(89.0));
        // Ten samples (90..=99) lie beyond-or-at the next rank.
        assert_eq!(v.iter().filter(|&&x| x > 89.0).count(), TAIL_SAMPLES);
    }

    #[test]
    fn median_percentile_needs_twenty() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&v, 0.5).is_err());
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(9.0));
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates from two samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(50, 7, 3);
        assert_eq!(a, permutation(50, 7, 3), "same (seed, round), same order");
        assert_ne!(a, permutation(50, 7, 4), "next round reorders");
        assert_ne!(a, permutation(50, 8, 3), "another seed reorders");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(permutation(1, 0, 0), vec![0]);
        assert!(permutation(0, 0, 0).is_empty());
    }

    #[test]
    fn fnv_separates_fields() {
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.bytes(b"ab");
        a.bytes(b"c");
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.0, b.0);
    }
}
