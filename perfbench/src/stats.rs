//! Order statistics over raw samples.
//!
//! Latency percentiles are read from the raw per-request samples, never
//! from bucketed histograms, and every reported tail names the highest
//! percentile that still has at least [`TAIL_SUPPORT`] samples beyond it.

/// Samples a reported percentile must leave above it.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles the benchmark may report as a tail, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of already sorted samples: the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// [`percentile`] of unsorted samples (sorts a copy).
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `(0, 100]`.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The product is at most `n`, so the cast back is exact. The epsilon
    // keeps a product like 99.9 * 1000 / 100 = 999.0000000000001 at 999.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_SUPPORT`] of `n` samples strictly above its rank, or `None`
/// when even the median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| n >= rank(n.max(1), p) + TAIL_SUPPORT)
}

/// Quartiles with the same convention as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
/// benchmark's own spreads match the ones its callers compute.
///
/// # Panics
///
/// Panics if fewer than two samples are given.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = (ld + 1) as i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        // Python clamps the rank to 1..=ld-1 and lets `delta` leave 0..4,
        // which extrapolates linearly past the extreme samples.
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: the smallest sample `v` such that at least
    /// `p` percent of the samples are `<= v`.
    fn reference_percentile(sorted: &[f64], p: f64) -> f64 {
        let n = sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&v| sorted.iter().filter(|&&x| x <= v).count() as f64 >= p / 100.0 * n - 1e-9)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentile_matches_sorted_array_reference() {
        let mut state = 0x9e37_79b9_u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 1234] {
            let mut data: Vec<f64> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 33) as f64 / 1e6
                })
                .collect();
            data.sort_by(f64::total_cmp);
            for p in [0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&data, p), reference_percentile(&data, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn integer_percentiles_are_exact_on_a_ramp() {
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 50.0), 50.0);
        assert_eq!(percentile(&ramp, 99.0), 99.0);
        assert_eq!(percentile(&ramp, 100.0), 100.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(1009), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = supported_tail(n) {
                assert!(n - rank(n, p) >= TAIL_SUPPORT, "n={n} p={p}");
            }
        }
    }

    /// Expected values come from Python's `statistics.quantiles(d, n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
            (&[3.5, 1.25, 9.0, 4.75, 2.0, 8.5, 6.0], [2.0, 4.75, 8.5]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[2.0, 2.0, 7.0, 1.0, 9.0, 4.0, 4.0, 3.0], [2.0, 3.5, 6.25]),
        ];
        for (data, want) in cases {
            let got = quartiles(data);
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{data:?}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
