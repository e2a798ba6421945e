//! Open-loop arrival schedules.
//!
//! Independent users send on their own clock, so the serving workload
//! offers load on a schedule fixed in advance and never waits for a
//! reply before sending the next request. The schedule is a pure
//! function of the seed, the rate and the duration.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator whose whole state is one
/// `u64`, so a schedule depends on nothing but its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform sample in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, as offsets from the start of a phase, of Poisson arrivals
/// at `rate` requests per second over `duration`.
///
/// # Panics
///
/// Panics if `rate` is not positive and finite.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate.is_finite() && rate > 0.0, "arrival rate must be positive");
    // Mixing the rate into the seed gives each phase of one run its own
    // stream while keeping the schedule a function of (seed, rate).
    let mut rng = SplitMix64::new(seed ^ rate.to_bits().rotate_left(17));
    let end = duration.as_secs_f64();
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` lies in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(42, 2000.0, Duration::from_secs(2));
        let b = poisson_schedule(42, 2000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = poisson_schedule(43, 2000.0, Duration::from_secs(2));
        assert_ne!(a, c);
    }

    #[test]
    fn mean_rate_matches_the_requested_rate() {
        for (seed, rate) in [(1u64, 400.0), (7, 2500.0), (99, 3100.0)] {
            let secs = 20.0;
            let due = poisson_schedule(seed, rate, Duration::from_secs_f64(secs));
            let observed = due.len() as f64 / secs;
            // Poisson count over 20 s: sd = sqrt(rate * 20); 3 % is > 4 sd
            // at the lowest rate.
            assert!((observed / rate - 1.0).abs() < 0.03, "rate {rate}: observed {observed}");
            assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times are sorted");
            assert!(due.last().is_some_and(|d| d.as_secs_f64() < secs));
        }
    }

    #[test]
    fn gaps_are_exponential() {
        // The coefficient of variation of exponential gaps is 1.
        let due = poisson_schedule(5, 1000.0, Duration::from_secs(30));
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
