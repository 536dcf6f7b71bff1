//! Key-popularity distributions.
//!
//! The KVS workload draws keys from a zipf(0.99) distribution over 2.4 M
//! items (Appendix A), the standard YCSB-style skew. [`Zipf`] implements
//! Hörmann & Derflinger's rejection-inversion sampler, which is O(1) per
//! sample and exact for any exponent and population size.

use sweeper_sim::engine::SimRng;

/// Zipf-distributed ranks in `1..=n` with exponent `s`:
/// `P(k) ∝ 1 / k^s`.
///
/// ```
/// use sweeper_workloads::dist::Zipf;
/// use sweeper_sim::engine::SimRng;
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = SimRng::seeded(1);
/// let k = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&k));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    /// Creates a sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative, not finite, or exactly 1
    /// (the harmonic case is not needed by the paper and is excluded for
    /// numerical simplicity — use e.g. 0.9999 instead).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0 && (s - 1.0).abs() > 1e-9,
            "exponent must be finite, non-negative, and != 1"
        );
        let h = |x: f64| ((1.0 - s) * x.ln()).exp() / (1.0 - s); // x^(1-s)/(1-s)
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let threshold = 2.0 - Self::h_inv_static(s, h(2.5) - (2.0f64).powf(-s));
        Self {
            n,
            s,
            h_x1,
            h_n,
            threshold,
        }
    }

    fn h(&self, x: f64) -> f64 {
        ((1.0 - self.s) * x.ln()).exp() / (1.0 - self.s)
    }

    fn h_inv_static(s: f64, x: f64) -> f64 {
        ((1.0 - s) * x).powf(1.0 / (1.0 - s))
    }

    fn h_inv(&self, x: f64) -> f64 {
        Self::h_inv_static(self.s, x)
    }

    /// The population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `1..=n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = x.clamp(1.0, self.n as f64).round();
            if k - x <= self.threshold || u >= self.h(k + 0.5) - (-self.s * k.ln()).exp() {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(zipf: &Zipf, samples: usize, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::seeded(seed);
        let mut counts = vec![0u64; zipf.n() as usize + 1];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn zipf_stays_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = SimRng::seeded(2);
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn zipf_rank1_to_rank2_ratio() {
        let zipf = Zipf::new(1000, 0.99);
        let counts = frequencies(&zipf, 400_000, 3);
        let ratio = counts[1] as f64 / counts[2] as f64;
        let expected = 2.0f64.powf(0.99);
        assert!(
            (ratio - expected).abs() < 0.15,
            "ratio {ratio}, expected {expected}"
        );
    }

    #[test]
    fn zipf_is_skewed_toward_head() {
        let zipf = Zipf::new(10_000, 0.99);
        let counts = frequencies(&zipf, 200_000, 4);
        let head: u64 = counts[1..=100].iter().sum();
        let total: u64 = counts.iter().sum();
        // With s=0.99 and n=10k, the top 1% of keys draw roughly half the
        // traffic.
        assert!(
            head as f64 > 0.4 * total as f64,
            "head fraction {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn zipf_near_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(100, 0.01);
        let counts = frequencies(&zipf, 200_000, 5);
        let max = *counts[1..].iter().max().unwrap() as f64;
        let min = *counts[1..].iter().min().unwrap() as f64;
        assert!(max / min < 1.4, "max {max} min {min}");
    }

    #[test]
    fn zipf_handles_large_population() {
        let zipf = Zipf::new(2_400_000, 0.99); // the paper's KVS population
        let mut rng = SimRng::seeded(6);
        let mut seen_large = false;
        for _ in 0..50_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=2_400_000).contains(&k));
            if k > 100_000 {
                seen_large = true;
            }
        }
        assert!(seen_large, "tail must be reachable");
    }

    #[test]
    fn zipf_is_deterministic() {
        let zipf = Zipf::new(500, 0.99);
        let a: Vec<u64> = {
            let mut rng = SimRng::seeded(7);
            (0..100).map(|_| zipf.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SimRng::seeded(7);
            (0..100).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 0.99);
    }

    #[test]
    #[should_panic(expected = "exponent must be finite")]
    fn zipf_rejects_exponent_one() {
        Zipf::new(10, 1.0);
    }
}
