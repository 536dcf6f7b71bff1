//! The simulator's one random generator.
//!
//! Every stochastic component (traffic generator, key popularity, service-time
//! spikes) and every property-test case draws from a [`SimRng`], so a seed
//! maps to one fixed stream and a simulation run is exactly reproducible.
//! The stream is pinned by test: changing any draw below changes every
//! simulated result and every golden.

/// Deterministic xoshiro256++ generator, seeded through splitmix64.
///
/// ```
/// use sweeper_rng::SimRng;
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.next_u64_in(100), b.next_u64_in(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed, expanded to the 256-bit state by
    /// splitmix64.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// Derives an independent child RNG, seeded from one raw draw; useful to
    /// give each simulated component its own stream without correlation.
    pub fn fork(&mut self) -> Self {
        Self::seeded(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        self.s = [s0, s1, s2 ^ t, s3.rotate_left(45)];
        result
    }

    /// Uniform integer in `[0, bound)`, by Lemire's multiply-shift (the
    /// bias is below 2^-64 per draw).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_u64_in(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson inter-arrival times of the traffic generator
    /// (Appendix A: "injects packets at configurable Poisson arrival rate").
    /// The uniform draw is mapped onto `[EPSILON, 1)`, so the logarithm is
    /// always finite.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u = f64::EPSILON + self.next_f64() * (1.0 - f64::EPSILON);
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One stream per seed, every draw kind in turn: the values were
    /// recorded before `SimRng` owned its generator and must never change.
    #[test]
    fn draws_are_pinned_for_two_seeds() {
        #[allow(clippy::type_complexity)]
        let pinned: [(u64, [u64; 3], [u64; 2], [u64; 2], [bool; 8], u64); 2] = [
            (
                0,
                [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc],
                [0, 495270072],
                [0x3f950f0ddd5fc220, 0x404340eb49ddeb1c],
                [false, true, true, true, true, true, true, true],
                0xbca031832c743e28,
            ),
            (
                0x5EED_2022,
                [0xf10e21a6d4dc2a6e, 0x0fa3444e5e14ce75, 0x0a4cddfec9b67cbb],
                [4, 324541464],
                [0x3fc874374608f6e4, 0x4076fd002d3d46e9],
                [false, true, false, true, false, true, true, false],
                0x5868f451d944c41c,
            ),
        ];
        for (seed, raw, ints, floats, coins, child) in pinned {
            let mut rng = SimRng::seeded(seed);
            assert_eq!(raw.map(|_| rng.next_u64()), raw, "seed {seed:#x} raw");
            let got = [rng.next_u64_in(10), rng.next_u64_in(1_000_000_007)];
            assert_eq!(got, ints, "seed {seed:#x} next_u64_in");
            let got = [rng.next_f64().to_bits(), rng.next_exp(250.0).to_bits()];
            assert_eq!(got, floats, "seed {seed:#x} next_f64/next_exp");
            assert_eq!(
                coins.map(|_| rng.chance(0.5)),
                coins,
                "seed {seed:#x} chance"
            );
            assert_eq!(rng.fork().next_u64(), child, "seed {seed:#x} fork");
        }
    }

    #[test]
    fn equal_seeds_repeat_and_distinct_seeds_diverge() {
        let draws = |seed| {
            let mut rng = SimRng::seeded(seed);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        let (a, b) = (draws(1), draws(2));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn fork_decorrelates() {
        let mut a = SimRng::seeded(42);
        let mut child = a.fork();
        // The child stream must differ from the parent's subsequent stream.
        let parent_draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let child_draws: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(parent_draws, child_draws);
    }

    #[test]
    fn bounded_ints_stay_in_range_and_cover_it() {
        let mut rng = SimRng::seeded(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.next_u64_in(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::seeded(0).next_u64_in(0);
    }

    #[test]
    fn unit_interval_is_half_open_and_covers() {
        let mut rng = SimRng::seeded(3);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.01, "low tail unreached: {lo}");
        assert!(hi > 0.99, "high tail unreached: {hi}");
    }

    #[test]
    fn exp_is_finite_with_the_right_mean() {
        let mut rng = SimRng::seeded(1);
        let n = 100_000;
        let mean = 50.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_exp(mean);
            assert!(v.is_finite() && v >= 0.0, "sample {v}");
            sum += v;
        }
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
