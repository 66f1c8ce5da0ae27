//! A small deterministic RNG (SplitMix64) used everywhere randomness is
//! needed inside the simulator and workload generators.
//!
//! We deliberately do not use `std`'s hashing randomness or OS entropy:
//! every experiment must be reproducible bit-for-bit from its seed.

/// SplitMix64: tiny, fast, and statistically solid for simulation purposes
/// (it is the recommended seeder for xoshiro-family generators).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A Zipfian sampler over `{0, .., n-1}` with exponent `theta`, using the
/// classic rejection-inversion-free cumulative method with precomputed
/// normalization (adequate for the table sizes used in experiments).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    /// zeta(n, theta)
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` items with skew `theta` in
    /// `[0, 1)` ∪ `(1, ..)`; `theta = 0` is uniform, `0.99` is the YCSB
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not finite and non-negative.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(theta.is_finite() && theta >= 0.0, "bad theta");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = if n >= 2 {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        } else {
            0.0
        };
        Zipf {
            n,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; n is bounded by table sizes (<= a few million).
        let mut s = 0.0;
        for i in 1..=n {
            s += 1.0 / (i as f64).powf(theta);
        }
        s
    }

    /// Draws the next rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        // Gray et al.'s quick zipf sampler (as used by YCSB).
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        let rank = (self.n as f64 * v) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(9);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle moved something");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Each bucket expects 100 draws; allow generous slack.
        assert!(counts.iter().all(|&c| c > 40 && c < 200));
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SplitMix64::new(11);
        let mut head = 0u32;
        let total = 20_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under theta=0.99 the top-10 of 1000 items draw a large share
        // (analytically ~37%); uniform would give 1%.
        let share = head as f64 / total as f64;
        assert!(share > 0.25, "head share {share} too small for zipf 0.99");
    }

    #[test]
    fn zipf_single_item_domain() {
        let z = Zipf::new(1, 0.99);
        let mut rng = SplitMix64::new(1);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn zipf_samples_in_domain() {
        let z = Zipf::new(37, 0.8);
        let mut rng = SplitMix64::new(13);
        for _ in 0..5000 {
            assert!(z.sample(&mut rng) < 37);
        }
    }
}
