//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace (background load arrival,
//! task-duration jitter, bootstrap sampling in the random forest, ...) draws
//! from this module so that a single `u64` master seed reproduces an entire
//! experiment bit-for-bit.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator used to expand a seed into
//!   the 256-bit state required by Xoshiro, and for cheap one-off draws.
//! * [`Xoshiro256StarStar`] — the workhorse generator (Blackman & Vigna),
//!   fast, high quality and trivially *splittable* via [`Rng::split`], which
//!   hands child components statistically independent streams.

use serde::{Deserialize, Serialize};

/// SplitMix64 generator. Mainly used to seed [`Xoshiro256StarStar`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256** — the main deterministic generator used across the workspace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The main RNG handle used throughout the workspace.
///
/// `Rng` wraps [`Xoshiro256StarStar`] and adds distribution sampling helpers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rng {
    inner: Xoshiro256StarStar,
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Xoshiro256StarStar {
    /// Seed the generator. The seed is expanded with SplitMix64 as recommended
    /// by the algorithm authors; a zero state is impossible by construction.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Jump the state forward by 2^128 draws, producing a statistically
    /// independent stream (used by [`Rng::split`]).
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for &j in JUMP.iter() {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }
}

impl Rng {
    /// Create an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256StarStar::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derive a child RNG with an independent stream.
    ///
    /// The child takes the *jumped* state, while `self` continues from its
    /// current state, so repeated splits yield pairwise independent streams.
    pub fn split(&mut self) -> Rng {
        let mut child = self.inner.clone();
        child.jump();
        // Advance the parent a little so parent/child don't share a prefix.
        self.inner.next_u64();
        Rng {
            inner: child,
            gauss_spare: None,
        }
    }

    /// Derive a child RNG keyed by an arbitrary stream id. Deterministic in
    /// `(self state, stream)` but different streams give different children.
    pub fn stream(&self, stream: u64) -> Rng {
        let mut sm = SplitMix64::new(self.inner.s[0] ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut mixed = Xoshiro256StarStar {
            s: [
                sm.next_u64() ^ self.inner.s[1],
                sm.next_u64() ^ self.inner.s[2],
                sm.next_u64() ^ self.inner.s[3],
                sm.next_u64() ^ self.inner.s[0].rotate_left(13),
            ],
        };
        // Avoid an all-zero state (astronomically unlikely, but cheap to guard).
        if mixed.s.iter().all(|&x| x == 0) {
            mixed.s[0] = 0xDEAD_BEEF_CAFE_F00D;
        }
        Rng {
            inner: mixed,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection-free-ish method.
    /// Returns 0 when `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Widening multiply keeps the modulo bias negligible for the sizes we use,
        // with an explicit rejection loop for exactness.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw (Box–Muller with caching of the spare value).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box-Muller transform.
        let u1 = loop {
            let u = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// Exponential draw with the given rate parameter (events per unit time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Sample an index from a slice of non-negative weights. Returns `None`
    /// for an empty slice or all-zero weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating point slack: return the last positive-weight index.
        weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
    }

    /// Choose a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_range_usize(0, items.len())])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir when `k < n`,
    /// the full shuffled range otherwise). Result order is unspecified.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            return all;
        }
        // Reservoir sampling (Algorithm R).
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.gen_range_usize(0, i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_reference_values_differ_by_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.uniform(5.0, 10.0);
            assert!((5.0..10.0).contains(&y));
        }
        assert_eq!(rng.uniform(3.0, 3.0), 3.0);
        assert_eq!(rng.uniform(3.0, 1.0), 3.0);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
        assert_eq!(rng.gen_range(0), 0);
        assert_eq!(rng.gen_range(1), 0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = rng.normal(10.0, 2.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 100_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(rng.exponential(0.0).is_infinite());
    }

    #[test]
    fn weighted_index_prefers_heavier_weights() {
        let mut rng = Rng::seed_from_u64(13);
        let weights = [0.0, 1.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 5);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = Rng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng::seed_from_u64(19);
        let sample = rng.sample_indices(100, 10);
        assert_eq!(sample.len(), 10);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
        assert_eq!(rng.sample_indices(5, 10).len(), 5);
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut parent_a = Rng::seed_from_u64(99);
        let mut parent_b = Rng::seed_from_u64(99);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        for _ in 0..64 {
            assert_eq!(child_a.next_u64(), child_b.next_u64());
            assert_eq!(parent_a.next_u64(), parent_b.next_u64());
        }
        // Parent and child streams differ from one another.
        let mut p = Rng::seed_from_u64(99);
        let mut c = p.split();
        let pv: Vec<u64> = (0..16).map(|_| p.next_u64()).collect();
        let cv: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_ne!(pv, cv);
    }

    #[test]
    fn keyed_streams_differ() {
        let rng = Rng::seed_from_u64(123);
        let mut s1 = rng.stream(1);
        let mut s2 = rng.stream(2);
        let v1: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        let v2: Vec<u64> = (0..16).map(|_| s2.next_u64()).collect();
        assert_ne!(v1, v2);
        // Same key twice gives the same stream.
        let mut s1b = rng.stream(1);
        let v1b: Vec<u64> = (0..16).map(|_| s1b.next_u64()).collect();
        assert_eq!(v1, v1b);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::seed_from_u64(37);
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(-3.0)));
        assert!((0..100).all(|_| rng.gen_bool(7.0)));
    }
}
