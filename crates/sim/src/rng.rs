//! Seeded, splittable randomness for reproducible simulations.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna)
//! seeded through a SplitMix64 expansion. Keeping the implementation in
//! this file — rather than behind an external crate — pins the exact
//! stream forever: no dependency bump can silently re-randomize every
//! experiment in the repository.

#![expect(
    clippy::float_arithmetic,
    reason = "u64->f64 unit-interval mapping is the seeded draw itself; bit-exact by construction"
)]

/// The simulation RNG.
///
/// A fast non-cryptographic PRNG, seeded explicitly so every run is
/// reproducible. Subsystems that need independent random streams (flow
/// generator, per-host load balancers, failure injection) should call
/// [`SimRng::split`] with a distinct label rather than sharing one
/// stream — that way adding a random draw in one subsystem does not
/// perturb any other subsystem's stream.
pub struct SimRng {
    /// xoshiro256++ state; never all-zero.
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create from a master seed.
    pub fn new(seed: u64) -> SimRng {
        // SplitMix64 expansion of the 64-bit seed into 256 bits of
        // state, per the xoshiro author's seeding recommendation. The
        // four outputs of a bijective step function cannot all be zero,
        // so the all-zero fixed point is unreachable.
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = mix64(sm);
        }
        SimRng { s, seed }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream labelled by `label`.
    ///
    /// Uses a SplitMix64-style mix of `(seed, label)` so the derived seeds
    /// are decorrelated even for adjacent labels.
    pub fn split(&self, label: u64) -> SimRng {
        SimRng::new(mix64(
            self.seed ^ mix64(label.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// One xoshiro256++ step.
    #[inline]
    fn next(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-rational construction.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Lemire's multiply-shift map. The bias is at most n/2^64 —
        // unobservable at simulation scales — and unlike rejection
        // sampling it consumes exactly one draw, which keeps downstream
        // streams aligned regardless of the argument.
        ((self.next() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `u64` over the full range.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.next()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson-process inter-arrival times. The `1 - u` guards
    /// against `ln(0)`.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = self.f64();
        -(1.0 - u).ln() * mean
    }

    /// Choose `k` distinct indices uniformly from `[0, n)` without
    /// replacement (partial Fisher–Yates). If `k >= n`, returns all of
    /// `0..n` in shuffled order.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.sample_distinct_into(n, k, &mut idx);
        idx
    }

    /// [`Self::sample_distinct`] into a caller-kept buffer, replacing its
    /// contents: the same draws, and no allocation once `idx` has held
    /// `n` indices.
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, idx: &mut Vec<usize>) {
        let k = k.min(n);
        idx.clear();
        idx.extend(0..n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
    }
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_streams_are_decorrelated_and_stable() {
        let root = SimRng::new(7);
        let mut s1 = root.split(1);
        let mut s2 = root.split(2);
        let mut s1b = root.split(1);
        assert_eq!(s1.u64(), s1b.u64());
        assert_ne!(s1.u64(), s2.u64());
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut r = SimRng::new(3);
        let n = 50_000;
        let mean = 10.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.25, "sample mean {got}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = SimRng::new(9);
        for _ in 0..100 {
            let v = r.sample_distinct(10, 3);
            assert_eq!(v.len(), 3);
            let mut s = v.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "duplicates in {v:?}");
            assert!(v.iter().all(|&x| x < 10));
        }
        // k >= n returns a permutation.
        let mut v = r.sample_distinct(4, 10);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sample_distinct_into_makes_the_same_draws_in_a_reused_buffer() {
        let (mut a, mut b) = (SimRng::new(9), SimRng::new(9));
        let mut buf = vec![99; 16];
        for (n, k) in [(8, 2), (3, 5), (8, 2), (0, 2)] {
            b.sample_distinct_into(n, k, &mut buf);
            assert_eq!(a.sample_distinct(n, k), buf);
        }
        assert_eq!(a.u64(), b.u64(), "the two streams stay in step");
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = SimRng::new(13);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x), "f64 out of range: {x}");
        }
    }

    #[test]
    fn stream_is_pinned_forever() {
        // Golden values: if these change, every recorded experiment in
        // the repository silently re-randomizes. Never update them.
        let mut r = SimRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.u64()).collect();
        assert_eq!(
            first,
            vec![
                6409272458699751175,
                6888991682673849350,
                7292715602953447895,
                3353322912996036996
            ]
        );
    }
}
