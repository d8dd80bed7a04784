//! The benchmark's own random numbers: splitmix64 and a table-driven
//! zipf sampler. Nothing outside this directory feeds the generators,
//! so a seed names the same inputs at every commit.

/// splitmix64 (Steele, Lea, Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for a named purpose: the same
    /// `(seed, stream)` always yields the same numbers, whatever other
    /// streams were drawn from in between.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf over `0..n` with exponent `s`: item `i` has weight
/// `(i + 1)^-s`. Sampling is a binary search in the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_golden_values_for_seed_1() {
        let mut r = SplitMix64::new(1);
        assert_eq!(r.next_u64(), 0x910a_2dec_8902_5cc1);
        assert_eq!(r.next_u64(), 0xbeeb_8da1_658e_ec67);
        assert_eq!(r.next_u64(), 0xf893_a2ee_fb32_555e);
    }

    #[test]
    fn below_stays_in_range_and_streams_differ() {
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert!((0..1000).all(|_| (3..=9).contains(&r.between(3, 9))));
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::stream(1, 1).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "a stream repeats");
        assert_ne!(
            SplitMix64::stream(1, 1).next_u64(),
            SplitMix64::stream(1, 2).next_u64()
        );
    }

    #[test]
    fn zipf_golden_values_for_seed_1() {
        let z = Zipf::new(12, 1.2);
        let mut r = SplitMix64::new(1);
        let got: Vec<usize> = (0..16).map(|_| z.sample(&mut r)).collect();
        assert_eq!(got, [2, 4, 10, 1, 1, 4, 7, 1, 0, 5, 1, 2, 1, 1, 1, 0]);
        // Skew: the head item takes its analytic share.
        let mut r = SplitMix64::new(1);
        let heads = (0..100_000).filter(|_| z.sample(&mut r) == 0).count();
        let share = heads as f64 / 100_000.0;
        let expect = 1.0 / (1..=12).map(|k| (k as f64).powf(-1.2)).sum::<f64>();
        assert!((share - expect).abs() < 0.01, "{share} vs {expect}");
    }
}
