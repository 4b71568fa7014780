//! The benchmark's own input randomness: a SplitMix64 stream, so that
//! `--seed` alone fixes every generated input and the program under test
//! receives only the inputs, never the generator.

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, good enough to pick
/// indices and derive sub-seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Independent sub-seed `stream` of the run seed: dataset, engine, driver,
/// latency model and query picks each draw from their own stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Inverse-CDF Zipf sampler over ranks `0..n` (rank 0 most popular), the
/// same distribution the driver draws query strings from when
/// `DriverConfig::zipf_s > 0`; the correctness gate uses it so that the
/// checked queries are shaped like the timed ones.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(3);
        let low = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(low > 3_000, "top 1% of ranks should draw far more than 1% of samples: {low}");
    }
}
