//! Seeded traffic: the random source, open-loop arrival schedules, the
//! Zipf sampler and the query streams. Everything here is a pure
//! function of its seed, so one `--seed` always produces the same
//! inputs.

use query::workload::RangeMode;
use query::{ActiveMode, Workload, WorkloadConfig};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Derive an independent sub-seed from a seed and a stream label, so
/// every stream of a run has its own generator.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Poisson arrivals at `rate_per_s` over `[0, duration_ns)`: the due
/// times in nanoseconds, ascending, with exponential gaps.
pub fn poisson_schedule(rate_per_s: f64, duration_ns: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty support");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` range queries over latitude and longitude with uniform
/// endpoints (`RangeMode::Uniform`): 4-d `[c_lat, c_lon, r_lat, r_lon]`
/// vectors, as the sketch was trained on.
pub fn uniform_queries(count: usize, seed: u64) -> Vec<Vec<f64>> {
    Workload::generate(&workload_config(count, seed))
        .expect("valid workload config")
        .queries
}

/// The workload shape shared by training and traffic: 3 columns
/// (lat, lon, duration), lat/lon active, uniform ranges.
pub fn workload_config(count: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        dims: 3,
        active: ActiveMode::Fixed(vec![0, 1]),
        range: RangeMode::Uniform,
        count,
        seed,
    }
}

/// A bit-exact identity for a query vector (FNV-1a over the f64 bit
/// patterns), used to match answers and spans to queries.
pub fn query_hash(q: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in q {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(25_000.0, 200_000_000, 7);
        let b = poisson_schedule(25_000.0, 200_000_000, 7);
        let c = poisson_schedule(25_000.0, 200_000_000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 200_000_000));
        // 25k/s over 0.2 s is 5000 expected arrivals (sd ≈ 71).
        assert!((a.len() as f64 - 5000.0).abs() < 400.0, "{}", a.len());
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(20_000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 20_000));
        // Rank 0 carries 1/H(20000) ≈ 9.4% of the mass.
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.08..0.11).contains(&top), "{top}");
        assert!(a.iter().filter(|&&r| r == 1).count() < a.iter().filter(|&&r| r == 0).count());
    }

    #[test]
    fn query_streams_are_deterministic_and_distinct() {
        let a = uniform_queries(500, 11);
        assert_eq!(a, uniform_queries(500, 11));
        assert_ne!(a, uniform_queries(500, 12));
        assert!(a.iter().all(|q| q.len() == 4));
        let mut hashes: Vec<u64> = a.iter().map(|q| query_hash(q)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), a.len());
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }
}
