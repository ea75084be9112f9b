//! Seeded randomness and open-loop arrival schedules.
//!
//! Everything `--seed` controls flows through [`Rng`]: the request
//! streams, the Poisson arrival times and the Monte Carlo seeds. Each
//! consumer derives its own stream with [`Rng::stream`], so adding a
//! draw in one place never shifts the numbers another place sees.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `label`'s stream under `seed`.
    pub fn stream(seed: u64, label: &str) -> Rng {
        // FNV-1a over the label, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Poisson arrival times (ns from the phase start) at `rate` per second
/// over `seconds`.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let end = seconds * 1e9;
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end {
            return due;
        }
        due.push(t as u64);
    }
}

/// Zipf(1) popularity over `n` items: item `k` is drawn with weight
/// `1/(k+1)`. Pair with a seeded permutation so the hot items differ
/// between seeds.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / (k + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}
