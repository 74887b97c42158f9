//! Seeded generator: every input of a run is a function of `--seed`.

/// SplitMix64.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed, so adding
    /// a draw to one purpose never shifts another's inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
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
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8).scan(Rng::new(5, 1), |r, _| Some(r.next())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(5, 1), |r, _| Some(r.next())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(6, 1), |r, _| Some(r.next())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(10, 1.0);
        let mut r = Rng::new(1, 2);
        let mut hits = [0u32; 10];
        for _ in 0..10_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[9]);
        assert!(hits.iter().all(|&h| h > 0));
    }
}
