//! The machine's speed at each moment of a run, measured by fixed
//! reference work that belongs to the benchmark, not to rvdyn.
//!
//! The host the benchmark was sized on (2 vCPUs of a shared machine)
//! slows everything that runs on it by up to 2×, in regimes lasting
//! seconds to minutes, with no steal time visible to the guest. Between
//! jobs the timed loop runs six small kernels (an L1 pointer chase, four
//! parallel chases, three sizes of a table-driven interpreter, a
//! multiply–rotate hash) and records the geometric mean of their times
//! over their nominal times: the machine's *slowness*, 1.0 on that host
//! when it is quiet. rvdyn's jobs slow down more than the kernels do:
//! over tens of runs per workload, at slownesses from 1.1 to 1.7, job
//! times grew as slowness to a power between 1.25 and 1.77. So a time is
//! divided by the slowness measured around it to the power
//! `SENSITIVITY`, which gives its time on the quiet machine. Nothing
//! here calls into rvdyn, so a change to rvdyn moves the jobs and not
//! the reference.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time per kernel, in ms, on the sizing host when it was quiet (the
/// 10th percentile of about 2,000 samples taken between jobs).
const NOMINAL_MS: [f64; 6] = [1.80, 2.78, 2.73, 3.22, 1.56, 1.41];
/// The loop samples at most this often; one sample takes about 14 ms.
const INTERVAL: Duration = Duration::from_millis(200);
/// Samples taken on each side of a moment to estimate its slowness.
const WINDOW: usize = 10;
/// How much more than the kernels rvdyn's jobs slow down, as a power of
/// the slowness (fitted on the sizing host; see the module comment).
const SENSITIVITY: f64 = 1.5;

pub struct Reference {
    l1: Vec<u32>,
    l2: Vec<u32>,
    progs: [Vec<(u8, u8, u8)>; 3],
    mems: [Vec<u64>; 3],
    buf: Vec<u64>,
    /// When each sample was taken, and the slowness it measured.
    samples: Vec<(Instant, f64)>,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One random cycle through `n` slots (Sattolo's algorithm).
fn cycle(n: usize, mut s: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (xorshift(&mut s) % i as u64) as usize;
        v.swap(i, j);
    }
    v
}

/// A random program for `interp`: (opcode, register a, register b).
fn program(n: usize, mut s: u64) -> Vec<(u8, u8, u8)> {
    (0..n)
        .map(|_| {
            let s = xorshift(&mut s);
            ((s % 12) as u8, (s >> 8) as u8 & 31, (s >> 16) as u8 & 31)
        })
        .collect()
}

/// A table-driven interpreter: dispatch on an opcode, loads and stores
/// at data-dependent addresses, data-dependent branches.
fn interp(prog: &[(u8, u8, u8)], mem: &mut [u64], passes: usize) {
    let mut r = [1u64; 32];
    let mask = mem.len() - 1;
    for _ in 0..passes {
        let mut pc = 0;
        while pc < prog.len() {
            let (op, a, b) = prog[pc];
            let (a, b) = (a as usize, b as usize);
            match op {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                2 => r[a] ^= r[b] >> 3,
                3 => r[a] = mem[(r[b] as usize) & mask],
                4 => mem[(r[a] as usize) & mask] = r[b],
                5 => r[a] = r[a].rotate_left(b as u32),
                6 => {
                    if r[a] & 1 == 0 {
                        pc += 1
                    }
                }
                7 => r[a] = r[b].wrapping_sub(r[a]),
                8 => r[a] = r[a].wrapping_add(b as u64),
                9 => {
                    if r[a] > r[b] {
                        r.swap(a, b)
                    }
                }
                10 => r[a] = mem[(r[a] as usize ^ b) & mask].wrapping_add(1),
                _ => r[a] = r[b] ^ r[a].wrapping_shl(1),
            }
            pc += 1;
        }
    }
    black_box(r);
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            l1: cycle(8 << 10, 0x9e3779b97f4a7c15),
            l2: cycle(16 << 10, 0x51afd7ed558ccd),
            progs: [program(8192, 7), program(4096, 11), program(65536, 13)],
            mems: [vec![1; 1 << 15], vec![1; 1 << 11], vec![1; 1 << 19]],
            buf: (0..16u64 << 10).map(|i| i * 0x9e37).collect(),
            samples: Vec::new(),
        }
    }

    fn chase(&self, steps: usize) {
        let mut i = 0u32;
        for _ in 0..steps {
            i = self.l1[i as usize];
        }
        black_box(i);
    }

    fn chase4(&self, steps: usize) {
        let v = &self.l2;
        let (mut a, mut b, mut c, mut d) = (0u32, 1000u32, 5000u32, 9000u32);
        for _ in 0..steps {
            a = v[a as usize];
            b = v[b as usize];
            c = v[c as usize];
            d = v[d as usize];
        }
        black_box((a, b, c, d));
    }

    fn hash(&self, passes: usize) {
        let mut h = [1u64, 2, 3, 4];
        for _ in 0..passes {
            for w in self.buf.chunks_exact(4) {
                for k in 0..4 {
                    h[k] = (h[k] ^ w[k])
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .rotate_left(31);
                }
            }
        }
        black_box(h);
    }

    /// Run every kernel once and record the machine's slowness now.
    pub fn sample(&mut self) {
        let ms = [
            timed_ms(|| self.chase(1 << 20)),
            timed_ms(|| interp(&self.progs[0], &mut self.mems[0], 30)),
            timed_ms(|| interp(&self.progs[1], &mut self.mems[1], 60)),
            timed_ms(|| interp(&self.progs[2], &mut self.mems[2], 4)),
            timed_ms(|| self.chase4(1 << 19)),
            timed_ms(|| self.hash(200)),
        ];
        let log_sum: f64 = ms.iter().zip(NOMINAL_MS).map(|(t, n)| (t / n).ln()).sum();
        let slowness = (log_sum / ms.len() as f64).exp();
        self.samples.push((Instant::now(), slowness));
    }

    /// Sample unless the last sample is more recent than `INTERVAL`.
    pub fn sample_now_and_then(&mut self) {
        match self.samples.last() {
            Some((t, _)) if t.elapsed() < INTERVAL => {}
            _ => self.sample(),
        }
    }

    /// `secs`, measured around `at`, as it would read on the quiet
    /// machine.
    pub fn on_quiet_machine(&self, secs: f64, at: Instant) -> f64 {
        secs / self.slowness_at(at).powf(SENSITIVITY)
    }

    /// The slowness around `at`: the median of the `WINDOW` samples
    /// before it and the `WINDOW` after it.
    fn slowness_at(&self, at: Instant) -> f64 {
        let split = self.samples.partition_point(|(t, _)| *t < at);
        let lo = split.saturating_sub(WINDOW);
        let hi = (split + WINDOW).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        stats::median(&near)
    }

    /// Median slowness over the whole run, for the log.
    pub fn median_slowness(&self) -> f64 {
        stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_slot() {
        let v = cycle(1000, 3);
        let (mut i, mut seen) = (0u32, 0);
        loop {
            i = v[i as usize];
            seen += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(seen, 1000);
    }

    #[test]
    fn slowness_is_the_median_of_nearby_samples() {
        let mut r = Reference::new();
        let t0 = Instant::now();
        for (k, s) in [1.0, 3.0, 2.0].into_iter().enumerate() {
            r.samples.push((t0 + Duration::from_secs(k as u64), s));
        }
        let at = t0 + Duration::from_millis(500);
        assert_eq!(r.slowness_at(at), 2.0);
        assert_eq!(r.on_quiet_machine(3.0, at), 3.0 / 2f64.powf(SENSITIVITY));
        assert_eq!(r.median_slowness(), 2.0);
        r.sample();
        let s = r.samples.last().unwrap().1;
        assert!(s.is_finite() && s > 0.0);
    }
}
