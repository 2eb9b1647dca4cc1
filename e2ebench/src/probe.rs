//! Host speed probe: a fixed piece of benchmark-owned work, timed
//! between the in-process batches.
//!
//! On a shared VM the host's speed drifts for minutes at a time (a busy
//! neighbour, a frequency change): every compute-bound figure of a run
//! moves together, by tens of percent, with no change to the program.
//! The probe has the in-process batch's shape and none of its code: two
//! scoped worker threads, each pushing rows through a small dense f64
//! network with fixed weights. Its timings sample the host during the
//! same segments as the batches, so the ratio of a batch figure to the
//! probe's time follows the program, and the host far less. Nothing in it
//! calls the library, so no change to the program can move it.

use std::time::Instant;

/// Median slice time on the 2-vCPU AVX-512 VM the benchmark was
/// validated on. It only sets the scale of the figures reported at the
/// reference host speed.
pub const REFERENCE_SLICE_MS: f64 = 0.17;
/// Worker threads of one probe slice, as in the in-process server.
const THREADS: usize = 2;
/// Rows each worker pushes through the network per slice.
const ROWS: usize = 192;
const INPUT: usize = 4;
const HIDDEN: usize = 64;

/// The probe's fixed network and inputs.
pub struct Probe {
    w1: Vec<f64>,
    w2: Vec<f64>,
    w3: Vec<f64>,
    rows: Vec<[f64; INPUT]>,
}

impl Probe {
    pub fn new() -> Probe {
        // A fixed LCG: the weights never change from run to run.
        let mut s: u64 = 0x5EED_CA1B;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.25
        };
        Probe {
            w1: (0..INPUT * HIDDEN).map(|_| next()).collect(),
            w2: (0..HIDDEN * HIDDEN).map(|_| next()).collect(),
            w3: (0..HIDDEN).map(|_| next()).collect(),
            rows: (0..ROWS)
                .map(|_| [next(), next(), next(), next()])
                .collect(),
        }
    }

    /// One worker's share: every row through the network.
    fn forward(&self) -> f64 {
        let (mut h1, mut h2) = ([0.0f64; HIDDEN], [0.0f64; HIDDEN]);
        let mut total = 0.0;
        for x in &self.rows {
            h1.fill(0.0);
            for (i, &xi) in x.iter().enumerate() {
                let w = &self.w1[i * HIDDEN..(i + 1) * HIDDEN];
                for (h, &wj) in h1.iter_mut().zip(w) {
                    *h = wj.mul_add(xi, *h);
                }
            }
            h2.fill(0.0);
            for (i, &hi) in h1.iter().enumerate() {
                let hi = hi.max(0.0);
                let w = &self.w2[i * HIDDEN..(i + 1) * HIDDEN];
                for (h, &wj) in h2.iter_mut().zip(w) {
                    *h = wj.mul_add(hi, *h);
                }
            }
            total += h2
                .iter()
                .zip(&self.w3)
                .fold(0.0, |acc, (&h, &w)| w.mul_add(h.max(0.0), acc));
        }
        total
    }

    /// Run one slice on [`THREADS`] fresh scoped workers; its wall time
    /// in seconds.
    pub fn slice(&self) -> f64 {
        let t = Instant::now();
        let out: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| self.forward())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe worker"))
                .sum()
        });
        std::hint::black_box(out);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_computes_the_same_thing_every_time() {
        let (a, b) = (Probe::new(), Probe::new());
        assert_eq!(a.forward().to_bits(), b.forward().to_bits());
        assert!(a.slice() > 0.0);
    }
}
