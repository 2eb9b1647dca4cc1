//! The in-process surface: a closed loop with one caller thread sending
//! batches of 1,024 queries to `Deployment::answer_batch` of the DQD
//! server, the next batch only after the previous one returns. A run
//! spreads this loop over several 1.5-second segments; each segment is
//! one window of the latency and throughput summaries, and holds well
//! over 1,000 batches, enough for its own p99. Every
//! [`PROBE_EVERY`] batches the loop also times one slice of the host
//! speed [`Probe`], so each segment carries its own reading of how fast
//! the host ran while it was measured.

use crate::probe::{Probe, REFERENCE_SLICE_MS};
use crate::setup::{sample_positions, Stack};
use crate::stats::{median, windowed, Windowed};
use crate::traffic::{derive, Rng, Zipf};
use neurosketch::deploy::Deployment;
use std::time::{Duration, Instant};

pub const BATCH: usize = 1024;
/// Batches kept (queries and timing) for the traced run's replays.
const RECORD_BATCHES: usize = 192;
/// Batches between two probe slices.
pub const PROBE_EVERY: u64 = 8;

/// Where a workload's queries come from.
pub enum Source {
    /// Distinct queries, never repeated: batch `i` is generated from
    /// its own derived seed.
    Fresh { seed: u64 },
    /// Draws from a fixed pool of distinct queries, Zipf-skewed.
    Zipf {
        pool: Vec<Vec<f64>>,
        zipf: Zipf,
        rng: Rng,
    },
}

impl Source {
    /// The `index`-th group of `n` queries of stream `label`.
    pub fn queries(&mut self, stack: &Stack, label: u64, index: u64, n: usize) -> Vec<Vec<f64>> {
        match self {
            Source::Fresh { seed } => stack.fresh_queries(n, derive(derive(*seed, label), index)),
            Source::Zipf { pool, zipf, rng } => {
                (0..n).map(|_| pool[zipf.sample(rng)].clone()).collect()
            }
        }
    }
}

/// One served answer kept for the correctness and accuracy checks.
#[derive(Debug, Clone)]
pub struct Served {
    pub query: Vec<f64>,
    pub value: f64,
    /// Generation that answered (0 in process: there is only one).
    pub generation: u64,
}

/// What the closed loop measured, over all of a run's in-process
/// segments.
#[derive(Default)]
pub struct BatchPhase {
    /// `(segment, latency ms)` of every batch.
    pub latencies_ms: Vec<(usize, f64)>,
    /// Queries answered and time spent in calls, per segment.
    pub segments: Vec<(usize, f64)>,
    pub queries: usize,
    pub exact: usize,
    pub checks: Vec<Served>,
    /// A sample of whole batches with their wall time, for replay.
    pub recorded: Vec<(Vec<Vec<f64>>, f64)>,
    /// `(segment, seconds)` of every probe slice.
    pub probes: Vec<(usize, f64)>,
    batches: u64,
}

impl BatchPhase {
    /// A phase for an unmeasured warm-up: its batches draw from a part
    /// of the query stream the measured phase never reaches.
    pub fn warm_up() -> BatchPhase {
        BatchPhase {
            batches: 1 << 40,
            ..BatchPhase::default()
        }
    }

    /// Batch latency per segment, summarized across segments, as
    /// measured (not scaled to the reference host speed).
    pub fn latency(&self) -> Windowed {
        windowed(&self.latencies_ms, 99.0)
    }

    /// Per segment that has probe readings: `(answered queries per
    /// second of call time, median batch ms, median probe slice ms)`.
    pub fn per_segment(&self) -> Vec<(f64, f64, f64)> {
        let n = self.segments.len();
        let (mut lat, mut probe) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for &(s, ms) in &self.latencies_ms {
            lat[s].push(ms);
        }
        for &(s, secs) in &self.probes {
            probe[s].push(secs * 1e3);
        }
        self.segments
            .iter()
            .zip(lat.iter().zip(&probe))
            .filter(|(seg, (_, p))| seg.1 > 0.0 && !p.is_empty())
            .map(|(&(q, busy), (l, p))| (q as f64 / busy, median(l), median(p)))
            .collect()
    }

    /// Answered queries per second of call time at the reference host
    /// speed: each segment's rate times its probe slice time over
    /// [`REFERENCE_SLICE_MS`]; the median across segments.
    pub fn qps(&self) -> f64 {
        let per: Vec<f64> = self
            .per_segment()
            .iter()
            .map(|&(qps, _, probe)| qps * probe / REFERENCE_SLICE_MS)
            .collect();
        median(&per)
    }

    /// Median batch latency at the reference host speed: each segment's
    /// median times [`REFERENCE_SLICE_MS`] over its probe slice time;
    /// the median across segments.
    pub fn p50_ms(&self) -> f64 {
        let per: Vec<f64> = self
            .per_segment()
            .iter()
            .map(|&(_, p50, probe)| p50 * REFERENCE_SLICE_MS / probe)
            .collect();
        median(&per)
    }

    /// Answered queries per second of call time as measured: the median
    /// across segments.
    pub fn raw_qps(&self) -> f64 {
        median(&self.per_segment().iter().map(|s| s.0).collect::<Vec<_>>())
    }

    /// Median probe slice time across the run's segments, ms.
    pub fn probe_ms(&self) -> f64 {
        median(&self.per_segment().iter().map(|s| s.2).collect::<Vec<_>>())
    }
}

/// Run the closed loop against `deployment` for one segment of
/// `seconds`, appending to `phase`.
pub fn run(
    stack: &Stack,
    deployment: &dyn Deployment,
    probe: &Probe,
    source: &mut Source,
    phase: &mut BatchPhase,
    seconds: f64,
    seed: u64,
) {
    let segment = phase.segments.len();
    let mut pick = Rng::new(derive(derive(seed, 0xC4EC), segment as u64));
    let (mut queries, mut busy, mut batches) = (0, 0.0, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let batch = source.queries(stack, 0xBA7C, phase.batches, BATCH);
        let t = Instant::now();
        let (answers, stats) = deployment.answer_batch(&batch);
        let wall = t.elapsed().as_secs_f64();
        std::hint::black_box(&answers);
        assert_eq!(answers.len(), batch.len(), "one answer per query");
        phase.latencies_ms.push((segment, wall * 1e3));
        busy += wall;
        queries += batch.len();
        phase.exact += stats.exact_small_range + stats.exact_hard_leaf;
        for i in sample_positions(batch.len(), 1, &mut pick) {
            phase.checks.push(Served {
                query: batch[i].clone(),
                value: answers[i],
                generation: 0,
            });
        }
        if phase.recorded.len() < RECORD_BATCHES {
            phase.recorded.push((batch, wall));
        }
        phase.batches += 1;
        if batches % PROBE_EVERY == 0 {
            phase.probes.push((segment, probe.slice()));
        }
        batches += 1;
    }
    phase.queries += queries;
    phase.segments.push((queries, busy));
}

/// Compare every kept answer bitwise with the direct per-route answer.
/// Returns the number that differ.
pub fn mismatches(stack: &Stack, checks: &[Served]) -> usize {
    checks
        .iter()
        .filter(|s| stack.direct_dqd(&s.query).to_bits() != s.value.to_bits())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_figures_are_scaled_by_their_own_probe_readings() {
        // Segment 0 ran at the reference speed, segment 1 on a host
        // twice as slow (probe slices take twice as long), segment 2
        // without any probe reading: it is left out.
        let phase = BatchPhase {
            latencies_ms: vec![(0, 1.0), (0, 3.0), (0, 2.0), (1, 4.0), (2, 9.0)],
            segments: vec![(3000, 1.0), (1000, 1.0), (500, 1.0)],
            probes: vec![
                (0, REFERENCE_SLICE_MS / 1e3),
                (1, 2.0 * REFERENCE_SLICE_MS / 1e3),
                (1, 2.0 * REFERENCE_SLICE_MS / 1e3),
            ],
            ..BatchPhase::default()
        };
        let per = phase.per_segment();
        assert_eq!(per.len(), 2);
        assert!((per[1].2 - 2.0 * REFERENCE_SLICE_MS).abs() < 1e-12);
        // Scaled rates 3000 and 2000: the median of two is their mean.
        assert!((phase.qps() - 2500.0).abs() < 1e-9, "{}", phase.qps());
        assert!((phase.raw_qps() - 2000.0).abs() < 1e-9);
        // Scaled p50s 2.0 and 2.0.
        assert!((phase.p50_ms() - 2.0).abs() < 1e-12, "{}", phase.p50_ms());
    }
}
