//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile
//! of `n` sorted samples is the sample at 1-based rank `⌈p·n/100⌉`. A
//! tail percentile is only meaningful when enough samples lie beyond
//! it, so [`tail_percentile`] picks the highest percentile of a fixed
//! ladder that leaves at least [`MIN_BEYOND`] samples above its rank.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// product is nudged down before rounding up so that float error in
/// `p` (99.9 is not exact) cannot push an exact rank one higher.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile, at most `cap`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond its rank; `None` when even the
/// median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (NaN when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// A tail summary of one latency sample: its size, median, and the
/// highest supported percentile up to a cap, with that percentile.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at (≤ the cap asked for).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarize `samples` (any order) with a tail percentile capped at
/// `cap`. Falls back to the maximum when the sample is too small for
/// even the median to have [`MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64], cap: f64) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_pct, tail) = match tail_percentile(n, cap) {
        Some(p) => (p, percentile(&sorted, p)),
        None => (100.0, sorted.last().copied().unwrap_or(f64::NAN)),
    };
    Tail {
        n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail,
    }
}

/// Where, across windows, the tail summary is read: the lower quartile
/// of the windows' tails. On a shared host, CPU steal inflates the tail
/// of every window it touches, and in some stretches it touches about
/// half of them; the lower quartile still reads a window the host left
/// alone, while a slower program raises every window's tail.
pub const TAIL_ACROSS_WINDOWS: f64 = 25.0;

/// A sample summarized per window: the median, across windows, of each
/// window's median, and the [`TAIL_ACROSS_WINDOWS`] percentile, across
/// windows, of each window's tail percentile. A stall confined to a
/// minority of windows moves neither figure.
#[derive(Debug, Clone)]
pub struct Windowed {
    pub windows: usize,
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The lowest percentile any window's tail was taken at.
    pub tail_pct: f64,
    /// Each window's tail, in window order.
    pub tails: Vec<f64>,
}

/// Summarize `(window, value)` samples window by window.
pub fn windowed(samples: &[(usize, f64)], cap: f64) -> Windowed {
    let mut per: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(w, v) in samples {
        per.entry(w).or_default().push(v);
    }
    let tails: Vec<Tail> = per.values().map(|w| tail(w, cap)).collect();
    Windowed {
        windows: tails.len(),
        n: tails.iter().map(|t| t.n).sum(),
        p50: median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>()),
        tail: across_windows(&tails.iter().map(|t| t.tail).collect::<Vec<_>>()),
        tail_pct: tails.iter().map(|t| t.tail_pct).fold(100.0, f64::min),
        tails: tails.iter().map(|t| t.tail).collect(),
    }
}

/// The [`TAIL_ACROSS_WINDOWS`] percentile of per-window tails (any
/// order; NaN when empty).
pub fn across_windows(tails: &[f64]) -> f64 {
    let mut sorted = tails.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, TAIL_ACROSS_WINDOWS)
}

/// Median of `values` (any order; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 when empty — used for counts per batch).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank(99) = 990 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // 999 samples: rank(99) = 990 leaves 9, so fall back to p95.
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // 10,000 samples support p99.9, unless capped.
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
        // Every answer really leaves at least ten samples beyond it,
        // and the next ladder step up would not.
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n, 100.0) {
                assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
                if let Some(&higher) = LADDER.iter().rev().find(|&&q| q > p) {
                    assert!(n - rank(higher, n) < MIN_BEYOND, "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
        let t = tail(&v, 99.0);
        assert_eq!((t.n, t.p50, t.tail_pct, t.tail), (100, 50.0, 90.0, 90.0));
    }

    #[test]
    fn windowed_summary_ignores_one_stalled_window() {
        let mut samples = Vec::new();
        for w in 0..5usize {
            for i in 0..2000usize {
                let stalled = w == 2 && i % 10 == 0;
                let v = if stalled {
                    50.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                };
                samples.push((w * 3, v));
            }
        }
        let s = windowed(&samples, 99.0);
        assert_eq!((s.windows, s.n, s.tail_pct), (5, 10_000, 99.0));
        // Every window, the stalled one too, has its median at the 50th
        // distinct value; the four clean windows have p99 at the 99th.
        assert!((s.p50 - 1.49).abs() < 1e-12, "{}", s.p50);
        assert!((s.tail - 1.98).abs() < 1e-12, "{}", s.tail);
        // Nearest rank: the lower quartile of 4 tails is the first.
        assert_eq!(across_windows(&[4.0, 2.0, 3.0, 1.0]), 1.0);
        assert_eq!(across_windows(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert!(across_windows(&[]).is_nan());
        assert_eq!(s.tails[2], 50.0);
        // Pooled, the stalled window owns the whole tail.
        let pooled: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        assert_eq!(tail(&pooled, 99.0).tail, 50.0);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
