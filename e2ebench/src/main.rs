//! End-to-end and per-layer benchmark of the NeuroSketch serving stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload batch_dqd --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run builds the shared set-up (see [`setup`]), then serves one
//! workload's traffic through both public serving surfaces: the
//! in-process DQD server in a closed loop ([`inproc`]), and the NSKW
//! server over loopback at three fixed offered rates with hot swaps
//! ([`wire`]). With `--trace 0` it prints every end-to-end metric; with
//! `--trace 1` it runs the same pass untraced and then traced, and
//! prints every per-layer metric ([`layers`]). Every run checks its
//! answers and exits non-zero when a check fails; requests that failed
//! (rejected, error frame, lost) are counted in the result. The last
//! line of standard output is the JSON result.

mod inproc;
mod layers;
mod probe;
mod report;
mod setup;
mod stats;
mod trace;
mod traffic;
mod wire;

use inproc::{BatchPhase, Served, Source};
use neurosketch::cache::CacheStats;
use report::{Host, Metric};
use setup::Stack;
use stats::{across_windows, median, ratio, tail};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{Recorder, Traced};
use traffic::{derive, query_hash, Rng, Zipf};
use wire::{WirePhase, WireStack, POST_SWAP_NS, SEGMENT_NS};

const USAGE: &str = "usage: e2ebench --workload batch_dqd|wire_skew_swap \
                     --seed N --seconds N (>= 10) --trace 0|1";

/// Offered rates of the wire phases, requests per second.
pub const RATES: [f64; 3] = [5_000.0, 25_000.0, 60_000.0];
/// Times the set-up is built in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 2;
/// A rate passes, for `max_rate_qps`, when its p99 meets
/// [`wire::LATENCY_LIMIT_MS`] and it answered at least this share of
/// what was offered in time.
const MIN_ACHIEVED: f64 = 0.98;
/// Distinct answers the accuracy metric is computed over, per surface:
/// in process, and on the wire.
const NMAE_SAMPLE: [usize; 2] = [2000, 20_000];
const ZIPF_POOL: usize = 20_000;
const ZIPF_S: f64 = 1.0;
const MIN_SECONDS: f64 = 10.0;
/// Length of one in-process segment: long enough for over 1,000
/// batches, so each segment has its own p99.
const IN_PROCESS_SEGMENT_S: f64 = 1.5;

/// Every end-to-end metric, in print order, with its unit.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("batch_p50_ms", "ms"),
    ("p50_ms.5k", "ms"),
    ("p50_ms.25k", "ms"),
    ("p99_ms.25k", "ms"),
    ("p50_ms.60k", "ms"),
    ("p99_ms.60k", "ms"),
    ("max_rate_qps", "1/s"),
    ("post_swap_p99_ms", "ms"),
    ("nmae", "ratio"),
    ("answered_frac", "ratio"),
    ("artifact_bytes", "B"),
];

/// Every per-layer metric a traced run prints.
pub const PER_LAYER: [&str; 50] = [
    "net.queue_wait_us.p50",
    "net.self_us.p50",
    "net.batch_queries.mean",
    "net.batches",
    "net.rejected",
    "net.dedup_ratio",
    "net.matched_ratio",
    "deploy.swaps",
    "deploy.swap_us",
    "cache.hit_ratio",
    "cache.post_swap_hit_ratio",
    "cache.dedup_ratio",
    "cache.self_us_per_query",
    "cache.insertions",
    "cache.evictions",
    "serve.us_per_query",
    "serve.exact_share",
    "serve.parallel_efficiency",
    "router.us_per_query",
    "sketch.locate_us_per_query",
    "sketch.us_per_query",
    "sketch.groups_per_batch",
    "sketch.rows_per_group.mean",
    "nn.forward_us_per_row",
    "nn.flop_per_query",
    "nn.bytes_per_query",
    "nn.gflops",
    "query.exact_us_per_query",
    "shard.us_per_query",
    "shard.model_batches_per_batch",
    "build.label_s",
    "build.partition_s",
    "build.train_s",
    "build.epochs",
    "persist.encode_ms",
    "persist.decode_ms",
    "maintenance.retrain_s",
    "loadgen.late_ms.p99",
    "loadgen.late_ms.max",
    "loadgen.achieved_qps.5k",
    "loadgen.achieved_qps.25k",
    "loadgen.achieved_qps.60k",
    "trace.overhead",
    "cache.lookups",
    "shard.batches",
    "serve.batches",
    "serve.batch_p99_ms",
    "net.p99_ms.5k",
    "serve.raw_qps",
    "host.probe_us",
];

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct, never-repeated queries; half the run in process.
    BatchDqd,
    /// Zipf-skewed wire queries from a fixed pool; most of the run on
    /// the wire.
    WireSkewSwap,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BatchDqd, Workload::WireSkewSwap];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDqd => "batch_dqd",
            Workload::WireSkewSwap => "wire_skew_swap",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wire segments per in-process segment. The run repeats the
    /// pattern "one in-process segment, then this many wire segments"
    /// with the offered rates taking turns: half the time in process
    /// for `batch_dqd`, a third for `wire_skew_swap`.
    fn wire_segments_per_cycle(self) -> usize {
        match self {
            Workload::BatchDqd => 2 * RATES.len(),
            Workload::WireSkewSwap => 4 * RATES.len(),
        }
    }

    /// The run's timeline: `None` is an in-process segment, `Some(rate)`
    /// a wire segment, filling `seconds`.
    fn plan(self, seconds: f64) -> Vec<Option<f64>> {
        let wire_s = SEGMENT_NS as f64 / 1e9;
        let mut plan = Vec::new();
        let (mut t, mut wire) = (0.0, 0usize);
        while t + wire_s <= seconds + 1e-9 {
            if wire % self.wire_segments_per_cycle() == 0 && plan.last() != Some(&None) {
                if t + IN_PROCESS_SEGMENT_S > seconds + 1e-9 {
                    break;
                }
                plan.push(None);
                t += IN_PROCESS_SEGMENT_S;
                continue;
            }
            plan.push(Some(RATES[wire % RATES.len()]));
            wire += 1;
            t += wire_s;
        }
        plan
    }

    /// The metric the tracing overhead is reported on.
    fn headline(self) -> &'static str {
        match self {
            Workload::BatchDqd => "qps",
            Workload::WireSkewSwap => "p50_ms.25k",
        }
    }

    /// Where the wire traffic comes from. In-process traffic is always
    /// distinct queries: the in-process server has no cache, and a Zipf
    /// head of a few queries would make its route mix, and so `qps`,
    /// depend on which pool queries the seed makes hot.
    fn wire_source(self, stack: &Stack, seed: u64) -> Source {
        match self {
            Workload::BatchDqd => Source::Fresh { seed },
            Workload::WireSkewSwap => Source::Zipf {
                pool: stack.fresh_queries(ZIPF_POOL, derive(seed, 0x9001)),
                zipf: Zipf::new(ZIPF_POOL, ZIPF_S),
                rng: Rng::new(derive(seed, 0x21FF)),
            },
        }
    }
}

/// `5k`, `25k`, `60k`.
pub fn rate_label(rate: f64) -> String {
    format!("{}k", (rate / 1000.0).round() as u64)
}

/// Everything one pass over a workload measured.
pub struct Pass {
    pub batch: BatchPhase,
    pub wire: WirePhase,
    pub swaps: Vec<(u64, f64)>,
    /// Cache counters moved by the measured part of the pass.
    pub cache: CacheStats,
    pub last_generation: u64,
    /// When the measured part began, after the warm-up (epoch ns).
    pub measured_from_ns: u64,
}

fn run_pass(
    stack: &Stack,
    wl: Workload,
    seed: u64,
    seconds: f64,
    rec: Option<Arc<Recorder>>,
    epoch: Instant,
) -> Pass {
    let mut in_source = Source::Fresh { seed };
    let mut wire_source = wl.wire_source(stack, seed);
    let traced;
    let in_process: &dyn neurosketch::Deployment = match &rec {
        Some(r) => {
            traced = Traced::new("serve", Arc::clone(&stack.server), r);
            &traced
        }
        None => &*stack.server,
    };
    let probe = probe::Probe::new();
    let mut ws = WireStack::new(stack, rec, epoch);
    // Warm-up, not measured: both surfaces once, so lazy set-up, first
    // allocations and the cache's first fill happen before timing.
    inproc::run(
        stack,
        in_process,
        &probe,
        &mut in_source,
        &mut BatchPhase::warm_up(),
        0.5,
        seed,
    );
    wire::run_stretch(
        &mut ws,
        &mut wire_source,
        &RATES[1..],
        seed,
        &mut WirePhase::warm_up(),
    );
    ws.swaps.clear();
    let warm = ws.cache_stats();
    let measured_from_ns = epoch.elapsed().as_nanos() as u64;
    let (mut batch, mut wire) = (BatchPhase::default(), WirePhase::default());
    let plan = wl.plan(seconds);
    let mut i = 0;
    while i < plan.len() {
        if plan[i].is_none() {
            inproc::run(
                stack,
                in_process,
                &probe,
                &mut in_source,
                &mut batch,
                IN_PROCESS_SEGMENT_S,
                seed,
            );
            i += 1;
            continue;
        }
        let rates: Vec<f64> = plan[i..].iter().map_while(|s| *s).collect();
        wire::run_stretch(&mut ws, &mut wire_source, &rates, seed, &mut wire);
        i += rates.len();
    }
    let end = ws.cache_stats();
    Pass {
        batch,
        wire,
        swaps: ws.swaps.clone(),
        cache: CacheStats {
            hits: end.hits - warm.hits,
            misses: end.misses - warm.misses,
            insertions: end.insertions - warm.insertions,
            evictions: end.evictions - warm.evictions,
            ..end
        },
        last_generation: ws.generation(),
        measured_from_ns,
    }
}

/// Outcome of a pass's checks.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    checked: usize,
    mismatches: usize,
    conservation: usize,
}

impl Verdict {
    fn correct(&self) -> bool {
        self.mismatches == 0 && self.conservation == 0
    }
}

fn verify(stack: &Stack, pass: &Pass) -> Verdict {
    let w = &pass.wire;
    Verdict {
        attempted: (pass.batch.queries + w.offered) as u64,
        failed: (w.rejected + w.errors + w.lost) as u64,
        checked: pass.batch.checks.len() + w.checks.len(),
        mismatches: inproc::mismatches(stack, &pass.batch.checks)
            + wire::mismatches(stack, &w.checks, pass.last_generation),
        conservation: w.unbalanced,
    }
}

/// Up to `k` distinct answers (by query and generation), evenly spread.
fn distinct_sample(served: &[Served], k: usize) -> Vec<&Served> {
    let mut seen = HashSet::new();
    let distinct: Vec<&Served> = served
        .iter()
        .filter(|s| seen.insert((query_hash(&s.query), s.generation % 2)))
        .collect();
    let step = distinct.len().div_ceil(k).max(1);
    distinct.into_iter().step_by(step).collect()
}

/// Normalized MAE of served answers against the exact answer over the
/// table of the generation that served them.
fn nmae(stack: &Stack, pass: &Pass) -> f64 {
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    for (sample, sharded) in [(&pass.batch.checks, false), (&pass.wire.checks, true)] {
        let (mut t, mut p) = (Vec::new(), Vec::new());
        for s in distinct_sample(sample, NMAE_SAMPLE[usize::from(sharded)]) {
            t.push(stack.exact(&s.query, sharded && s.generation % 2 == 1));
            p.push(s.value);
        }
        let surface = if sharded { "wire" } else { "in-process" };
        let err = query::error::normalized_mae(&t, &p);
        println!(
            "  nmae {surface}: {err:.4} over {} distinct answers",
            t.len()
        );
        truth.extend(t);
        pred.extend(p);
    }
    query::error::normalized_mae(&truth, &pred)
}

fn end_to_end(stack: &Stack, pass: &Pass, verdict: &Verdict, setup_s: f64) -> Vec<Metric> {
    let mut m = vec![Metric::new("setup_s", setup_s, "s")];
    // In-process figures are scaled to the reference host speed: the
    // host's speed drifts from minute to minute (see `probe`).
    m.push(Metric::new("qps", pass.batch.qps(), "1/s"));
    m.push(Metric::new("batch_p50_ms", pass.batch.p50_ms(), "ms"));
    for rate in RATES {
        let t = pass.wire.latency(rate);
        let label = rate_label(rate);
        m.push(Metric::new(&format!("p50_ms.{label}"), t.p50, "ms"));
        // The in-process batch tail and the 5k tail follow the host's
        // CPU steal more than the program: per-layer figures instead.
        if rate != RATES[0] {
            m.push(Metric::new(&format!("p99_ms.{label}"), t.tail, "ms"));
        }
    }
    m.push(Metric::new("max_rate_qps", max_rate(&pass.wire), "1/s"));
    m.push(Metric::new("post_swap_p99_ms", post_swap(pass).0, "ms"));
    m.push(Metric::new("nmae", nmae(stack, pass), "ratio"));
    let answered = 1.0 - ratio(verdict.failed as f64, verdict.attempted as f64);
    m.push(Metric::new("answered_frac", answered, "ratio"));
    m.push(Metric::new(
        "artifact_bytes",
        stack.artifact_bytes as f64,
        "B",
    ));
    m
}

/// The goodput (answers per second within [`wire::LATENCY_LIMIT_MS`] of
/// their due time) at the highest offered rate that passes, or at the
/// lowest offered rate when none does. A passing rate reads just below
/// its offered rate; a run where no rate passes reads below the lowest
/// rate, and above 0 as long as any answer came in time.
fn max_rate(wire: &WirePhase) -> f64 {
    let passes = |rate: f64| {
        wire.latency(rate).tail <= wire::LATENCY_LIMIT_MS
            && wire.achieved_qps(rate) >= MIN_ACHIEVED * wire.offered_qps(rate)
    };
    let rate = RATES.into_iter().rev().find(|&r| passes(r));
    if rate.is_none() {
        println!("  no offered rate met the latency and throughput limits");
    }
    wire.goodput_qps(rate.unwrap_or(RATES[0]))
}

/// Tail latency right after hot swaps: for every measured swap, the
/// p99 of the requests due within [`POST_SWAP_NS`] after it, summarized
/// across swaps as the wire tails are across windows; and the number of
/// swaps.
fn post_swap(pass: &Pass) -> (f64, usize) {
    let w = &pass.wire;
    let tails: Vec<f64> = pass
        .swaps
        .iter()
        .map(|&(at, _)| {
            let lat: Vec<f64> = w
                .latencies
                .iter()
                .filter(|&&(_, due, _)| due >= at && due < at + POST_SWAP_NS)
                .map(|&(_, _, ms)| ms)
                .collect();
            tail(&lat, 99.0).tail
        })
        .collect();
    (across_windows(&tails), tails.len())
}

/// Sample sizes behind the printed percentiles, for the log.
fn describe(pass: &Pass) {
    let b = pass.batch.latency();
    println!(
        "  in-process: {} batches of {} queries in {} segments, p50 {:.3} ms, p{} {:.3} ms, {:.0} qps",
        b.n,
        inproc::BATCH,
        b.windows,
        b.p50,
        b.tail_pct,
        b.tail,
        pass.batch.raw_qps()
    );
    println!("    segment p{}: {:.3?}", b.tail_pct, b.tails);
    let per = pass.batch.per_segment();
    let qps: Vec<f64> = per.iter().map(|s| s.0 / 1e6).collect();
    let probe: Vec<f64> = per.iter().map(|s| s.2 * 1e3).collect();
    println!("    segment qps (M/s): {qps:.3?}");
    println!("    segment probe slice (us): {probe:.1?}");
    println!(
        "    at the reference host speed ({:.0} us probe slice): {:.0} qps, batch p50 {:.3} ms",
        probe::REFERENCE_SLICE_MS * 1e3,
        pass.batch.qps(),
        pass.batch.p50_ms()
    );
    let w = &pass.wire;
    println!(
        "  wire: offered {}, answered {}, rejected {}, errors {}, lost {}, {} server batches",
        w.offered, w.answered, w.rejected, w.errors, w.lost, w.net.batches
    );
    for rate in RATES {
        let t = w.latency(rate);
        println!(
            "  wire {:>3}: offered {:.0}/s, achieved {:.0}/s, goodput {:.0}/s, p50 {:.3} ms, p{} {:.3} ms (n={} in {} windows)",
            rate_label(rate),
            w.offered_qps(rate),
            w.achieved_qps(rate),
            w.goodput_qps(rate),
            t.p50,
            t.tail_pct,
            t.tail,
            t.n,
            t.windows
        );
        println!("    window p{}: {:.3?}", t.tail_pct, t.tails);
    }
    let late = tail(&w.late_ms, 99.0);
    let (p99, swaps) = post_swap(pass);
    println!(
        "  sender lateness p{} {:.3} ms; {} swaps, post-swap p99 {:.3} ms (lower quartile of {swaps}); \
         cache {} hits / {} misses",
        late.tail_pct,
        late.tail,
        pass.swaps.len(),
        p99,
        pass.cache.hits,
        pass.cache.misses
    );
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= MIN_SECONDS && s.is_finite()) {
                    return Err(format!("--seconds must be at least {MIN_SECONDS}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs keep their artifacts and results: inside this package.
fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let wl = args.workload;
    let host = Host::detect();
    println!("host {}", host.json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up: built (and persisted, and loaded back) several times; the
    // median is `setup_s`, the last build is served.
    let work = out_dir("work").join(std::process::id().to_string());
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut stack = None;
    for rep in 0..reps {
        drop(stack.take());
        let t = Instant::now();
        stack = Some(setup::build(&work.join(rep.to_string())));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&work);
    let stack = stack.expect("at least one set-up");
    let setup_s = median(&setup_times);
    println!("  set-up: {setup_times:.3?} s");

    let epoch = Instant::now();
    let plain = run_pass(&stack, wl, args.seed, args.seconds, None, epoch);
    describe(&plain);
    let mut verdict = verify(&stack, &plain);

    let metrics = if args.trace {
        let rec = Recorder::new(epoch);
        let traced = run_pass(
            &stack,
            wl,
            args.seed,
            args.seconds,
            Some(Arc::clone(&rec)),
            epoch,
        );
        println!("  traced pass:");
        describe(&traced);
        let v = verify(&stack, &traced);
        verdict.attempted += v.attempted;
        verdict.failed += v.failed;
        verdict.checked += v.checked;
        verdict.mismatches += v.mismatches;
        verdict.conservation += v.conservation;
        let spans: Vec<trace::Span> = rec
            .spans()
            .into_iter()
            .filter(|s| s.start_ns >= traced.measured_from_ns)
            .collect();
        let results = out_dir("results");
        let spans_path = results.join(format!("{}-seed{}-spans.jsonl", wl.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(&results).and_then(|_| rec.write_jsonl(&spans_path))
        {
            eprintln!("could not write spans: {e}");
        }
        layers::per_layer(&stack, &plain, &traced, &spans, wl.headline())
    } else {
        end_to_end(&stack, &plain, &verdict, setup_s)
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, _)| n).collect()
    };
    let produced: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    assert!(
        produced.iter().all(|n| report::valid_name(n)),
        "metric names"
    );
    assert_eq!(
        produced.iter().collect::<HashSet<_>>(),
        expected.iter().collect::<HashSet<_>>(),
        "metric set"
    );

    println!(
        "  checks: {} answers compared bitwise, {} mismatched, {} conservation failures, \
         {} of {} requests failed",
        verdict.checked,
        verdict.mismatches,
        verdict.conservation,
        verdict.failed,
        verdict.attempted
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let line = report::result_line(
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        &metrics,
    );
    let results = out_dir("results");
    let record = format!(
        "{{\"host\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{line}}}\n",
        host.json(),
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{line}");
    if verdict.failed > 0 {
        // Typed backpressure (queue-full rejects) is a legitimate
        // server answer under host contention: counted, not fatal.
        eprintln!(
            "{} of {} requests failed",
            verdict.failed, verdict.attempted
        );
    }
    if !verdict.correct() {
        eprintln!("FAILED: {verdict:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_and_workload_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        names.extend(PER_LAYER);
        names.extend(Workload::ALL.map(Workload::name));
        for n in &names {
            assert!(report::valid_name(n), "{n}");
        }
        let unique: HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for (_, unit) in END_TO_END {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for rate in RATES {
            assert!(names.contains(&format!("p50_ms.{}", rate_label(rate)).as_str()));
        }
    }

    #[test]
    fn plan_fills_the_run_and_the_rates_take_turns() {
        for (wl, in_process) in [(Workload::BatchDqd, 10), (Workload::WireSkewSwap, 7)] {
            let plan = wl.plan(30.0);
            let wire: Vec<f64> = plan.iter().flatten().copied().collect();
            assert_eq!(plan.len() - wire.len(), in_process, "{wl:?}");
            let seconds = in_process as f64 * IN_PROCESS_SEGMENT_S
                + wire.len() as f64 * SEGMENT_NS as f64 / 1e9;
            assert!((seconds - 30.0).abs() < 1e-9, "{wl:?}: {seconds}");
            assert_eq!(plan[0], None, "{wl:?} starts in process");
            for (i, &rate) in wire.iter().enumerate() {
                assert_eq!(rate, RATES[i % RATES.len()]);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        names.extend(PER_LAYER);
        names.extend(Workload::ALL.map(Workload::name));
        for n in names {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
