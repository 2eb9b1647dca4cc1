//! Per-layer metrics of a traced run.
//!
//! Layer boundaries the serving stack crosses per batch (`serve`,
//! `cache`, `shard`) come from the spans [`crate::trace::Traced`]
//! recorded. The layers below the DQD server (`router`, `sketch`, `nn`,
//! `query`) run inside its worker fan-out, so their costs come from
//! replaying recorded batches single-threaded through each module's
//! public functions. `net` is the difference between what the client
//! saw and the deployment call that served the request.

use crate::report::Metric;
use crate::setup::{Stack, ACTIVE, SERVE_THREADS};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self_ns, Span};
use crate::traffic::Rng;
use crate::wire::POST_SWAP_NS;
use crate::Pass;
use neurosketch::deploy::Deployment;
use neurosketch::router::{range_volume, Route};
use neurosketch::BatchScratch;
use nn::linalg::Matrix;
use nn::mlp::BatchWorkspace;
use nn::Mlp;
use query::Aggregate;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Costs of the layers under the DQD server, replayed.
struct Replay {
    router_us: f64,
    locate_us: f64,
    sketch_us: f64,
    exact_us: f64,
    groups_per_batch: f64,
    rows_per_group: f64,
    group_sizes: Vec<usize>,
    parallel_efficiency: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replay the recorded batches the way the server's workers see them:
/// each batch split into [`SERVE_THREADS`] chunks, each chunk routed,
/// grouped by leaf and answered.
fn replay(stack: &Stack, recorded: &[(Vec<Vec<f64>>, f64)]) -> Replay {
    let router = stack.server.router();
    let sketch = router.sketch();
    let layout = sketch.serving_layout();
    let mut scratch = BatchScratch::default();
    let mut exact_scratch = Vec::new();
    let (mut route_s, mut locate_s, mut sketch_s, mut exact_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut queries, mut sketched, mut exact) = (0usize, 0usize, 0usize);
    let mut group_sizes = Vec::new();
    for (batch, _) in recorded {
        queries += batch.len();
        let t = Instant::now();
        for q in batch {
            black_box(router.route(black_box(q), Some(range_volume(q, ACTIVE))));
        }
        route_s += secs(t);
        let t = Instant::now();
        for q in batch {
            black_box(sketch.leaf_index_of(black_box(q)));
        }
        locate_s += secs(t);

        let chunk_len = batch.len().div_ceil(SERVE_THREADS).clamp(1, 1024);
        for chunk in batch.chunks(chunk_len) {
            let mut to_sketch = Vec::new();
            let mut to_exact = Vec::new();
            for (i, q) in chunk.iter().enumerate() {
                match router.route(q, Some(range_volume(q, ACTIVE))) {
                    Route::Sketch => to_sketch.push(i),
                    _ => to_exact.push(i),
                }
            }
            let mut per_leaf: BTreeMap<usize, usize> = BTreeMap::new();
            for &i in &to_sketch {
                *per_leaf.entry(sketch.leaf_index_of(&chunk[i])).or_default() += 1;
            }
            group_sizes.extend(per_leaf.values());
            let mut out = vec![0.0; chunk.len()];
            let t = Instant::now();
            sketch.answer_subset_with_layout(&layout, &mut scratch, chunk, &to_sketch, &mut out);
            sketch_s += secs(t);
            black_box(&out);
            sketched += to_sketch.len();
            let t = Instant::now();
            for &i in &to_exact {
                black_box(stack.engine_a.answer_with(
                    &mut exact_scratch,
                    stack.predicate,
                    Aggregate::Avg,
                    &chunk[i],
                ));
            }
            exact_s += secs(t);
            exact += to_exact.len();
        }
    }

    // Whole batches through a one-thread server over the same artifact:
    // the busy time the two-thread server's wall time is compared with.
    let single = stack.single_thread_server();
    let (mut single_s, mut wall_s) = (0.0, 0.0);
    for (batch, wall) in recorded {
        let t = Instant::now();
        black_box(Deployment::answer_batch(&single, batch));
        single_s += secs(t);
        wall_s += wall;
    }

    let groups = group_sizes.len() as f64;
    Replay {
        router_us: ratio(route_s * 1e6, queries as f64),
        locate_us: ratio(locate_s * 1e6, queries as f64),
        sketch_us: ratio(sketch_s * 1e6, sketched as f64),
        exact_us: ratio(exact_s * 1e6, exact as f64),
        groups_per_batch: ratio(groups, recorded.len() as f64),
        rows_per_group: ratio(sketched as f64, groups),
        group_sizes,
        parallel_efficiency: ratio(single_s, wall_s * SERVE_THREADS as f64),
    }
}

/// The MLP forward pass at the recorded group sizes, on a freshly
/// initialized model of the served architecture: µs per row.
fn forward_us_per_row(stack: &Stack, group_sizes: &[usize]) -> f64 {
    let sizes = stack.cfg.layer_sizes(stack.server.sketch().query_dim());
    let mlp = Mlp::new(&sizes, 7);
    let layout = mlp.serving_layout();
    let mut rng = Rng::new(11);
    let inputs: Vec<Matrix> = group_sizes
        .iter()
        .map(|&g| {
            let mut x = Matrix::zeros(g, layout.input_cols());
            for r in 0..g {
                for v in &mut x.row_mut(r)[..sizes[0]] {
                    *v = rng.unit();
                }
            }
            x
        })
        .collect();
    let mut ws = BatchWorkspace::default();
    const ROUNDS: usize = 3;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for x in &inputs {
            black_box(mlp.forward_batch_layout(&layout, &mut ws, x));
        }
    }
    let rows: usize = group_sizes.iter().sum();
    ratio(secs(t) * 1e6, (rows * ROUNDS) as f64)
}

/// The serving span (by start) that answered a request sent at `sent`
/// and received at `recv`: the first one that starts after the send,
/// ends before the receipt and holds the request's query.
fn serving_span<'a>(spans: &'a [&'a Span], sent: u64, recv: u64, hash: u64) -> Option<&'a Span> {
    let first = spans.partition_point(|s| s.start_ns < sent);
    spans[first..]
        .iter()
        .take_while(|s| s.start_ns <= recv)
        .find(|s| s.end_ns <= recv && s.contains(hash))
        .copied()
}

fn spans_named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name).collect()
}

fn sum_queries(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.queries as f64).sum()
}

fn sum_dur_us(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.dur_ns() as f64 / 1e3).sum()
}

/// Every per-layer metric of a traced run. `plain` is the untraced
/// pass of the same run, `traced` the traced one, `spans` its spans.
pub fn per_layer(
    stack: &Stack,
    plain: &Pass,
    traced: &Pass,
    spans: &[Span],
    headline: &str,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));

    // net: requests against the deployment call that served them.
    let cache_spans = spans_named(spans, "cache");
    let (mut waits, mut selfs) = (Vec::new(), Vec::new());
    for &(sent, recv, hash) in &traced.wire.requests {
        if let Some(s) = serving_span(&cache_spans, sent, recv, hash) {
            waits.push((s.start_ns - sent) as f64 / 1e3);
            selfs.push((recv - sent).saturating_sub(s.dur_ns()) as f64 / 1e3);
        }
    }
    waits.sort_by(f64::total_cmp);
    selfs.sort_by(f64::total_cmp);
    let n = &traced.wire.net;
    push("net.queue_wait_us.p50", percentile(&waits, 50.0), "us");
    push("net.self_us.p50", percentile(&selfs, 50.0), "us");
    push(
        "net.batch_queries.mean",
        ratio(n.answered as f64, n.batches as f64),
        "count",
    );
    push("net.batches", n.batches as f64, "count");
    push(
        "net.p99_ms.5k",
        plain.wire.latency(crate::RATES[0]).tail,
        "ms",
    );
    push("net.rejected", n.rejected as f64, "count");
    push(
        "net.dedup_ratio",
        ratio(n.deduped as f64, n.queries as f64),
        "ratio",
    );
    let requests = traced.wire.requests.len() as f64;
    push(
        "net.matched_ratio",
        ratio(waits.len() as f64, requests),
        "ratio",
    );

    // deploy: hot swaps.
    let swap_us: Vec<f64> = traced.swaps.iter().map(|&(_, us)| us).collect();
    push("deploy.swaps", swap_us.len() as f64, "count");
    push("deploy.swap_us", median(&swap_us), "us");

    // cache: the CachedDeployment span minus its ShardedServer child.
    let shard_spans = spans_named(spans, "shard");
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &shard_spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let hits = |ss: &[&Span]| -> (f64, f64) {
        let h: f64 = ss.iter().map(|s| s.stats.cache_hits as f64).sum();
        let mi: f64 = ss.iter().map(|s| s.stats.cache_misses as f64).sum();
        (h, h + mi)
    };
    let (h, lookups) = hits(&cache_spans);
    push("cache.hit_ratio", ratio(h, lookups), "ratio");
    push("cache.lookups", lookups, "count");
    let post_swap: Vec<&Span> = cache_spans
        .iter()
        .filter(|s| {
            traced
                .swaps
                .iter()
                .any(|&(at, _)| s.start_ns >= at && s.start_ns < at + POST_SWAP_NS)
        })
        .copied()
        .collect();
    let (h, lookups) = hits(&post_swap);
    push("cache.post_swap_hit_ratio", ratio(h, lookups), "ratio");
    let dedup: f64 = cache_spans.iter().map(|s| s.stats.dedup_hits as f64).sum();
    push(
        "cache.dedup_ratio",
        ratio(dedup, sum_queries(&cache_spans)),
        "ratio",
    );
    let cache_self_us: f64 = cache_spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_ns((s.start_ns, s.end_ns), kids) as f64 / 1e3
        })
        .sum();
    push(
        "cache.self_us_per_query",
        ratio(cache_self_us, sum_queries(&cache_spans)),
        "us",
    );
    push("cache.insertions", traced.cache.insertions as f64, "count");
    push("cache.evictions", traced.cache.evictions as f64, "count");

    // serve: the DQD server's span per batch, and its worker fan-out.
    let serve_spans = spans_named(spans, "serve");
    let r = replay(stack, &traced.batch.recorded);
    push("serve.batches", serve_spans.len() as f64, "count");
    push("serve.batch_p99_ms", plain.batch.latency().tail, "ms");
    push("serve.raw_qps", plain.batch.raw_qps(), "1/s");
    push("host.probe_us", plain.batch.probe_ms() * 1e3, "us");
    push(
        "serve.us_per_query",
        ratio(sum_dur_us(&serve_spans), sum_queries(&serve_spans)),
        "us",
    );
    push(
        "serve.exact_share",
        ratio(traced.batch.exact as f64, traced.batch.queries as f64),
        "ratio",
    );
    push("serve.parallel_efficiency", r.parallel_efficiency, "ratio");

    push("router.us_per_query", r.router_us, "us");
    push("sketch.locate_us_per_query", r.locate_us, "us");
    push("sketch.us_per_query", r.sketch_us, "us");
    push("sketch.groups_per_batch", r.groups_per_batch, "count");
    push("sketch.rows_per_group.mean", r.rows_per_group, "count");

    // nn: measured forward pass; flop and bytes computed from layer sizes.
    let fwd_us = forward_us_per_row(stack, &r.group_sizes);
    let sizes = stack.cfg.layer_sizes(stack.server.sketch().query_dim());
    let (flop, params, act): (f64, f64, f64) =
        sizes.windows(2).fold((0.0, 0.0, 0.0), |(f, p, a), w| {
            let (i, o) = (w[0] as f64, w[1] as f64);
            (f + 2.0 * i * o + o, p + i * o + o, a + i + o)
        });
    push("nn.forward_us_per_row", fwd_us, "us");
    push("nn.flop_per_query", flop, "flop");
    push(
        "nn.bytes_per_query",
        8.0 * params / r.rows_per_group.max(1.0) + 8.0 * act,
        "B",
    );
    push("nn.gflops", ratio(flop, fwd_us * 1e3), "GFLOP/s");

    push("query.exact_us_per_query", r.exact_us, "us");

    // shard: the ShardedServer span per cache miss batch.
    push("shard.batches", shard_spans.len() as f64, "count");
    push(
        "shard.us_per_query",
        ratio(sum_dur_us(&shard_spans), sum_queries(&shard_spans)),
        "us",
    );
    let model_batches: Vec<f64> = shard_spans
        .iter()
        .map(|s| s.stats.model_batches as f64)
        .collect();
    push(
        "shard.model_batches_per_batch",
        mean(&model_batches),
        "count",
    );

    // build path, from the set-up.
    let f = stack.figures;
    push("build.label_s", f.label_s, "s");
    push("build.partition_s", f.partition_s, "s");
    push("build.train_s", f.train_s, "s");
    push("build.epochs", f.epochs, "count");
    push("persist.encode_ms", f.encode_ms, "ms");
    push("persist.decode_ms", f.decode_ms, "ms");
    push("maintenance.retrain_s", f.retrain_s, "s");

    // load generator: how late it sent, and what it achieved, untraced.
    let mut late = plain.wire.late_ms.clone();
    late.sort_by(f64::total_cmp);
    push("loadgen.late_ms.p99", percentile(&late, 99.0), "ms");
    push(
        "loadgen.late_ms.max",
        late.last().copied().unwrap_or(0.0),
        "ms",
    );
    for rate in crate::RATES {
        let name = format!("loadgen.achieved_qps.{}", crate::rate_label(rate));
        push(&name, plain.wire.achieved_qps(rate), "1/s");
    }

    // Tracing overhead on the workload's headline metric.
    let overhead = match headline {
        "qps" => 1.0 - traced.batch.qps() / plain.batch.qps(),
        _ => {
            let p50 = |p: &Pass| p.wire.latency(25_000.0).p50;
            p50(traced) / p50(plain) - 1.0
        }
    };
    push("trace.overhead", overhead, "ratio");
    m
}
