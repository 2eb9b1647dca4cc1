//! The shared set-up: one dataset, one training workload, and every
//! deployment the workloads serve, built, persisted and loaded back the
//! way a server would before taking traffic.
//!
//! The deployments do not depend on the run's seed — only the traffic
//! does — so every run of every workload serves the same models.

use crate::traffic::{uniform_queries, workload_config, Rng};
use datagen::simple::drift_batch;
use datagen::{Dataset, PaperDataset};
use neurosketch::maintenance::retrain_shards;
use neurosketch::persist;
use neurosketch::router::{range_volume, DqdRouter, Route, RoutingPolicy};
use neurosketch::serve::{ExactBackend, ServeOptions, SketchServer};
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer};
use neurosketch::{CachePolicy, NeuroSketch, NeuroSketchConfig};
use query::predicate::Range;
use query::{Aggregate, QueryEngine, Workload};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the Veraset-like table.
const DATA_SEED: u64 = 42;
/// Seed of the 4,000 training queries. Traffic seeds are derived from
/// `--seed` through [`crate::traffic::derive`] and checked disjoint.
const TRAIN_SEED: u64 = 1;
const TRAIN_QUERIES: usize = 4_000;
/// Seed of the drift delta that turns generation A into B.
const DRIFT_SEED: u64 = 5;
/// Rows in the drift delta (10% of the table).
const DRIFT_ROWS: usize = 2_000;
/// Measure column of `PaperDataset::Vs`: visit duration.
pub const MEASURE: usize = 2;
/// Active attributes (lat, lon): the range rule's volume is over these.
pub const ACTIVE: usize = 2;
/// Worker threads of every serving front.
pub const SERVE_THREADS: usize = 2;
/// The DQD range rule: ranges with a smaller lat × lon volume go exact.
const MIN_RANGE_VOLUME: f64 = 0.001;
const SHARDS: usize = 2;

/// Timings the set-up took, from the library's own reports where it
/// gives them.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildFigures {
    pub label_s: f64,
    pub partition_s: f64,
    pub train_s: f64,
    pub epochs: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub retrain_s: f64,
}

/// Everything the workloads serve and check against.
pub struct Stack {
    pub predicate: &'static Range,
    /// Exact engine over generation A's table (and the monolithic
    /// server's fallback).
    pub engine_a: &'static QueryEngine<'static>,
    /// Exact engine over generation B's table (A plus the drift delta).
    pub engine_b: &'static QueryEngine<'static>,
    /// The in-process DQD server: NSK2-decoded router, exact fallback.
    pub server: Arc<SketchServer<'static>>,
    /// The same artifact behind a single-thread server, for replay.
    pub router_nsk2: bytes::Bytes,
    /// The two sharded generations the wire stack alternates between.
    pub sharded: [Arc<ShardedServer>; 2],
    /// Hashes of the training queries (traffic must avoid them).
    pub train: HashSet<u64>,
    pub cfg: NeuroSketchConfig,
    pub figures: BuildFigures,
    /// NSK2 bytes of every served sketch: the router artifact plus
    /// both sharded generations' artifacts.
    pub artifact_bytes: usize,
}

fn serve_options(threads: usize, active_attrs: Option<usize>) -> ServeOptions {
    ServeOptions {
        threads,
        max_shard: 1024,
        active_attrs,
        layout: true,
        cache: CachePolicy::OFF,
    }
}

fn leak<T>(value: T) -> &'static T {
    Box::leak(Box::new(value))
}

/// Build every deployment from scratch, persisting through `work`.
pub fn build(work: &Path) -> Stack {
    let (data, _) = PaperDataset::Vs.generate(1.0, DATA_SEED).normalized();
    let data: &'static Dataset = leak(data);
    let wl: Workload =
        Workload::generate(&workload_config(TRAIN_QUERIES, TRAIN_SEED)).expect("training workload");
    let predicate: &'static Range = leak(wl.predicate.clone());
    let engine_a: &'static QueryEngine<'static> = leak(QueryEngine::new(data, MEASURE));
    let cfg = NeuroSketchConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..NeuroSketchConfig::default()
    };

    // Monolithic sketch behind the DQD router, through NSK2 and back.
    let (sketch, report) =
        NeuroSketch::build(engine_a, predicate, Aggregate::Avg, &wl.queries, &cfg)
            .expect("monolithic build");
    let policy = RoutingPolicy {
        min_range_volume: MIN_RANGE_VOLUME,
        ..RoutingPolicy::default()
    };
    let router = DqdRouter::new(sketch, report.leaf_aqcs.clone(), policy);
    let t = Instant::now();
    let router_nsk2 = persist::encode_router(&router);
    let mut encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let router = persist::decode(router_nsk2.clone())
        .expect("router artifact decodes")
        .into_router();
    let mut decode_ms = t.elapsed().as_secs_f64() * 1e3;
    let fallback = ExactBackend {
        engine: engine_a,
        predicate,
        aggregate: Aggregate::Avg,
    };
    let server =
        SketchServer::with_fallback(router, fallback, serve_options(SERVE_THREADS, Some(ACTIVE)));

    // Generation A: two round-robin shards, count + sum models each.
    let plan = ShardPlan::RoundRobin { shards: SHARDS };
    let (sharded_a, _) = build_sharded(
        data,
        MEASURE,
        &plan,
        predicate,
        Aggregate::Avg,
        &wl.queries,
        &cfg,
    )
    .expect("sharded build");
    let t = Instant::now();
    let manifest_a = persist::save_sharded(work.join("gen_a"), &sharded_a).expect("save A");
    encode_ms += t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let loaded_a = persist::load_sharded(&manifest_a).expect("load A");
    decode_ms += t.elapsed().as_secs_f64() * 1e3;

    // Generation B: a drift delta lands, shard 0 is retrained on the
    // grown table and the partial refresh is persisted as the next
    // manifest generation; shard 1 keeps A's models.
    let delta = drift_batch(DRIFT_ROWS, data.dims(), 1.0, 0.2, DRIFT_SEED);
    let delta = Dataset::new(data.column_names().to_vec(), delta.raw().to_vec())
        .expect("drift delta has the table's shape");
    let mut grown = data.clone();
    grown.append(&delta).expect("drift delta");
    let grown: &'static Dataset = leak(grown);
    let mut sharded_b = sharded_a;
    let t = Instant::now();
    retrain_shards(
        &mut sharded_b,
        grown,
        MEASURE,
        predicate,
        &wl.queries,
        &cfg,
        &[0],
    )
    .expect("retrain stale shard");
    let retrain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let manifest_b = persist::save_refreshed(&manifest_a, &sharded_b, &[0]).expect("save B");
    encode_ms += t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let loaded_b = persist::load_sharded(&manifest_b).expect("load B");
    decode_ms += t.elapsed().as_secs_f64() * 1e3;

    let artifact_bytes = router_nsk2.len() + loaded_a.artifact_bytes() + loaded_b.artifact_bytes();
    let sharded = [loaded_a, loaded_b]
        .map(|s| Arc::new(ShardedServer::new(s, serve_options(SERVE_THREADS, None))));
    let epochs = report
        .train_reports
        .iter()
        .map(|r| r.epochs_run as f64)
        .sum::<f64>()
        / report.train_reports.len().max(1) as f64;
    Stack {
        predicate,
        engine_a,
        engine_b: leak(QueryEngine::new(grown, MEASURE)),
        server: Arc::new(server),
        router_nsk2,
        sharded,
        train: wl
            .queries
            .iter()
            .map(|q| crate::traffic::query_hash(q))
            .collect(),
        cfg,
        figures: BuildFigures {
            label_s: report.labeling.as_secs_f64(),
            partition_s: report.partitioning.as_secs_f64(),
            train_s: report.training.as_secs_f64(),
            epochs,
            encode_ms,
            decode_ms,
            retrain_s,
        },
        artifact_bytes,
    }
}

impl Stack {
    /// Traffic queries for `seed`, checked disjoint from training.
    pub fn fresh_queries(&self, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let qs = uniform_queries(count, seed);
        assert!(
            qs.iter()
                .all(|q| !self.train.contains(&crate::traffic::query_hash(q))),
            "a traffic query repeats a training query"
        );
        qs
    }

    /// The in-process server's answer to `q`, computed query by query
    /// along the route its router picks: the forward pass of the sketch
    /// or the exact engine.
    pub fn direct_dqd(&self, q: &[f64]) -> f64 {
        let router = self.server.router();
        match router.route(q, Some(range_volume(q, ACTIVE))) {
            Route::Sketch => router.sketch().answer(q),
            _ => self.engine_a.answer(self.predicate, Aggregate::Avg, q),
        }
    }

    /// The exact answer over generation `gen`'s table.
    pub fn exact(&self, q: &[f64], gen_b: bool) -> f64 {
        let engine = if gen_b { self.engine_b } else { self.engine_a };
        engine.answer(self.predicate, Aggregate::Avg, q)
    }

    /// A single-thread server over the same artifact, for replaying
    /// batches without the worker fan-out.
    pub fn single_thread_server(&self) -> SketchServer<'static> {
        let router = persist::decode(self.router_nsk2.clone())
            .expect("router artifact decodes")
            .into_router();
        let fallback = ExactBackend {
            engine: self.engine_a,
            predicate: self.predicate,
            aggregate: Aggregate::Avg,
        };
        SketchServer::with_fallback(router, fallback, serve_options(1, Some(ACTIVE)))
    }
}

/// Pick `k` distinct positions out of `0..n`, seeded.
pub fn sample_positions(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut picked: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}
