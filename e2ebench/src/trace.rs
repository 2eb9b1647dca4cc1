//! Spans recorded at `Deployment` boundaries by benchmark-owned
//! forwarding wrappers. Nothing inside the program is instrumented:
//! [`Traced`] wraps a deployment, stamps the call into it on the
//! process clock shared with the load generator, and keeps the span in
//! memory until the run writes it out.

use crate::traffic::query_hash;
use neurosketch::deploy::{DeployStats, Deployment, DeploymentInfo};
use query::aggregate::Moments;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that made this call, when it was made from inside
    /// another traced span on the same thread.
    pub parent: Option<u64>,
    /// Id of the outermost span of the call tree: every span of one
    /// batch shares it.
    pub batch: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub queries: usize,
    pub stats: DeployStats,
    /// Sorted query hashes, kept only where requests are matched to
    /// the batch that served them.
    pub hashes: Vec<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn contains(&self, hash: u64) -> bool {
        self.hashes.binary_search(&hash).is_ok()
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children's intervals cover (overlaps counted once, parts
/// outside the span ignored).
pub fn self_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// The in-memory span store and the process clock every stamp of a run
/// is read from.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// (span id, batch id) of the traced call in progress on this thread.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

impl Recorder {
    pub fn new(epoch: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"batch\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"queries\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"dedup_hits\":{},\"exact\":{},\"model_batches\":{}}}",
                s.id,
                s.batch,
                s.name,
                s.start_ns,
                s.end_ns,
                s.queries,
                s.stats.cache_hits,
                s.stats.cache_misses,
                s.stats.dedup_hits,
                s.stats.exact_small_range + s.stats.exact_hard_leaf,
                s.stats.model_batches,
            )?;
        }
        out.flush()
    }
}

/// A forwarding [`Deployment`] that records one span per
/// `answer_batch` call into the wrapped deployment.
pub struct Traced {
    name: &'static str,
    inner: Box<dyn Deployment>,
    rec: Arc<Recorder>,
    keep_hashes: bool,
}

impl Traced {
    pub fn new(
        name: &'static str,
        inner: impl Deployment + 'static,
        rec: &Arc<Recorder>,
    ) -> Traced {
        Traced {
            name,
            inner: Box::new(inner),
            rec: Arc::clone(rec),
            keep_hashes: false,
        }
    }

    /// Also keep the batch's query hashes, so requests can be matched
    /// to the call that served them.
    pub fn with_hashes(mut self) -> Traced {
        self.keep_hashes = true;
        self
    }
}

impl Deployment for Traced {
    fn answer_batch(&self, queries: &[Vec<f64>]) -> (Vec<f64>, DeployStats) {
        let id = self.rec.next.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.get();
        let batch = parent.map_or(id, |(_, b)| b);
        CURRENT.set(Some((id, batch)));
        let start_ns = self.rec.now_ns();
        let (answers, stats) = self.inner.answer_batch(queries);
        let end_ns = self.rec.now_ns();
        CURRENT.set(parent);
        let mut hashes = Vec::new();
        if self.keep_hashes {
            hashes = queries.iter().map(|q| query_hash(q)).collect();
            hashes.sort_unstable();
        }
        self.rec
            .spans
            .lock()
            .expect("span store poisoned")
            .push(Span {
                id,
                parent: parent.map(|(p, _)| p),
                batch,
                name: self.name,
                start_ns,
                end_ns,
                queries: queries.len(),
                stats,
                hashes,
            });
        (answers, stats)
    }

    fn moments_batch(&self, queries: &[Vec<f64>]) -> Option<Vec<Moments>> {
        self.inner.moments_batch(queries)
    }

    fn describe(&self) -> DeploymentInfo {
        self.inner.describe()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_ns((10, 110), &[]), 100);
        // Disjoint children.
        assert_eq!(self_ns((10, 110), &[(20, 30), (50, 70)]), 70);
        // Overlapping children count once.
        assert_eq!(self_ns((10, 110), &[(20, 60), (40, 80)]), 40);
        // Children sticking out of the span are clipped to it.
        assert_eq!(self_ns((10, 110), &[(0, 20), (100, 200)]), 80);
        // A child outside the span does not count at all.
        assert_eq!(self_ns((10, 110), &[(200, 300)]), 100);
        // A child covering everything leaves nothing.
        assert_eq!(self_ns((10, 110), &[(0, 500), (20, 30)]), 0);
    }

    /// A deployment that answers each query with its first coordinate.
    struct Echo;

    impl Deployment for Echo {
        fn answer_batch(&self, queries: &[Vec<f64>]) -> (Vec<f64>, DeployStats) {
            let stats = DeployStats {
                queries: queries.len(),
                ..DeployStats::default()
            };
            (queries.iter().map(|q| q[0]).collect(), stats)
        }
        fn moments_batch(&self, _: &[Vec<f64>]) -> Option<Vec<Moments>> {
            None
        }
        fn describe(&self) -> DeploymentInfo {
            unimplemented!("not used by the test")
        }
        fn storage_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn nested_wrappers_record_parent_and_batch() {
        let rec = Recorder::new(Instant::now());
        let outer = Traced::new("outer", Traced::new("inner", Echo, &rec), &rec).with_hashes();
        let qs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let (answers, _) = outer.answer_batch(&qs);
        assert_eq!(answers, vec![1.0, 3.0]);
        outer.answer_batch(&qs[..1]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let (outers, inners): (Vec<&Span>, Vec<&Span>) =
            spans.iter().partition(|s| s.name == "outer");
        for (o, i) in outers.iter().zip(&inners) {
            assert_eq!(o.parent, None);
            assert_eq!(o.batch, o.id);
            assert_eq!(i.parent, Some(o.id));
            assert_eq!(i.batch, o.id);
            assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
            assert!(i.hashes.is_empty());
        }
        assert!(outers[0].contains(query_hash(&qs[1])));
        assert!(!outers[1].contains(query_hash(&qs[1])));
    }
}
