//! The wire surface: `NetServer` over loopback TCP in this process, in
//! front of `LiveDeployment` → `CachedDeployment` → `ShardedServer`,
//! driven open loop. Traffic comes in stretches of quarter-second
//! segments, each at one offered rate; the rates take turns, so a host
//! stall of a few seconds touches a few segments of every rate instead
//! of every segment of one. A stretch has its own server and two
//! connections, each with a sender thread following a seeded Poisson
//! schedule and a receiver thread. A request's latency runs from the
//! time it was due to the receipt of its answer, so a stall also counts
//! against the requests queued behind it. While traffic runs, the main
//! thread hot-swaps the live deployment between generations A and B.

use crate::inproc::{Served, Source};
use crate::setup::{sample_positions, Stack};
use crate::stats::{windowed, Windowed};
use crate::trace::{Recorder, Traced};
use crate::traffic::{derive, poisson_schedule, query_hash, Rng};
use neurosketch::cache::{AnswerCache, CacheStats, CachedDeployment};
use neurosketch::deploy::{Deployment, LiveDeployment};
use neurosketch::net::{decode_frame, encode_frame, Frame, NetOptions, NetServer, NetStats};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shared answer cache: 512 KiB (≈5.4k entries).
const CACHE_BYTES: usize = 512 * 1024;
const CACHE_STRIPES: usize = 8;
const CONNECTIONS: usize = 2;
/// Per-connection pending-queue bound of the server: deep enough for a
/// two-second host stall at the highest rate. With the default 1,024 a
/// stall of about 34 ms at 60k makes the server shed load with
/// queue-full rejects; a stall should show as latency, and the run
/// should fail no request.
const QUEUE_CAP: usize = 1 << 16;
/// Length of one wire segment: one offered rate.
pub const SEGMENT_NS: u64 = 250_000_000;
/// Requests a latency summary window should hold: well over the 1,000
/// a p99 with ten samples beyond it needs, even for a Poisson draw.
const WINDOW_REQUESTS: usize = 1_500;
/// Every segment at this rate (one in three wire segments, so every
/// 0.75 s of wire traffic) gets a hot swap, [`SWAP_OFFSET_NS`] after it
/// starts. One rate only, so the post-swap tails a run summarizes come
/// from one population, not from two whose boundary the summary would
/// fall on.
const SWAP_RATE: f64 = 25_000.0;
const SWAP_OFFSET_NS: u64 = 50_000_000;
/// Answers later than this count as missing the latency limit.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// Requests due this soon after a swap count as post-swap.
pub const POST_SWAP_NS: u64 = 100_000_000;
/// How long receivers wait for stragglers once every request is sent.
const DRAIN: Duration = Duration::from_secs(10);
/// Lead time between connecting and the first due request.
const LEAD_NS: u64 = 20_000_000;
/// Wire answers kept per segment for the correctness and accuracy checks.
const CHECKS_PER_SEGMENT: usize = 600;

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The live wire deployment and its generation bookkeeping. Generation
/// `g` serves sharded deployment `g % 2`: even generations are A, odd
/// ones B. Every swap installs a fresh `CachedDeployment` over the one
/// shared cache, keyed by the new generation.
pub struct WireStack<'s> {
    stack: &'s Stack,
    live: Arc<LiveDeployment>,
    cache: Arc<AnswerCache>,
    rec: Option<Arc<Recorder>>,
    generation: u64,
    epoch: Instant,
    /// `(time, duration µs)` of every swap.
    pub swaps: Vec<(u64, f64)>,
}

impl<'s> WireStack<'s> {
    pub fn new(stack: &'s Stack, rec: Option<Arc<Recorder>>, epoch: Instant) -> WireStack<'s> {
        let cache = Arc::new(AnswerCache::new(CACHE_BYTES, CACHE_STRIPES));
        let live = match &rec {
            Some(r) => LiveDeployment::new(traced_front(stack, &cache, r, 0), 0),
            None => LiveDeployment::new(front(stack, &cache, 0), 0),
        };
        WireStack {
            stack,
            live: Arc::new(live),
            cache,
            rec,
            generation: 0,
            epoch,
            swaps: Vec::new(),
        }
    }

    /// Swap in the next generation and time the `swap` call.
    fn swap(&mut self) {
        let next = self.generation + 1;
        let (at, t) = match &self.rec {
            Some(r) => {
                let f = traced_front(self.stack, &self.cache, r, next);
                let (at, t) = (now_ns(self.epoch), Instant::now());
                self.live.swap(f, next);
                (at, t)
            }
            None => {
                let f = front(self.stack, &self.cache, next);
                let (at, t) = (now_ns(self.epoch), Instant::now());
                self.live.swap(f, next);
                (at, t)
            }
        };
        self.swaps.push((at, t.elapsed().as_secs_f64() * 1e6));
        self.generation = next;
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

fn front(stack: &Stack, cache: &Arc<AnswerCache>, generation: u64) -> CachedDeployment {
    let sharded = Arc::clone(&stack.sharded[(generation % 2) as usize]);
    CachedDeployment::new(sharded, Arc::clone(cache), generation)
}

fn traced_front(
    stack: &Stack,
    cache: &Arc<AnswerCache>,
    rec: &Arc<Recorder>,
    generation: u64,
) -> Traced {
    let sharded = Arc::clone(&stack.sharded[(generation % 2) as usize]);
    let inner = Traced::new("shard", sharded, rec);
    Traced::new(
        "cache",
        CachedDeployment::new(inner, Arc::clone(cache), generation),
        rec,
    )
    .with_hashes()
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    sent_ns: u64,
    recv_ns: u64,
    generation: u64,
    value: f64,
    /// 0 unanswered (lost), 1 answered, 2 rejected, 3 error frame.
    status: u8,
}

/// One wire segment: an offered rate held for [`SEGMENT_NS`].
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub rate: f64,
    pub start_ns: u64,
    /// Answers received by the segment's end plus the latency limit.
    pub on_time: usize,
    /// Answers received within the latency limit of their due time.
    pub within_limit: usize,
    pub offered: usize,
}

/// What the wire surface measured, over all of a run's segments.
#[derive(Default)]
pub struct WirePhase {
    pub segments: Vec<Segment>,
    pub offered: usize,
    pub answered: usize,
    pub rejected: usize,
    pub errors: usize,
    pub lost: usize,
    /// `(segment, due time, latency ms)` of every request; failed
    /// requests carry the time they had waited when their stretch
    /// ended.
    pub latencies: Vec<(usize, u64, f64)>,
    /// How late each request was sent, ms.
    pub late_ms: Vec<f64>,
    /// Server tallies, summed over stretches.
    pub net: NetStats,
    /// Conservation failures: per connection, sent ≠ answered +
    /// rejected; per server, its tallies disagree with the clients'.
    pub unbalanced: usize,
    pub checks: Vec<Served>,
    /// `(sent, received, query hash)` of every answered request.
    pub requests: Vec<(u64, u64, u64)>,
    stretches: u64,
}

impl WirePhase {
    /// A phase for an unmeasured warm-up: its schedules and fresh
    /// queries come from seeds the measured phase never uses.
    pub fn warm_up() -> WirePhase {
        WirePhase {
            stretches: 1 << 32,
            ..WirePhase::default()
        }
    }

    fn of_rate(&self, rate: f64) -> impl Iterator<Item = (usize, &Segment)> {
        self.segments
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.rate == rate)
    }

    /// Latency at `rate`, summarized per window and across windows.
    /// Each segment is cut into as many equal windows as still expect
    /// [`WINDOW_REQUESTS`] requests each (one window at 5k, several at
    /// the higher rates), so a short host stall spoils only the window
    /// it lands in.
    pub fn latency(&self, rate: f64) -> Windowed {
        let per_segment = rate * SEGMENT_NS as f64 / 1e9;
        let cuts = ((per_segment / WINDOW_REQUESTS as f64) as u64).max(1);
        let window_ns = SEGMENT_NS / cuts;
        let samples: Vec<(usize, f64)> = self
            .latencies
            .iter()
            .filter(|&&(seg, _, _)| self.segments[seg].rate == rate)
            .map(|&(seg, due, ms)| {
                let cut =
                    (due.saturating_sub(self.segments[seg].start_ns) / window_ns).min(cuts - 1);
                (seg * cuts as usize + cut as usize, ms)
            })
            .collect();
        windowed(&samples, 99.0)
    }

    /// The rate the schedules offered at `rate`.
    pub fn offered_qps(&self, rate: f64) -> f64 {
        self.per_second(rate, |s| s.offered)
    }

    /// Answers per second at `rate` that arrived within their segment
    /// (plus the latency limit): below the offered rate when a backlog
    /// builds.
    pub fn achieved_qps(&self, rate: f64) -> f64 {
        self.per_second(rate, |s| s.on_time)
    }

    /// Answers per second at `rate` that arrived within the latency
    /// limit of their due time.
    pub fn goodput_qps(&self, rate: f64) -> f64 {
        self.per_second(rate, |s| s.within_limit)
    }

    fn per_second(&self, rate: f64, count: impl Fn(&Segment) -> usize) -> f64 {
        let (n, segs) = self
            .of_rate(rate)
            .fold((0, 0), |(n, k), (_, s)| (n + count(s), k + 1));
        n as f64 / (segs as f64 * SEGMENT_NS as f64 / 1e9)
    }
}

fn add_stats(total: &mut NetStats, s: &NetStats) {
    total.accepted += s.accepted;
    total.closed += s.closed;
    total.queries += s.queries;
    total.answered += s.answered;
    total.rejected += s.rejected;
    total.protocol_errors += s.protocol_errors;
    total.batches += s.batches;
    total.largest_batch = total.largest_batch.max(s.largest_batch);
    total.info_requests += s.info_requests;
    total.deduped += s.deduped;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
}

/// Run one stretch of consecutive wire segments at `rates`, appending
/// to `phase`: a fresh server and [`CONNECTIONS`] fresh connections,
/// each following its own seeded Poisson schedule whose rate changes
/// from segment to segment, with a hot swap in every [`SWAP_RATE`]
/// segment.
pub fn run_stretch(
    ws: &mut WireStack,
    source: &mut Source,
    rates: &[f64],
    seed: u64,
    phase: &mut WirePhase,
) {
    let epoch = ws.epoch;
    let stretch = phase.stretches;
    phase.stretches += 1;
    let first_segment = phase.segments.len();
    // Per connection: (due offset, segment) of each request, and its query.
    type Stream = (Vec<(u64, usize)>, Vec<Vec<f64>>);
    let streams: Vec<Stream> = (0..CONNECTIONS as u64)
        .map(|c| {
            let mut due = Vec::new();
            for (k, &rate) in rates.iter().enumerate() {
                let label = (stretch << 16) | ((k as u64) << 8) | c;
                let offset = k as u64 * SEGMENT_NS;
                let seg_seed = derive(seed, 0x5C4E_0000_0000 | label);
                due.extend(
                    poisson_schedule(rate / CONNECTIONS as f64, SEGMENT_NS, seg_seed)
                        .into_iter()
                        .map(|t| (offset + t, first_segment + k)),
                );
            }
            let queries = source.queries(ws.stack, 0x3B1E_0000 | (stretch << 8) | c, 0, due.len());
            (due, queries)
        })
        .collect();

    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&ws.live),
        4,
        NetOptions {
            queue_cap: QUEUE_CAP,
            ..NetOptions::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    let shutdown = AtomicBool::new(false);
    let drain_deadline = AtomicU64::new(u64::MAX);
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to loopback server");
            s.set_nodelay(true).expect("TCP_NODELAY");
            s
        })
        .collect();
    let start_ns = now_ns(epoch) + LEAD_NS;
    for (k, &rate) in rates.iter().enumerate() {
        phase.segments.push(Segment {
            rate,
            start_ns: start_ns + k as u64 * SEGMENT_NS,
            on_time: 0,
            within_limit: 0,
            offered: 0,
        });
    }
    let swaps: Vec<u64> = (first_segment..first_segment + rates.len())
        .filter(|&seg| phase.segments[seg].rate == SWAP_RATE)
        .map(|seg| phase.segments[seg].start_ns + SWAP_OFFSET_NS)
        .collect();

    let (net, per_conn) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| {
            server.serve(&shutdown);
            server.stats()
        });
        let mut workers = Vec::new();
        for (stream, (due, queries)) in conns.into_iter().zip(&streams) {
            let reader = stream.try_clone().expect("clone socket for the receiver");
            let deadline = &drain_deadline;
            let receiver = scope.spawn(move || receive(reader, due.len(), epoch, deadline));
            let sender = scope.spawn(move || send(stream, queries, due, epoch, start_ns));
            workers.push((sender, receiver));
        }
        for &at in &swaps {
            let now = now_ns(epoch);
            if now < at {
                std::thread::sleep(Duration::from_nanos(at - now));
            }
            ws.swap();
        }
        let (sent, receivers): (Vec<Vec<u64>>, Vec<_>) = workers
            .into_iter()
            .map(|(sender, receiver)| (sender.join().expect("sender thread"), receiver))
            .unzip();
        drain_deadline.store(now_ns(epoch) + DRAIN.as_nanos() as u64, Ordering::Relaxed);
        let slots: Vec<Vec<Slot>> = receivers
            .into_iter()
            .map(|r| r.join().expect("receiver thread"))
            .collect();
        shutdown.store(true, Ordering::Relaxed);
        let net = server_thread.join().expect("server thread");
        (net, sent.into_iter().zip(slots).collect::<Vec<_>>())
    });

    let stretch_end = now_ns(epoch);
    let mut pick = Rng::new(derive(seed, 0xC4EC_0000 | stretch));
    let (mut sent_total, mut answered_total) = (0, 0);
    for ((sent_ns, mut slots), (due, queries)) in per_conn.into_iter().zip(&streams) {
        phase.offered += due.len();
        sent_total += sent_ns.len();
        for (slot, &s) in slots.iter_mut().zip(&sent_ns) {
            slot.sent_ns = s;
        }
        let (mut answered, mut rejected) = (0, 0);
        for (i, slot) in slots.iter().enumerate() {
            let (offset, seg) = due[i];
            let due_abs = start_ns + offset;
            let segment = &mut phase.segments[seg];
            segment.offered += 1;
            let waited = match slot.status {
                1 => {
                    answered += 1;
                    let deadline = segment.start_ns + SEGMENT_NS + (LATENCY_LIMIT_MS * 1e6) as u64;
                    segment.on_time += usize::from(slot.recv_ns <= deadline);
                    segment.within_limit += usize::from(
                        slot.recv_ns.saturating_sub(due_abs) <= (LATENCY_LIMIT_MS * 1e6) as u64,
                    );
                    phase
                        .requests
                        .push((slot.sent_ns, slot.recv_ns, query_hash(&queries[i])));
                    slot.recv_ns
                }
                status => {
                    match status {
                        2 => rejected += 1,
                        3 => phase.errors += 1,
                        _ => phase.lost += 1,
                    }
                    stretch_end
                }
            };
            phase
                .latencies
                .push((seg, due_abs, waited.saturating_sub(due_abs) as f64 / 1e6));
            if i < sent_ns.len() {
                phase
                    .late_ms
                    .push(sent_ns[i].saturating_sub(due_abs) as f64 / 1e6);
            }
        }
        phase.unbalanced += usize::from(sent_ns.len() != answered + rejected);
        phase.answered += answered;
        phase.rejected += rejected;
        answered_total += answered;
        let keep = CHECKS_PER_SEGMENT * rates.len() / CONNECTIONS;
        for i in sample_positions(slots.len(), keep, &mut pick) {
            if slots[i].status == 1 {
                phase.checks.push(Served {
                    query: queries[i].clone(),
                    value: slots[i].value,
                    generation: slots[i].generation,
                });
            }
        }
    }
    phase.unbalanced += usize::from(net.queries != sent_total as u64)
        + usize::from(net.answered + net.rejected != net.queries)
        + usize::from(net.answered != answered_total as u64)
        + usize::from(net.protocol_errors != 0);
    add_stats(&mut phase.net, &net);
}

/// Sender: sleep until the next request is due, then write every
/// request that is due by now in one go. Returns each request's send
/// time.
fn send(
    mut stream: TcpStream,
    queries: &[Vec<f64>],
    due: &[(u64, usize)],
    epoch: Instant,
    start_ns: u64,
) -> Vec<u64> {
    let mut sent_ns = Vec::with_capacity(due.len());
    let mut buf = Vec::new();
    let mut i = 0;
    while i < due.len() {
        let now = now_ns(epoch);
        let target = start_ns + due[i].0;
        if now < target {
            std::thread::sleep(Duration::from_nanos(target - now));
            continue;
        }
        buf.clear();
        while i < due.len() && start_ns + due[i].0 <= now {
            buf.extend_from_slice(&encode_frame(&Frame::Query {
                id: i as u64,
                query: queries[i].clone(),
            }));
            sent_ns.push(now);
            i += 1;
        }
        if stream.write_all(&buf).is_err() {
            // The requests in `buf` count as sent and, unanswered, as
            // lost; nothing after them is sent.
            break;
        }
    }
    sent_ns
}

/// Receiver: read answers until every request of the connection is
/// accounted for, or the drain deadline passes.
fn receive(mut stream: TcpStream, n: usize, epoch: Instant, deadline: &AtomicU64) -> Vec<Slot> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("socket read timeout");
    let max_payload = NetOptions::default().max_payload;
    let mut slots = vec![Slot::default(); n];
    let mut done = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = vec![0u8; 64 * 1024];
    while done < n {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(k) => {
                let now = now_ns(epoch);
                buf.extend_from_slice(&tmp[..k]);
                let mut pos = 0;
                loop {
                    let frame = match decode_frame(&buf[pos..], max_payload) {
                        Ok(Some((frame, used))) => {
                            pos += used;
                            frame
                        }
                        Ok(None) => break,
                        // A corrupt frame or an error frame ends the
                        // connection: every request still open on it
                        // has failed.
                        Err(_) => return fail_open(slots),
                    };
                    let (id, slot) = match frame {
                        Frame::Answer {
                            id,
                            generation,
                            value,
                        } => (
                            id,
                            Slot {
                                recv_ns: now,
                                generation,
                                value,
                                status: 1,
                                ..Slot::default()
                            },
                        ),
                        Frame::Reject { id, .. } => (
                            id,
                            Slot {
                                recv_ns: now,
                                status: 2,
                                ..Slot::default()
                            },
                        ),
                        Frame::Error { .. } => return fail_open(slots),
                        _ => continue,
                    };
                    if let Some(s) = slots.get_mut(id as usize) {
                        if s.status == 0 {
                            *s = slot;
                            done += 1;
                        }
                    }
                }
                buf.drain(..pos);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if now_ns(epoch) > deadline.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    slots
}

fn fail_open(mut slots: Vec<Slot>) -> Vec<Slot> {
    for s in slots.iter_mut().filter(|s| s.status == 0) {
        s.status = 3;
    }
    slots
}

/// Compare every kept wire answer bitwise with the answer of the
/// generation that served it, computed directly by that generation's
/// `ShardedServer` (one `answer_batch` per generation). Answers stamped
/// with a generation that was never live count as mismatches too.
pub fn mismatches(stack: &Stack, checks: &[Served], last_generation: u64) -> usize {
    let mut bad = checks
        .iter()
        .filter(|s| s.generation > last_generation)
        .count();
    for parity in 0..2u64 {
        let kept: Vec<&Served> = checks
            .iter()
            .filter(|s| s.generation <= last_generation && s.generation % 2 == parity)
            .collect();
        let queries: Vec<Vec<f64>> = kept.iter().map(|s| s.query.clone()).collect();
        let (direct, _) = stack.sharded[parity as usize].answer_batch(&queries);
        bad += kept
            .iter()
            .zip(&direct)
            .filter(|(s, d)| s.value.to_bits() != d.to_bits())
            .count();
    }
    bad
}

impl WireStack<'_> {
    pub fn generation(&self) -> u64 {
        self.generation
    }
}
