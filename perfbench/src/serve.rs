//! The serving phase: `component_grid`'s 16 disjoint parts in a
//! `ShardedStore` (2 shards, 1 reader, per-shard writers, no admission
//! watermarks) behind `NetFrontend` on loopback, driven open loop over
//! one connection by a sender and a receiver thread.
//!
//! Every request is timed from its scheduled send. Probe updates
//! (inserting, then removing, an edge that joins two parts of one
//! shard) measure how long an accepted update takes to show in
//! answers. After the window the writers are drained and sampled
//! queries sent over the wire are checked against Sequential BCC plus
//! `bcc_query::naive` on the initial graph with exactly the accepted
//! updates applied.

use crate::stats::{median, ms, quantile, ticks, windowed_quantile, Lcg, Ticks, MIN_QUIET};
use crate::trace::{SpanId, Tracer};
use crate::{Metrics, Scale, Workload};
use bcc_core::{Algorithm, BccConfig};
use bcc_graph::{Csr, Edge, Graph, GraphBuilder};
use bcc_query::{naive, Answer, EdgeUpdate, Failure, Query};
use bcc_serve::{
    Daemon, NetClient, NetFrontend, Profile, RejectReason, Request, Response, ServeConfig,
    ShardedStore, Writers,
};
use bcc_smp::Pool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PARTS: u32 = 16;
/// Sampled queries checked over the wire after the writers drain.
const VERIFY_QUERIES: usize = 1000;
/// How long unanswered requests are waited for after the window.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Probe queries are re-sent this often while a probe is not yet visible.
const PROBE_POLL: Duration = Duration::from_millis(1);
/// The next probe goes out this long after the previous one showed.
const PROBE_GAP: Duration = Duration::from_millis(10);
/// The serving tails are the median over the quiet spans this long of
/// each span's percentile.
const TAIL_WINDOW: Duration = Duration::from_secs(2);
/// The window runs on, the open-loop stream included, for at most this
/// long while it has fewer than `Scale::min_probes` completed probes
/// or fewer than `MIN_QUIET` quiet spans.
const EXTENSION: Duration = Duration::from_secs(12);

/// A served graph: `PARTS` disjoint components on contiguous id ranges
/// `(lo, len)`.
struct Served {
    graph: Graph,
    parts: Vec<(u32, u32)>,
}

/// `component_grid(16 parts)`, served on every workload: 16 disjoint
/// components of `part_n` vertices, each a cycle plus random chords.
fn served_graph(seed: u64, scale: Scale) -> Served {
    let part_n = scale.part_n();
    let n = part_n * PARTS;
    Served {
        graph: bcc_serve::component_grid(n, PARTS, seed),
        parts: (0..PARTS).map(|c| (c * part_n, part_n)).collect(),
    }
}

/// The `churn-heavy` operation mix (90% queries, 10% updates) over the
/// parts: each operation stays inside one part, updates toggle chords.
struct Mix {
    parts: Vec<(u32, u32)>,
    rng: Lcg,
    toggles: Vec<Vec<(u32, u32)>>,
    read_per_myriad: u64,
}

enum Op {
    Query(Query),
    Update(EdgeUpdate),
}

impl Mix {
    fn new(parts: &[(u32, u32)], seed: u64) -> Self {
        Mix {
            parts: parts.to_vec(),
            rng: Lcg::new(seed),
            toggles: vec![Vec::new(); parts.len()],
            read_per_myriad: (Profile::ChurnHeavy.read_fraction() * 10_000.0) as u64,
        }
    }

    fn vert(&mut self, c: usize) -> u32 {
        let (lo, len) = self.parts[c];
        lo + self.rng.below(u64::from(len)) as u32
    }

    fn part(&mut self) -> usize {
        self.rng.below(self.parts.len() as u64) as usize
    }

    fn query(&mut self) -> Query {
        let c = self.part();
        let (u, v, x) = (self.vert(c), self.vert(c), self.vert(c));
        match self.rng.below(100) {
            0..=24 => Query::Connected(u, v),
            25..=54 => Query::SameBlock(u, v),
            55..=69 => Query::IsArticulation(x),
            70..=79 => Query::IsBridge(u, v),
            80..=94 => Query::SurvivesFailure(u, v, Failure::Vertex(x)),
            _ => Query::VertexCutBetween(u, v),
        }
    }

    fn next(&mut self) -> Op {
        if self.rng.below(10_000) < self.read_per_myriad {
            return Op::Query(self.query());
        }
        let c = self.part();
        let toggled = self.toggles[c].len();
        if toggled > 0 && self.rng.below(2) == 0 {
            let i = self.rng.below(toggled as u64) as usize;
            let (u, v) = self.toggles[c].swap_remove(i);
            return Op::Update(EdgeUpdate::Remove(u, v));
        }
        loop {
            let (u, v) = (self.vert(c), self.vert(c));
            if u != v {
                self.toggles[c].push((u, v));
                return Op::Update(EdgeUpdate::Insert(u, v));
            }
        }
    }
}

/// Request kinds; probe requests carry their lane.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Kind {
    Read,
    Update,
    ProbeUpdate(usize),
    ProbeQuery(usize),
}

struct Rec {
    kind: Kind,
    /// Scheduled send time (probe queries: actual send time).
    at: Instant,
    update: Option<EdgeUpdate>,
}

#[derive(Copy, Clone)]
enum Outcome {
    Answer,
    Accepted,
    Rejected(RejectReason),
}

struct Pending {
    id: u64,
    sent: Instant,
    expect_connected: bool,
}

/// One probe lane: a pair of parts in one shard, toggled one probe at
/// a time.
#[derive(Default)]
struct Lane {
    pending: Option<Pending>,
    inserted: bool,
    /// Earliest time the next probe may go out (`None`: at once).
    next_at: Option<Instant>,
}

impl Lane {
    /// The pending probe is settled at `now`; the next one may go out
    /// `PROBE_GAP` later.
    fn settle(&mut self, now: Instant) {
        self.pending = None;
        self.next_at = Some(now + PROBE_GAP);
    }
}

struct ProbeState {
    lanes: Vec<Lane>,
    /// Each probe's send time and the milliseconds until an answer
    /// reflected it.
    visible_ms: Vec<(Instant, f64)>,
}

struct Shared {
    records: Mutex<Vec<Rec>>,
    probe: Mutex<ProbeState>,
    /// Response arrival time and kind, indexed by request id.
    outcomes: Mutex<Vec<Option<(Instant, Outcome)>>>,
    received: AtomicU64,
}

fn config() -> ServeConfig {
    ServeConfig::builder()
        .readers(1)
        .writers(Writers::PerShard)
        .build()
}

struct Server {
    frontend: NetFrontend,
    client: NetClient,
}

/// `ShardedStore::new` + `Daemon::spawn` + `NetFrontend::spawn`, up to
/// the first answer over the socket.
fn start_server(pool: &Pool, g: &Graph, tracer: &Tracer, root: SpanId) -> Server {
    tracer.span("serve: set-up", root, |parent| {
        let store = tracer.span("serve: ShardedStore::new", parent, |_| {
            ShardedStore::new(pool, g, 2).expect("build sharded store")
        });
        let daemon = tracer.span("serve: Daemon::spawn", parent, |_| {
            Daemon::spawn(Arc::new(store), config())
        });
        let frontend = tracer.span("serve: NetFrontend::spawn", parent, |_| {
            NetFrontend::spawn(daemon, "127.0.0.1:0").expect("bind loopback")
        });
        let mut client = NetClient::connect(frontend.local_addr()).expect("connect");
        let first = client
            .call(&Request::Query {
                id: 0,
                query: Query::Connected(0, 0),
            })
            .expect("first answer");
        assert!(
            matches!(first, Response::Answer { .. }),
            "first request answered"
        );
        Server { frontend, client }
    })
}

pub struct ServeOut {
    pub metrics: Metrics,
    pub setup: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sampled answers that disagreed with the reference.
    pub wrong: u64,
    pub cpu_s: f64,
    /// Machine ticks elapsed over the timed window.
    pub window: Ticks,
}

#[allow(clippy::too_many_arguments)]
pub fn run_serve(
    w: Workload,
    seed: u64,
    scale: Scale,
    budget: Duration,
    setup_reps: usize,
    tracer: &Tracer,
    root: SpanId,
    inject_wrong_answer: bool,
) -> ServeOut {
    let served = tracer.span("bench: generate served graph", root, |_| {
        served_graph(seed, scale)
    });
    let pool = Pool::new(1);
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..setup_reps.max(1) {
        if let Some(old) = server.take() {
            drop(old.client);
            old.frontend.shutdown();
        }
        let t = Instant::now();
        server = Some(start_server(&pool, &served.graph, tracer, root));
        setup.push(t.elapsed().as_secs_f64());
    }
    let Server { frontend, client } = server.expect("at least one set-up");
    let mut attempted = setup.len() as u64;
    let mut failed = 0u64;

    // One probe lane per shard: the first vertices of two parts living
    // in that shard, so a probe joins or splits two components without
    // a migration, and both shards' writers are probed.
    let store = Arc::clone(frontend.daemon().store());
    let probe_pairs: Vec<(u32, u32)> = (0..store.num_shards())
        .filter_map(|s| {
            let mut firsts = served
                .parts
                .iter()
                .map(|&(lo, _)| lo)
                .filter(|&lo| store.shard_of(lo) == s);
            Some((firsts.next()?, firsts.next()?))
        })
        .collect();
    assert!(!probe_pairs.is_empty(), "two parts share a shard");

    let shared = Arc::new(Shared {
        records: Mutex::new(Vec::new()),
        probe: Mutex::new(ProbeState {
            lanes: probe_pairs.iter().map(|_| Lane::default()).collect(),
            visible_ms: Vec::new(),
        }),
        outcomes: Mutex::new(Vec::new()),
        received: AtomicU64::new(0),
    });
    let receiver = {
        let mut conn = client.try_clone().expect("clone connection");
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || receive(&mut conn, &shared))
    };
    let sender = {
        let mut conn = client.try_clone().expect("clone connection");
        let shared = Arc::clone(&shared);
        let parts = served.parts.clone();
        let pairs = probe_pairs.clone();
        std::thread::spawn(move || drive(&mut conn, &shared, &parts, seed, scale, budget, &pairs))
    };
    let window = tracer.span("serve: open loop", root, |_| {
        sender.join().expect("sender thread")
    });
    let sent = shared.records.lock().expect("records").len() as u64;
    let drain_start = Instant::now();
    while shared.received.load(Ordering::Acquire) < sent && drain_start.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_end = Instant::now();

    // The window's connection stays with the receiver until shutdown;
    // cleanup and verification use a second one.
    let mut client2 = NetClient::connect(frontend.local_addr()).expect("connect");
    // Leave every probe pair split, then let every writer drain.
    let mut cleanups = Vec::new();
    for &(a, b) in &probe_pairs {
        let update = EdgeUpdate::Remove(a, b);
        let ok = matches!(
            client2.call(&Request::Update { id: 0, update }),
            Ok(Response::Accepted { .. })
        );
        attempted += 1;
        failed += u64::from(!ok);
        if ok {
            cleanups.push(update);
        }
    }
    let quiesce = Instant::now();
    while frontend.daemon().update_backlog() > 0 && quiesce.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
    }

    let (wrong, checked) = tracer.span("bench: verify sampled answers", root, |_| {
        let mut accepted: Vec<EdgeUpdate> = {
            let records = shared.records.lock().expect("records");
            let outcomes = shared.outcomes.lock().expect("outcomes");
            records
                .iter()
                .zip(outcomes.iter().chain(std::iter::repeat(&None)))
                .filter(|(_, o)| matches!(o, Some((_, Outcome::Accepted))))
                .filter_map(|(r, _)| r.update)
                .collect()
        };
        accepted.extend(cleanups);
        verify(&mut client2, &served, &accepted, seed, inject_wrong_answer)
    });
    attempted += checked;
    failed += wrong;

    let answer_us = if tracer.on() {
        tracer.span("query: Snapshot answers", root, |_| {
            answer_direct(&store, &served.parts, seed)
        })
    } else {
        0.0
    };
    drop((client, client2));
    let report = tracer.span("serve: NetFrontend::shutdown", root, |_| {
        frontend.shutdown()
    });
    receiver.join().expect("receiver thread");
    let records = shared.records.lock().expect("records");
    let outcomes = shared.outcomes.lock().expect("outcomes");
    let probe = shared.probe.lock().expect("probe state");

    let mut refused: HashMap<&'static str, u64> = HashMap::new();
    let mut unanswered = 0u64;
    let (mut reads, mut acks) = (Vec::new(), Vec::new());
    for (id, r) in records.iter().enumerate() {
        let got = outcomes.get(id).copied().flatten();
        match got {
            Some((_, Outcome::Rejected(reason))) => *refused.entry(reason.name()).or_default() += 1,
            None => unanswered += 1,
            _ => {}
        }
        // A failed request counts as a miss: it is charged the whole
        // wait up to the end of the drain.
        let latency = match got {
            Some((t, Outcome::Answer | Outcome::Accepted)) => ms(t - r.at),
            _ => ms(drain_end - r.at),
        };
        let latency = (r.at - window.start, latency);
        match r.kind {
            Kind::Read => reads.push(latency),
            Kind::Update => acks.push(latency),
            Kind::ProbeUpdate(_) | Kind::ProbeQuery(_) => {}
        }
    }
    let refusals: u64 = refused.values().sum();
    attempted += records.len() as u64;
    failed += refusals + unanswered;
    if refusals + unanswered + wrong > 0 {
        eprintln!(
            "perfbench: serve failures: refused {refused:?}, unanswered {unanswered}, wrong answers {wrong}"
        );
    }
    // A probe still pending when the window closed is a miss too.
    let mut visible = probe.visible_ms.clone();
    for p in probe.lanes.iter().filter_map(|l| l.pending.as_ref()) {
        visible.push((p.sent, ms(drain_end - p.sent)));
    }
    let visible: Vec<(Duration, f64)> = visible
        .into_iter()
        .map(|(sent, v)| (sent - window.start, v))
        .collect();
    let read_ms: Vec<f64> = reads.iter().map(|r| r.1).collect();
    if visible.len() < scale.min_probes() {
        eprintln!(
            "perfbench: only {} visibility probes completed (at least {} needed)",
            visible.len(),
            scale.min_probes()
        );
        failed += 1;
    }

    let mut metrics = Metrics::new();
    if !tracer.on() {
        let spans = &window.quiet_spans;
        let tail = |xs: &[(Duration, f64)], q, quiet: &[bool]| {
            windowed_quantile(xs, TAIL_WINDOW, q, quiet)
        };
        metrics.push("read_p99_ms", tail(&reads, 0.99, spans), "ms");
        metrics.push("update_ack_p99_ms", tail(&acks, 0.99, spans), "ms");
        metrics.push("visible_p95_ms", tail(&visible, 0.95, spans), "ms");
        let all = vec![true; spans.len()];
        eprintln!(
            "perfbench: {} of {} serving spans quiet; over every span: read p99 {:.3} ms, update ack p99 {:.3} ms, visible p95 {:.3} ms",
            spans.iter().filter(|&&q| q).count(),
            spans.len(),
            tail(&reads, 0.99, &all),
            tail(&acks, 0.99, &all),
            tail(&visible, 0.95, &all),
        );
    } else {
        let q_ms = |h: &bcc_serve::LatencyHistogram, q: f64| h.quantile(q) as f64 / 1e6;
        let queue_full = refused.get(RejectReason::QueueFull.name()).copied();
        metrics.push("serve.read_p50_ms", median(&read_ms), "ms");
        metrics.push("serve.probes", visible.len() as f64, "count");
        metrics.push("serve.server_p50_ms", q_ms(&report.latency, 0.50), "ms");
        metrics.push("serve.server_p99_ms", q_ms(&report.latency, 0.99), "ms");
        metrics.push(
            "serve.refused_queue_full",
            queue_full.unwrap_or(0) as f64,
            "count",
        );
        metrics.push("serve.shed", report.shed_updates as f64, "count");
        metrics.push("serve.migrations", report.migrations as f64, "count");
        metrics.push(
            "serve.gen_late_p99_ms",
            quantile(&window.lateness_ms, 0.99),
            "ms",
        );
        metrics.push("query.answer_us", answer_us, "us");
        metrics.push(
            "query.commit_p50_ms",
            q_ms(&report.commit_latency, 0.50),
            "ms",
        );
        metrics.push(
            "query.commit_p99_ms",
            q_ms(&report.commit_latency, 0.99),
            "ms",
        );
        let per_commit = report.updates_applied as f64 / report.commits.max(1) as f64;
        metrics.push("query.updates_per_commit", per_commit, "count");
        metrics.push(
            "query.snapshot_age_p99_ms",
            q_ms(&report.lag_wall, 0.99),
            "ms",
        );
    }
    eprintln!(
        "serve ({}): {} requests in {:.1}s at {:.0}/s offered, {} probes, read p50 {:.3} ms, generator late p99 {:.3} ms",
        w.name(),
        records.len(),
        window.elapsed.as_secs_f64(),
        scale.rate(),
        visible.len(),
        median(&read_ms),
        quantile(&window.lateness_ms, 0.99),
    );
    ServeOut {
        metrics,
        setup,
        attempted,
        failed,
        wrong,
        cpu_s: window.cpu_s,
        window: window.ticks,
    }
}

/// The receiver: correlates responses by id until the server hangs up
/// (the connection outlives the window until shutdown).
fn receive(conn: &mut NetClient, shared: &Shared) {
    while let Ok(Some(resp)) = conn.recv() {
        let now = Instant::now();
        let id = resp.id() as usize;
        let outcome = match &resp {
            Response::Answer { .. } => Outcome::Answer,
            Response::Accepted { .. } => Outcome::Accepted,
            Response::Rejected { reason, .. } => Outcome::Rejected(*reason),
        };
        let Some(kind) = shared
            .records
            .lock()
            .expect("records")
            .get(id)
            .map(|r| r.kind)
        else {
            continue;
        };
        {
            let mut outcomes = shared.outcomes.lock().expect("outcomes");
            if outcomes.len() <= id {
                outcomes.resize(id + 1, None);
            }
            outcomes[id] = Some((now, outcome));
        }
        shared.received.fetch_add(1, Ordering::Release);
        let (Kind::ProbeQuery(lane) | Kind::ProbeUpdate(lane)) = kind else {
            continue;
        };
        let mut probe = shared.probe.lock().expect("probe state");
        let l = &mut probe.lanes[lane];
        let Some(p) = &l.pending else { continue };
        match (kind, &resp) {
            (Kind::ProbeQuery(_), Response::Answer { answer, .. })
                if id as u64 > p.id && *answer == Answer::Bool(p.expect_connected) =>
            {
                let sample = (p.sent, ms(now - p.sent));
                l.settle(now);
                probe.visible_ms.push(sample);
            }
            (Kind::ProbeUpdate(_), Response::Rejected { .. }) if id as u64 == p.id => {
                // Refused probes change nothing; the refusal itself is
                // counted with the other refusals.
                l.inserted = !l.inserted;
                l.settle(now);
            }
            _ => {}
        }
    }
}

struct Window {
    start: Instant,
    /// Whether each `TAIL_WINDOW` span of the window was quiet.
    quiet_spans: Vec<bool>,
    elapsed: Duration,
    lateness_ms: Vec<f64>,
    cpu_s: f64,
    /// Machine ticks elapsed over the window.
    ticks: Ticks,
}

/// Records a request under the next id and returns it for sending.
fn record(shared: &Shared, kind: Kind, at: Instant, make: impl FnOnce(u64) -> Request) -> Request {
    let mut records = shared.records.lock().expect("records");
    let req = make(records.len() as u64);
    let update = match req {
        Request::Update { update, .. } => Some(update),
        Request::Query { .. } => None,
    };
    records.push(Rec { kind, at, update });
    req
}

/// The sender: one scheduled operation every `1/rate` seconds until
/// `budget` has passed, then on to the end of a span once enough probes
/// have completed and enough spans were quiet (for up to `EXTENSION`
/// more); on each probe lane, a probe update `PROBE_GAP` after the
/// lane's previous probe showed, and probe queries every `PROBE_POLL`
/// while it is not yet visible.
fn drive(
    conn: &mut NetClient,
    shared: &Shared,
    parts: &[(u32, u32)],
    seed: u64,
    scale: Scale,
    budget: Duration,
    pairs: &[(u32, u32)],
) -> Window {
    let mut mix = Mix::new(parts, seed);
    let tick = Duration::from_secs_f64(1.0 / scale.rate());
    let ticks0 = ticks();
    let cpu0 = crate::stats::cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let deadline = start + budget;
    let mut last_poll = vec![start; pairs.len()];
    let mut lateness_ms = Vec::new();
    // Machine ticks at each `TAIL_WINDOW` span boundary.
    let mut marks = vec![ticks0];
    let quiet_spans = |marks: &[Ticks]| -> Vec<bool> {
        marks.windows(2).map(|w| w[1].since(w[0]).quiet()).collect()
    };
    for k in 0u32.. {
        let at = start + tick * k;
        if at >= start + TAIL_WINDOW * marks.len() as u32 {
            marks.push(ticks());
            if at >= deadline {
                let done = shared.probe.lock().expect("probe state").visible_ms.len();
                let quiet = quiet_spans(&marks).into_iter().filter(|&q| q).count();
                if (done >= scale.min_probes() && quiet >= MIN_QUIET) || at >= deadline + EXTENSION
                {
                    break;
                }
            }
        }
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let now = Instant::now();
        lateness_ms.push(ms(now.saturating_duration_since(at)));

        let probe_reqs: Vec<Request> = {
            let mut probe = shared.probe.lock().expect("probe state");
            let mut reqs = Vec::new();
            for (lane, (l, &(pa, pb))) in probe.lanes.iter_mut().zip(pairs).enumerate() {
                if l.pending.is_some() {
                    if now - last_poll[lane] >= PROBE_POLL {
                        last_poll[lane] = now;
                        let query = Query::Connected(pa, pb);
                        let kind = Kind::ProbeQuery(lane);
                        reqs.push(record(shared, kind, now, |id| Request::Query { id, query }));
                    }
                } else if l.next_at.is_none_or(|t| now >= t) {
                    let update = if l.inserted {
                        EdgeUpdate::Remove(pa, pb)
                    } else {
                        EdgeUpdate::Insert(pa, pb)
                    };
                    l.inserted = !l.inserted;
                    let kind = Kind::ProbeUpdate(lane);
                    let req = record(shared, kind, now, |id| Request::Update { id, update });
                    l.pending = Some(Pending {
                        id: req.id(),
                        sent: now,
                        expect_connected: l.inserted,
                    });
                    last_poll[lane] = now;
                    reqs.push(req);
                }
            }
            reqs
        };
        if probe_reqs.iter().any(|req| conn.send(req).is_err()) {
            break;
        }

        let req = match mix.next() {
            Op::Query(query) => record(shared, Kind::Read, at, |id| Request::Query { id, query }),
            Op::Update(update) => record(shared, Kind::Update, at, |id| Request::Update {
                id,
                update,
            }),
        };
        if conn.send(&req).is_err() {
            break;
        }
    }
    Window {
        start,
        quiet_spans: quiet_spans(&marks),
        ticks: ticks().since(ticks0),
        elapsed: start.elapsed(),
        lateness_ms,
        cpu_s: crate::stats::cpu_seconds().unwrap_or(0.0) - cpu0,
    }
}

/// Answers the query mix directly on each shard's current `Snapshot`
/// (no daemon, no socket); mean microseconds per query.
fn answer_direct(store: &ShardedStore, parts: &[(u32, u32)], seed: u64) -> f64 {
    let mut mix = Mix::new(parts, seed ^ 0xa5a5);
    let queries: Vec<Query> = (0..20_000).map(|_| mix.query()).collect();
    let snaps: Vec<_> = (0..store.num_shards())
        .map(|s| store.shard(s).load())
        .collect();
    let t = Instant::now();
    for q in &queries {
        let snap = &snaps[store.shard_of(first_vertex(q))];
        std::hint::black_box(snap.index.answer(q));
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
}

fn first_vertex(q: &Query) -> u32 {
    match *q {
        Query::Connected(u, _)
        | Query::SameBlock(u, _)
        | Query::IsArticulation(u)
        | Query::IsBridge(u, _)
        | Query::VertexCutBetween(u, _)
        | Query::SurvivesFailure(u, _, _) => u,
    }
}

/// Sends `VERIFY_QUERIES` sampled queries over the wire and checks each
/// answer against the reference: the initial graph with exactly the
/// `accepted` updates applied in order. Returns (wrong, checked).
fn verify(
    client: &mut NetClient,
    served: &Served,
    accepted: &[EdgeUpdate],
    seed: u64,
    inject_wrong_answer: bool,
) -> (u64, u64) {
    // Edge multiset of the reference graph: an insert adds an absent
    // edge, a remove takes away one copy (the store's semantics).
    let mut count: HashMap<u64, u32> = HashMap::new();
    for e in served.graph.edges() {
        *count.entry(e.key()).or_default() += 1;
    }
    for up in accepted {
        match *up {
            EdgeUpdate::Insert(u, v) if u != v => {
                let c = count.entry(Edge::new(u, v).key()).or_default();
                *c = (*c).max(1);
            }
            EdgeUpdate::Remove(u, v) => {
                if let Some(c) = count.get_mut(&Edge::new(u, v).key()) {
                    *c = c.saturating_sub(1);
                }
            }
            EdgeUpdate::Insert(..) => {}
        }
    }
    let part_of = |v: u32| served.parts.partition_point(|&(lo, _)| lo <= v) - 1;
    let mut part_edges: Vec<Vec<Edge>> = vec![Vec::new(); served.parts.len()];
    let mut stray = 0u64;
    for (&key, &c) in &count {
        let (u, v) = ((key >> 32) as u32, key as u32);
        let (pu, pv) = (part_of(u), part_of(v));
        if pu != pv {
            stray += u64::from(c > 0);
            continue;
        }
        let lo = served.parts[pu].0;
        for _ in 0..c {
            part_edges[pu].push(Edge::new(u - lo, v - lo));
        }
    }
    if stray > 0 {
        eprintln!("perfbench: {stray} edges still join two parts after the cleanup probe");
        return (stray, 0);
    }
    let pool = Pool::new(1);
    let oracles: Vec<PartOracle> = served
        .parts
        .iter()
        .zip(part_edges)
        .map(|(&(lo, len), mut edges)| {
            edges.sort_unstable_by_key(|e| e.key());
            PartOracle::new(&pool, lo, len, edges)
        })
        .collect();

    let mut mix = Mix::new(&served.parts, seed ^ 0x5eed);
    let mut wrong = 0u64;
    for i in 0..VERIFY_QUERIES {
        let query = mix.query();
        let expected = oracles[part_of(first_vertex(&query))].answer(&query);
        let got = client.call(&Request::Query {
            id: i as u64,
            query,
        });
        let ok = match got {
            Ok(Response::Answer { answer, .. }) => {
                answer == expected && !(inject_wrong_answer && i == 0)
            }
            _ => false,
        };
        if !ok {
            if wrong < 5 {
                eprintln!("perfbench: wrong answer to {query:?}: expected {expected:?}");
            }
            wrong += 1;
        }
    }
    (wrong, VERIFY_QUERIES as u64)
}

/// Reference answers for one part: Sequential BCC labels for the block
/// structure, `bcc_query::naive` BFS for reachability.
struct PartOracle {
    lo: u32,
    graph: Graph,
    csr: Csr,
    label: Vec<u32>,
    block_size: Vec<u32>,
    articulation: Vec<u32>,
    edge_of: HashMap<u64, u32>,
}

impl PartOracle {
    fn new(pool: &Pool, lo: u32, len: u32, edges: Vec<Edge>) -> Self {
        let graph = GraphBuilder::new(len)
            .edges(edges)
            .build()
            .expect("part graph");
        let run = BccConfig::new(Algorithm::Sequential)
            .run_any(pool, &graph)
            .expect("Sequential BCC");
        let mut block_size = vec![0u32; run.result.num_components as usize];
        for &l in &run.result.edge_comp {
            block_size[l as usize] += 1;
        }
        let mut articulation = run.result.articulation_points(&graph);
        articulation.sort_unstable();
        let edge_of = graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key(), i as u32))
            .collect();
        PartOracle {
            lo,
            csr: Csr::build(&graph),
            graph,
            label: run.result.edge_comp,
            block_size,
            articulation,
            edge_of,
        }
    }

    /// Edge ids of a shortest `u`–`v` path, or `None` if disconnected.
    fn path(&self, u: u32, v: u32) -> Option<Vec<u32>> {
        let mut via = vec![u32::MAX; self.graph.n() as usize];
        let mut seen = vec![false; self.graph.n() as usize];
        let mut queue = std::collections::VecDeque::from([u]);
        seen[u as usize] = true;
        while let Some(x) = queue.pop_front() {
            if x == v {
                let mut path = Vec::new();
                let mut y = v;
                while y != u {
                    let e = via[y as usize];
                    path.push(e);
                    y = self.graph.edges()[e as usize].other(y);
                }
                return Some(path);
            }
            for (y, e) in self.csr.arcs(x) {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    via[y as usize] = e;
                    queue.push_back(y);
                }
            }
        }
        None
    }

    /// The interior path vertices where the block changes: on a simple
    /// path the blocks follow the block-cut tree, so these are exactly
    /// the cut vertices separating `u` from `v`.
    fn cut_between(&self, u: u32, v: u32) -> Option<Vec<u32>> {
        let path = self.path(u, v)?;
        let mut cuts = Vec::new();
        let mut y = v;
        for w in path.windows(2) {
            y = self.graph.edges()[w[0] as usize].other(y);
            if self.label[w[0] as usize] != self.label[w[1] as usize] {
                cuts.push(y);
            }
        }
        Some(cuts)
    }

    fn answer(&self, q: &Query) -> Answer {
        let l = |x: u32| x - self.lo;
        let g = &self.graph;
        match *q {
            Query::Connected(u, v) => Answer::Bool(naive::connected_bfs(g, l(u), l(v))),
            Query::SameBlock(u, v) => {
                Answer::Bool(u == v || self.cut_between(l(u), l(v)).is_some_and(|c| c.is_empty()))
            }
            Query::IsArticulation(x) => {
                Answer::Bool(self.articulation.binary_search(&l(x)).is_ok())
            }
            Query::IsBridge(u, v) => Answer::Bool(
                self.edge_of
                    .get(&Edge::new(l(u), l(v)).key())
                    .is_some_and(|&e| self.block_size[self.label[e as usize] as usize] == 1),
            ),
            Query::VertexCutBetween(u, v) => {
                let mut cuts = if u == v {
                    Vec::new()
                } else {
                    self.cut_between(l(u), l(v)).unwrap_or_default()
                };
                cuts.sort_unstable();
                Answer::Vertices(cuts.into_iter().map(|c| c + self.lo).collect())
            }
            Query::SurvivesFailure(u, v, f) => {
                let f = match f {
                    Failure::Vertex(x) => Failure::Vertex(l(x)),
                    Failure::Edge(x, y) => Failure::Edge(l(x), l(y)),
                };
                Answer::Bool(naive::survives_failure_bfs(g, l(u), l(v), f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The block-cut reference agrees with `naive` (all BFS) on a small
    /// served graph, for every query kind the mix produces.
    #[test]
    fn part_oracle_matches_naive() {
        for seed in [7, 8] {
            let served = served_graph(seed, Scale::Smoke);
            let (lo, len) = served.parts[3];
            let edges: Vec<Edge> = served
                .graph
                .edges()
                .iter()
                .filter(|e| e.u >= lo && e.u < lo + len)
                .map(|e| Edge::new(e.u - lo, e.v - lo))
                .collect();
            let oracle = PartOracle::new(&Pool::new(1), lo, len, edges);
            let g = &oracle.graph;
            let mut rng = Lcg::new(3);
            for _ in 0..300 {
                let (u, v) = (rng.below(len as u64) as u32, rng.below(len as u64) as u32);
                let same = oracle.answer(&Query::SameBlock(u + lo, v + lo));
                assert_eq!(
                    same,
                    Answer::Bool(naive::same_block_bfs(g, u, v)),
                    "seed {seed}: {u} {v}"
                );
                let cut = oracle.answer(&Query::VertexCutBetween(u + lo, v + lo));
                let want: Vec<u32> = naive::vertex_cut_between_bfs(g, u, v)
                    .into_iter()
                    .map(|x| x + lo)
                    .collect();
                assert_eq!(cut, Answer::Vertices(want), "seed {seed}: {u} {v}");
                let bridge = oracle.answer(&Query::IsBridge(u + lo, v + lo));
                assert_eq!(bridge, Answer::Bool(naive::is_bridge_bfs(g, u, v)));
            }
            for e in g.edges() {
                let bridge = oracle.answer(&Query::IsBridge(e.u + lo, e.v + lo));
                assert_eq!(
                    bridge,
                    Answer::Bool(naive::is_bridge_bfs(g, e.u, e.v)),
                    "seed {seed}"
                );
            }
        }
    }
}
