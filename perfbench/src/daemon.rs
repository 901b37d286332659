//! `daemon-mixed`: an in-process `pba serve` on TCP loopback, driven by
//! 2 client connections in a closed loop with a skewed hot-key mix over
//! a corpus larger than the session-cache cap.
//!
//! The mix is the one `pba-bench --bin daemon` replays: kinds drawn
//! uniformly, 3 requests in 4 on one of 2 hot binaries, slices of a hot
//! binary, similarity of a hot binary with the request's key, top-3
//! queries, a 10-binary corpus indexed up front and a cache of about 3
//! sessions. Two things are added here because the workload calls for
//! them: `corpus_ingest` of a fresh binary as a sixth kind, and one
//! operand in 16 sent by path. `METRICS.md` marks which numbers have no
//! source.
//!
//! Each client replays a fixed plan of requests, in passes. Every pass
//! runs against a freshly started and primed daemon, so the fresh
//! binaries are new to its index again and each pass does the same
//! work: an op's cost depends on its place in the plan, not on how many
//! ops ran before it.
//!
//! The clients use the program's `Client` as it is: inline-byte
//! requests over TCP, no `TCP_NODELAY`, no batching. The daemon's
//! known write stall (the length prefix and the payload go out as two
//! writes, so a payload shorter than one segment waits for a delayed
//! ACK) therefore shows in this workload until it is fixed.
//!
//! The corpus is `Server`-class: its inline requests (115–125 KB
//! framed) are always longer than one loopback segment (65,483 bytes)
//! and its replies always shorter, so every inline request meets the
//! stall exactly once, whatever the seed. `Coreutils`-class requests
//! (64–68 KB) straddle the segment size, which made the stall count
//! per request, and so the medians, depend on the seed.

use crate::layers::recomputes;
use crate::stats::{derive_seed, mean, median, ms_since, Rng};
use crate::trace::{step, Span, Tracer, Waterfall};
use crate::{session_config, Args, Outcome, ANALYSIS_THREADS, CLIENT_THREADS};
use pba_driver::{Session, SessionStats};
use pba_elf::ImageBytes;
use pba_gen::{generate, Profile};
use pba_serve::proto::{decode_message, write_message};
use pba_serve::{
    BinSpec, Client, Request, Response, ServeAddr, ServeConfig, ServeShared, ServeStats, Server,
    ServerHandle, SessionCache,
};
use std::time::{Duration, Instant};

/// Binaries the mix roams over.
const CORPUS: usize = 10;
/// The cache holds about this many fully analyzed sessions, so the
/// corpus does not fit and misses evict.
const CAP_SESSIONS: usize = 3;
/// Three quarters of the requests go to one of the first `HOT` binaries.
const HOT: usize = 2;
/// Request kinds, drawn uniformly: `struct`, `features`, `slice_func`,
/// `similarity`, `corpus_topk`, `corpus_ingest`.
const KINDS: usize = 6;
/// One operand in this many is sent as a server-side path, the rest inline.
const PATH_EVERY: usize = 16;
/// Decks of 24 requests per client in one pass (see [`plan`]).
const DECKS: usize = 6;
const SETUP_REPS: usize = 3;

struct Bin {
    bytes: Vec<u8>,
    path: String,
    hash: u64,
    functions: u64,
    /// Entries of functions with an indirect jump (slice targets); only
    /// computed for the hot binaries, which slices go to.
    sliceable: Vec<u64>,
}

/// A request operand: a corpus binary, inline or by path.
#[derive(Clone, Copy)]
struct Operand {
    bin: usize,
    by_path: bool,
}

/// One planned request.
enum Plan {
    Struct(Operand),
    Features(Operand),
    Slice(Operand, u64),
    Similarity(Operand, Operand),
    Topk(Operand),
    /// Ingest of the given fresh binary.
    Ingest(usize),
}

struct Corpus {
    bins: Vec<Bin>,
    /// Binaries no daemon has indexed at the start of a pass, with
    /// their content hashes; each is ingested once per pass.
    fresh: Vec<(Vec<u8>, u64)>,
    /// One request plan per client.
    plans: Vec<Vec<Plan>>,
    cap: usize,
}

fn operand(rng: &mut Rng, bin: usize) -> Operand {
    Operand { bin, by_path: rng.below(PATH_EVERY) == 0 }
}

/// One client's plan: `DECKS` shuffled decks in each of which every
/// kind appears 4 times, 3 of them on a hot binary and 1 on a key drawn
/// from the whole corpus, so that every plan, and so every seed, has
/// the mix's exact proportions. Fresh binaries are numbered from
/// `fresh` on.
fn plan(bins: &[Bin], rng: &mut Rng, fresh: &mut usize) -> Vec<Plan> {
    let mut plan = Vec::new();
    for _ in 0..DECKS {
        let mut deck: Vec<(usize, bool)> =
            (0..KINDS).flat_map(|k| (0..4).map(move |i| (k, i < 3))).collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        for (kind, on_hot) in deck {
            let hot = rng.below(HOT);
            let key = if on_hot { hot } else { rng.below(CORPUS) };
            plan.push(match kind {
                0 => Plan::Struct(operand(rng, key)),
                1 => Plan::Features(operand(rng, key)),
                2 if !bins[hot].sliceable.is_empty() => {
                    let entries = &bins[hot].sliceable;
                    Plan::Slice(operand(rng, hot), entries[rng.below(entries.len())])
                }
                2 => Plan::Features(operand(rng, hot)),
                3 => Plan::Similarity(operand(rng, hot), operand(rng, key)),
                4 => Plan::Topk(operand(rng, key)),
                _ => {
                    *fresh += 1;
                    Plan::Ingest(*fresh - 1)
                }
            });
        }
    }
    plan
}

fn setup_corpus(args: &Args) -> Corpus {
    let gen = |tag: u64| generate(&Profile::Server.config(derive_seed(args.seed, tag)));
    let config = session_config(ANALYSIS_THREADS);
    let mut bins = Vec::new();
    let mut cap = 0;
    for i in 0..CORPUS {
        let g = gen(200 + i as u64);
        let path = args.work.join(format!("corpus{i:02}.elf"));
        std::fs::write(&path, &g.elf).expect("write a corpus binary");
        let s = Session::open(g.elf.clone(), config.clone());
        let mut sliceable = Vec::new();
        if i < HOT {
            let jumps = pba_dataflow::collect_indirect_jumps(s.cfg().expect("cfg"));
            sliceable = jumps.into_iter().map(|(f, _)| f).collect();
            sliceable.sort_unstable();
            sliceable.dedup();
        }
        if i == 0 {
            s.structure().expect("structure");
            s.features().expect("features");
            cap = s.stats().resident_bytes as usize * CAP_SESSIONS;
        }
        bins.push(Bin {
            hash: s.content_hash(),
            bytes: g.elf,
            path: path.to_string_lossy().into_owned(),
            functions: g.truth.functions.len() as u64,
            sliceable,
        });
    }
    let mut fresh = 0;
    let plans = (0..CLIENT_THREADS as u64)
        .map(|t| plan(&bins, &mut Rng::new(derive_seed(args.seed, 400 + t)), &mut fresh))
        .collect();
    let fresh = (0..fresh)
        .map(|i| {
            let elf = gen(1000 + i as u64).elf;
            let hash = ImageBytes::from(elf.as_slice()).content_hash();
            (elf, hash)
        })
        .collect();
    Corpus { bins, fresh, plans, cap }
}

/// Index the corpus and warm the hot keys through `serve`.
fn prime(c: &Corpus, mut serve: impl FnMut(Request) -> Response) {
    for b in &c.bins {
        let reply = serve(Request::CorpusIngest { bin: BinSpec::Bytes(b.bytes.clone()) });
        assert!(matches!(reply, Response::CorpusIngest { ingested: true, .. }), "seed ingest");
    }
    for b in &c.bins[..HOT] {
        let reply = serve(Request::Struct { bin: BinSpec::Bytes(b.bytes.clone()) });
        assert!(matches!(reply, Response::Struct { .. }), "warm-up struct");
    }
}

fn start_server(c: &Corpus) -> ServerHandle {
    let config = ServeConfig { cap_bytes: c.cap, session: session_config(ANALYSIS_THREADS) };
    let handle = Server::bind(&ServeAddr::parse("127.0.0.1:0"), config).expect("bind").spawn();
    let mut client =
        Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");
    prime(c, |req| client.request(&req).expect("set-up request"));
    handle
}

/// What a reply must show to count as correct.
enum Expect {
    Struct { functions: u64 },
    Features,
    Slice,
    Similarity { same: bool },
    Topk { hash: u64 },
    Ingest { hash: u64 },
}

fn request(c: &Corpus, p: &Plan) -> (Request, Expect) {
    let spec = |o: &Operand| {
        let b = &c.bins[o.bin];
        if o.by_path {
            BinSpec::Path(b.path.clone())
        } else {
            BinSpec::Bytes(b.bytes.clone())
        }
    };
    match p {
        Plan::Struct(o) => (
            Request::Struct { bin: spec(o) },
            Expect::Struct { functions: c.bins[o.bin].functions },
        ),
        Plan::Features(o) => (Request::Features { bin: spec(o) }, Expect::Features),
        Plan::Slice(o, entry) => {
            (Request::SliceFunc { bin: spec(o), entry: *entry }, Expect::Slice)
        }
        Plan::Similarity(a, b) => (
            Request::Similarity { a: spec(a), b: spec(b) },
            Expect::Similarity { same: a.bin == b.bin },
        ),
        Plan::Topk(o) => (
            Request::CorpusTopk { bin: spec(o), k: 3, exact: false },
            Expect::Topk { hash: c.bins[o.bin].hash },
        ),
        Plan::Ingest(i) => {
            let (elf, hash) = &c.fresh[*i];
            (
                Request::CorpusIngest { bin: BinSpec::Bytes(elf.clone()) },
                Expect::Ingest { hash: *hash },
            )
        }
    }
}

/// Check a reply; returns (correct, cache hit) — `hit` is `None` for
/// ingests, which never go through the session cache.
fn check(expect: &Expect, reply: &Response) -> (bool, Option<bool>) {
    match (expect, reply) {
        (Expect::Struct { functions }, Response::Struct { hit, functions: f, stats, .. }) => {
            (f == functions && recomputes(stats) == 0, Some(*hit))
        }
        (Expect::Features, Response::Features { hit, features, stats }) => {
            (!features.is_empty() && recomputes(stats) == 0, Some(*hit))
        }
        (Expect::Slice, Response::SliceFunc { hit, jumps, stats }) => {
            (!jumps.is_empty() && recomputes(stats) == 0, Some(*hit))
        }
        (Expect::Similarity { same }, Response::Similarity { hit_a, hit_b, cosine, .. }) => {
            let ok = (0.0..=1.0 + 1e-9).contains(cosine) && (!same || *cosine > 1.0 - 1e-9);
            (ok, Some(*hit_a && *hit_b))
        }
        (Expect::Topk { hash }, Response::CorpusTopk { hit, hits, .. }) => {
            (hits.first().is_some_and(|h| h.hash == *hash), Some(*hit))
        }
        (Expect::Ingest { hash }, Response::CorpusIngest { ingested, hash: h, .. }) => {
            (h == hash && *ingested, None)
        }
        _ => (false, None),
    }
}

/// What the clients of one or more passes measured.
#[derive(Default)]
struct ClientRun {
    lat: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    untimed_s: f64,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl ClientRun {
    fn merge(&mut self, o: ClientRun) {
        self.lat.extend(o.lat);
        self.hit.extend(o.hit);
        self.miss.extend(o.miss);
        self.untimed_s += o.untimed_s;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.spans.extend(o.spans);
        self.request_bytes.extend(o.request_bytes);
        self.response_bytes.extend(o.response_bytes);
    }
}

/// The plan of client `t` in pass `number`, stopped at `deadline`
/// (after at least one op in the run's first pass).
struct PassClient<'a> {
    plan: &'a [Plan],
    t: u64,
    number: u64,
    deadline: Instant,
}

impl PassClient<'_> {
    fn ops(&self) -> impl Iterator<Item = (usize, &Plan)> + '_ {
        let first = self.number == 0;
        self.plan
            .iter()
            .enumerate()
            .take_while(move |&(i, _)| (first && i == 0) || Instant::now() < self.deadline)
    }
}

/// Passes until `window` has elapsed: `pass(number, deadline)` runs every
/// client's plan once against a fresh daemon and returns the clients'
/// runs plus the untimed seconds spent starting and priming it.
/// Returns the merged runs and the measured seconds (daemon starts and
/// reply checks excluded).
fn passes(
    window: Duration,
    mut pass: impl FnMut(u64, Instant) -> (Vec<ClientRun>, f64),
) -> (ClientRun, f64) {
    let epoch = Instant::now();
    let deadline = epoch + window;
    let (mut all, mut untimed) = (ClientRun::default(), 0.0);
    for number in 0.. {
        if number > 0 && Instant::now() >= deadline {
            break;
        }
        let (runs, restart_s) = pass(number, deadline);
        untimed += restart_s + runs.iter().map(|r| r.untimed_s).sum::<f64>() / runs.len() as f64;
        runs.into_iter().for_each(|r| all.merge(r));
    }
    (all, epoch.elapsed().as_secs_f64() - untimed)
}

fn tcp_client(c: &Corpus, addr: &ServeAddr, pc: &PassClient) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = Client::connect(addr).expect("connect");
    for (_, p) in pc.ops() {
        let (req, expect) = request(c, p);
        let t = Instant::now();
        let reply = client.request(&req);
        let dt = ms_since(t);
        let t = Instant::now();
        let (ok, hit) = match &reply {
            Ok(r) => check(&expect, r),
            Err(_) => (false, None),
        };
        if reply.is_err() {
            client = Client::connect(addr).expect("reconnect");
        }
        run.lat.push(dt);
        match hit {
            Some(true) => run.hit.push(dt),
            Some(false) => run.miss.push(dt),
            None => {}
        }
        run.attempted += 1;
        run.failed += u64::from(!ok);
        run.untimed_s += t.elapsed().as_secs_f64();
    }
    run
}

/// The daemon counters of every pass.
#[derive(Default)]
struct DaemonTotals {
    hits: u64,
    misses: u64,
    evictions: u64,
    requests: u64,
    errors: u64,
    index_bytes: u64,
    resident_bytes: u64,
    recomputes: u64,
}

impl DaemonTotals {
    fn add(&mut self, serve: &ServeStats, sessions: &[(u64, SessionStats)]) {
        self.hits += serve.cache_hits;
        self.misses += serve.cache_misses;
        self.evictions += serve.sessions_evicted;
        self.requests += serve.requests;
        self.errors += serve.errors;
        self.index_bytes = self.index_bytes.max(serve.index_bytes);
        self.resident_bytes = self.resident_bytes.max(serve.resident_bytes);
        self.recomputes += sessions.iter().map(|(_, s)| recomputes(s)).sum::<u64>();
    }

    fn report(&self, out: &mut Outcome) {
        let lookups = (self.hits + self.misses).max(1);
        out.set("serve.cache_hit_ratio", self.hits as f64 / lookups as f64);
        out.set("serve.evictions", self.evictions as f64 / self.requests.max(1) as f64);
        out.set("serve.errors", self.errors as f64);
        out.set("binfeat.index_mib", self.index_bytes as f64 / (1 << 20) as f64);
        out.set("driver.resident_mib", self.resident_bytes as f64 / (1 << 20) as f64);
        out.set("driver.recomputes", self.recomputes as f64);
    }
}

/// Read a daemon's counters, then stop it.
fn stop(handle: ServerHandle, totals: &mut DaemonTotals) {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let Ok(Response::Stats { serve, sessions }) = client.request(&Request::Stats) else {
        panic!("the daemon must answer a stats request")
    };
    drop(client);
    totals.add(&serve, &sessions);
    handle.stop().expect("stop the daemon");
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ready: Option<(Corpus, ServerHandle)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, handle)) = ready.take() {
            handle.stop().expect("stop a set-up daemon");
        }
        let t = Instant::now();
        let corpus = setup_corpus(args);
        let handle = start_server(&corpus);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((corpus, handle));
    }
    let (corpus, handle) = ready.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.samples.insert("setup_s", SETUP_REPS);

    let window = if args.trace { args.window / 2 } else { args.window };
    let c = &corpus;
    let mut totals = DaemonTotals::default();
    let mut daemon = Some(handle);
    let (tcp, measured) = passes(window, |number, deadline| {
        let t = Instant::now();
        let handle = match daemon.take() {
            Some(handle) => handle,
            None => start_server(c),
        };
        let restart_s = t.elapsed().as_secs_f64();
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENT_THREADS as u64)
                .map(|t| {
                    let addr = handle.addr();
                    let pc = PassClient { plan: &c.plans[t as usize], t, number, deadline };
                    scope.spawn(move || tcp_client(c, addr, &pc))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let t = Instant::now();
        stop(handle, &mut totals);
        (runs, restart_s + t.elapsed().as_secs_f64())
    });

    out.attempted += tcp.attempted;
    out.failed += tcp.failed;
    out.set_latency(&tcp.lat, measured);
    out.set("hit_p50_ms", median(&tcp.hit));
    out.set("miss_p50_ms", median(&tcp.miss));
    out.samples.insert("hit_p50_ms", tcp.hit.len());
    out.samples.insert("miss_p50_ms", tcp.miss.len());
    totals.report(&mut out);
    if !args.trace {
        return out;
    }
    traced_replay(args, c, window, mean(&tcp.lat), &mut out);
    out
}

/// One socket-free replay client: each request is encoded, decoded,
/// handled by the pass's `ServeShared`, and its reply encoded and
/// decoded. When traced, each of these steps runs under its own span.
fn replay_client(
    c: &Corpus,
    shared: &ServeShared,
    pc: &PassClient,
    epoch: Instant,
    traced: bool,
) -> ClientRun {
    let mut tracer = Tracer::new(epoch, pc.number * CLIENT_THREADS as u64 + pc.t);
    let mut run = ClientRun::default();
    for (i, p) in pc.ops() {
        let (req, expect) = request(c, p);
        let mut op = traced.then(|| tracer.begin((pc.number << 40) | (pc.t << 32) | i as u64));
        let t0 = Instant::now();
        let frame = step(&mut op, "serve.encode", || frame_of(&req));
        let decoded = step(&mut op, "serve.decode", || decode_message::<Request>(&frame[4..]));
        let reply = step(&mut op, "serve.handle", || match decoded {
            Ok(r) => shared.handle(r),
            Err(e) => Response::from_error(&e),
        });
        let reply_frame = step(&mut op, "serve.encode", || frame_of(&reply));
        let back = step(&mut op, "serve.decode", || decode_message::<Response>(&reply_frame[4..]));
        run.lat.push(op.map_or_else(|| ms_since(t0), |op| op.end()));
        let t = Instant::now();
        run.request_bytes.push(frame.len() as f64);
        run.response_bytes.push(reply_frame.len() as f64);
        run.attempted += 1;
        run.failed += u64::from(!back.is_ok_and(|r| check(&expect, &r).0));
        run.untimed_s += t.elapsed().as_secs_f64();
    }
    run.spans = tracer.spans;
    run
}

/// The same plans, socket-free, each pass on a fresh primed `ServeShared`.
fn replay(c: &Corpus, window: Duration, traced: bool, out: &mut Outcome) -> ClientRun {
    let epoch = Instant::now();
    let (run, _) = passes(window, |number, deadline| {
        let t = Instant::now();
        let shared = ServeShared::new(SessionCache::new(c.cap, session_config(ANALYSIS_THREADS)));
        prime(c, |req| shared.handle(req));
        let restart_s = t.elapsed().as_secs_f64();
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENT_THREADS as u64)
                .map(|t| {
                    let shared = &shared;
                    let pc = PassClient { plan: &c.plans[t as usize], t, number, deadline };
                    scope.spawn(move || replay_client(c, shared, &pc, epoch, traced))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
        });
        (runs, restart_s)
    });
    out.attempted += run.attempted;
    out.failed += run.failed;
    run
}

/// The per-layer half of a traced run: the socket-free replay, once
/// untraced and once traced. Transport time is what the round trip over
/// TCP spent beyond the replay's encode, decode and handle steps.
fn traced_replay(args: &Args, c: &Corpus, window: Duration, tcp_mean: f64, out: &mut Outcome) {
    let bare = replay(c, window / 2, false, out);
    let traced = replay(c, window / 2, true, out);
    let w = Waterfall::fold(&traced.spans);
    out.set("serve.request_bytes", mean(&traced.request_bytes));
    out.set("serve.response_bytes", mean(&traced.response_bytes));
    let steps = w.layer("serve.encode") + w.layer("serve.decode") + w.layer("serve.handle");
    out.set("serve.transport_ms", tcp_mean - steps);
    out.set_waterfall(&w, median(&bare.lat), median(&traced.lat));
    crate::write_trace(args, &traced.spans);
}

/// One request or reply as its length-prefixed wire frame.
fn frame_of<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    write_message(&mut buf, msg).expect("encode a frame");
    buf
}
