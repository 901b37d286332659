//! Daemon under load: an in-process `pba-serve` server, a corpus of
//! generated binaries larger than the session-cache budget, and client
//! threads replaying a skewed hot-key mix over the framed protocol.
//! The corpus is ingested into the daemon's MinHash index up front, so
//! `topk` queries ride in the same mix as the session-cache traffic —
//! eviction pressure and index queries share one byte budget.
//!
//! On a 1-CPU container the interesting numbers are the *counters*, not
//! wall clock: the cache-hit rate the skew earns, the evictions the cap
//! forces, and zero errors under concurrent connections. Per-request
//! latency is reported as p50/p99 per request kind for shape, not for
//! cross-machine comparison.
//!
//! One latency bound is checked as well, as a ratio within the run so
//! it holds on any machine: a cache-hit request over TCP must cost at
//! most [`HIT_TRANSPORT_RATIO`] times the same request driven through
//! the socket-free core (encode → decode → `ServeShared::handle` →
//! encode → decode). A transport stall (such as Nagle's algorithm
//! holding a split frame until the peer's delayed ACK) shows up as a
//! ratio in the hundreds.
//!
//! Knobs: `PBA_SCALE` scales corpus size and request count,
//! `PBA_THREADS` (last value) sets the server's worker-pool size.

use pba_bench::report::{mib, secs, Table};
use pba_bench::scaled;
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use pba_serve::proto::{decode_message, write_message};
use pba_serve::{BinSpec, Client, Request, Response, ServeAddr, ServeConfig, Server, ServerHandle};
use std::time::{Duration, Instant};

/// Bound on TCP cache-hit p50 over socket-free p50 for the same request.
const HIT_TRANSPORT_RATIO: f64 = 8.0;
const CORPUS: usize = 10;
const CLIENTS: usize = 8;
const KINDS: [&str; 5] = ["struct", "features", "slice", "similarity", "topk"];

/// Deterministic per-thread request stream (no rand dep needed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn config(threads: usize) -> SessionConfig {
    SessionConfig::default().with_threads(threads).with_name("daemon")
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

/// p50 of one cache-hit request, `(over TCP, through the socket-free
/// core)` in seconds. The two paths alternate so both see the same
/// machine conditions.
fn hit_latency(handle: &ServerHandle, client: &mut Client, req: &Request) -> (f64, f64) {
    const REPS: usize = 41;
    let shared = handle.shared();
    let (mut tcp, mut core) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let t = Instant::now();
        let mut frame = Vec::new();
        write_message(&mut frame, req).expect("encode request");
        let decoded: Request = decode_message(&frame[4..]).expect("decode request");
        let reply = shared.handle(decoded);
        frame.clear();
        write_message(&mut frame, &reply).expect("encode reply");
        let reply: Response = decode_message(&frame[4..]).expect("decode reply");
        core.push(t.elapsed().as_secs_f64());
        assert!(!matches!(reply, Response::Error { .. }));

        let t = Instant::now();
        client.request_ok(req).expect("served request");
        tcp.push(t.elapsed().as_secs_f64());
    }
    for v in [&mut tcp, &mut core] {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    (quantile(&tcp, 0.5), quantile(&core, 0.5))
}

fn main() {
    let threads = std::env::var("PBA_THREADS")
        .ok()
        .and_then(|s| s.split(',').next_back().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(0);
    let per_client = scaled(40);
    println!(
        "\nDaemon bench: {CORPUS}-binary corpus, {CLIENTS} client connections x {per_client} \
         requests, skewed 75% onto 2 hot keys ({} server threads)\n",
        if threads == 0 { "all".to_string() } else { threads.to_string() }
    );

    // The corpus: switch-heavy so `slice` always has jump tables to cut.
    let corpus: Vec<Vec<u8>> = (0..CORPUS)
        .map(|i| {
            generate(&GenConfig {
                num_funcs: scaled(32),
                seed: 0xDAE0 + i as u64,
                pct_switch: 1.0,
                ..Default::default()
            })
            .elf
        })
        .collect();

    // Price one fully-analyzed session, then budget the cache at ~3 of
    // them: a 10-binary corpus must evict.
    let probe = Session::open(pba_elf::ImageBytes::from(corpus[0].clone()), config(threads));
    probe.structure().expect("structure");
    probe.features().expect("features");
    let one = probe.stats().resident_bytes as usize;
    let cap = one * 3;

    // Sliceable entries for the two hot binaries (slice requests stay
    // on hot keys; everything else roams the corpus).
    let entries: Vec<Vec<u64>> = corpus[..2]
        .iter()
        .map(|elf| {
            let s = Session::open(pba_elf::ImageBytes::from(elf.clone()), config(threads));
            let mut e: Vec<u64> = pba_dataflow::collect_indirect_jumps(s.cfg().expect("cfg"))
                .into_iter()
                .map(|(f, _)| f)
                .collect();
            e.dedup();
            e
        })
        .collect();

    let server = Server::bind(
        &ServeAddr::parse("127.0.0.1:0"),
        ServeConfig { cap_bytes: cap, session: config(threads) },
    )
    .expect("bind");
    let handle = server.spawn();
    println!(
        "cache cap {} MiB (~3 sessions of {} MiB), daemon on {}",
        mib(cap),
        mib(one),
        handle.addr()
    );

    // Seed the corpus index before the fleet arrives, so `topk`
    // requests always have a populated corpus to rank against —
    // eviction pressure on the session cache and index queries then
    // coexist under the one byte budget.
    let mut seeder =
        Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");
    for elf in &corpus {
        let reply = seeder
            .request_ok(&Request::CorpusIngest { bin: BinSpec::Bytes(elf.clone()) })
            .expect("ingest");
        assert!(matches!(reply, Response::CorpusIngest { ingested: true, .. }));
    }
    drop(seeder);

    // The client fleet: every thread replays a deterministic skewed mix.
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for t in 0..CLIENTS {
        let addr = handle.addr().clone();
        let corpus = corpus.clone();
        let entries = entries.clone();
        workers.push(std::thread::spawn(move || {
            let mut client =
                Client::connect_retry(&addr, Duration::from_secs(10)).expect("connect");
            let mut rng = Lcg(0x5EED ^ (t as u64) << 32);
            let mut lat: Vec<(usize, f64)> = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                // 75% of traffic lands on two hot keys; the rest walks
                // the whole corpus and keeps the cache under pressure.
                let hot = (rng.next() % 2) as usize;
                let k = if rng.next() % 4 < 3 { hot } else { (rng.next() as usize) % CORPUS };
                let kind = (rng.next() as usize) % KINDS.len();
                let req = match kind {
                    0 => Request::Struct { bin: BinSpec::Bytes(corpus[k].clone()) },
                    1 => Request::Features { bin: BinSpec::Bytes(corpus[k].clone()) },
                    2 if !entries[hot].is_empty() => Request::SliceFunc {
                        bin: BinSpec::Bytes(corpus[hot].clone()),
                        entry: entries[hot][(rng.next() as usize) % entries[hot].len()],
                    },
                    2 => Request::Features { bin: BinSpec::Bytes(corpus[hot].clone()) },
                    3 => Request::Similarity {
                        a: BinSpec::Bytes(corpus[hot].clone()),
                        b: BinSpec::Bytes(corpus[k].clone()),
                    },
                    _ => Request::CorpusTopk {
                        bin: BinSpec::Bytes(corpus[k].clone()),
                        k: 3,
                        exact: false,
                    },
                };
                let q0 = Instant::now();
                let reply = client.request_ok(&req).expect("served request");
                lat.push((kind, q0.elapsed().as_secs_f64()));
                assert!(!matches!(reply, Response::Error { .. }));
            }
            lat
        }));
    }
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    for w in workers {
        for (kind, dt) in w.join().expect("client thread") {
            latencies[kind].push(dt);
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    // Touch every corpus member once more so the eviction story is
    // independent of where the random walk happened to roam.
    let mut client =
        Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");
    for elf in &corpus {
        client.request_ok(&Request::Features { bin: BinSpec::Bytes(elf.clone()) }).expect("sweep");
    }

    let mut t = Table::new(&["Kind", "Requests", "p50", "p99"]);
    for (kind, lat) in KINDS.iter().zip(latencies.iter_mut()) {
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t.row(vec![
            (*kind).into(),
            lat.len().to_string(),
            secs(quantile(lat, 0.50)),
            secs(quantile(lat, 0.99)),
        ]);
    }
    println!("{}", t.render());

    let Response::Stats { serve, .. } = client.request_ok(&Request::Stats).expect("stats") else {
        panic!("not a stats reply")
    };
    let looked_up = serve.cache_hits + serve.cache_misses;
    println!(
        "{} requests in {} on {} connections: {:.1}% cache-hit rate ({} hits / {} lookups), \
         {} sessions evicted, {} resident ({} of {} MiB cap), {} errors",
        serve.requests,
        secs(wall),
        serve.connections,
        100.0 * serve.cache_hits as f64 / looked_up.max(1) as f64,
        serve.cache_hits,
        looked_up,
        serve.sessions_evicted,
        serve.sessions_resident,
        mib(serve.resident_bytes as usize),
        mib(cap),
        serve.errors
    );
    println!(
        "corpus index: {} entries, {} KiB (charged against the same cap)",
        serve.index_entries,
        serve.index_bytes >> 10
    );

    // The last corpus member was touched last by the sweep: resident.
    let hit = Request::Features { bin: BinSpec::Bytes(corpus[CORPUS - 1].clone()) };
    let (tcp_p50, core_p50) = hit_latency(&handle, &mut client, &hit);
    let ratio = tcp_p50 / core_p50.max(1e-9);
    println!(
        "cache-hit p50: {} over TCP vs {} socket-free ({ratio:.1}x, bound {HIT_TRANSPORT_RATIO}x)",
        secs(tcp_p50),
        secs(core_p50)
    );

    assert_eq!(serve.errors, 0, "a loaded daemon must serve every request cleanly");
    assert!(serve.cache_hits > 0, "hot keys must hit the session cache");
    assert_eq!(serve.index_entries as usize, CORPUS, "whole corpus indexed exactly once");
    assert!(serve.index_bytes > 0, "index footprint must be priced and reported");
    assert!(serve.sessions_evicted > 0, "a {CORPUS}-binary corpus over a 3-session cap must evict");
    assert!(
        serve.resident_bytes <= cap as u64 || serve.sessions_resident == 1,
        "resident bytes must respect the cap"
    );
    assert!(
        ratio <= HIT_TRANSPORT_RATIO,
        "a cache hit over TCP must cost at most {HIT_TRANSPORT_RATIO}x the socket-free path \
         (transport stall?)"
    );
    handle.stop().expect("drain");
    println!("OK: skew hits, cap evicts, zero errors under {CLIENTS} concurrent clients");
}
