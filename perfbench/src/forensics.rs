//! `forensics-batch`: many small near-stripped binaries, streamed the
//! way `pba topk <dir>` does it — 2 binaries in flight with 1 analysis
//! thread each, `open_path` → `features()` → `CorpusIndex::insert` —
//! with top-K queries of held-out clone-family members interleaved.
//!
//! The stream is one fixed list of families, run in passes. Every pass
//! starts from the same index (the base families indexed in set-up), so
//! an op's work depends on its place in the pass alone, not on how many
//! ops the program got through before it.

use crate::layers::{open_session, recomputes, Counters, SessionTotals};
use crate::stats::{derive_seed, median, ms_since};
use crate::trace::{step, Span, Tracer, Waterfall};
use crate::truth::cfg_mismatch;
use crate::{guarded, session_config, Args, Outcome, CLIENT_THREADS};
use pba_binfeat::{CorpusIndex, FeatureIndex};
use pba_driver::Session;
use pba_elf::ImageBytes;
use pba_gen::{generate, GenConfig, Generated, GroundTruth, Profile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Ingested variants per clone family; one more variant per family is
/// held out as that family's query, so K = FAMILY.
const FAMILY: usize = 4;
/// A family's query runs this many families after its members, so its
/// members are indexed by then.
const QUERY_LAG: usize = 2;
/// Clone families indexed in set-up; every pass starts from this index.
const BASE_FAMILIES: usize = 16;
/// Clone families streamed per pass.
const PASS_FAMILIES: usize = 40;
const SETUP_REPS: usize = 3;

struct Binary {
    path: PathBuf,
    truth: GroundTruth,
    hash: u64,
}

/// One item of the stream.
enum Item {
    Ingest(usize),
    /// Query binary, then the content hashes of its family's members.
    Query(usize, Vec<u64>),
}

struct Corpus {
    bins: Vec<Binary>,
    stream: Vec<Item>,
    /// The base index's entries: content hash, MinHash signature, features.
    base: Vec<(u64, Vec<u64>, FeatureIndex)>,
}

impl Corpus {
    /// The index every pass starts from.
    fn base_index(&self) -> CorpusIndex {
        let mut index = CorpusIndex::default();
        for (hash, sig, feats) in &self.base {
            index.insert_signed(*hash, sig.clone(), feats.clone());
        }
        index
    }
}

/// The `FAMILY + 1` variants of clone family `f`. One family in three
/// is `Server`-class, the rest `Coreutils`-class: the two classes' op
/// latencies do not overlap, and with half of each the median op fell
/// in the gap between them and jumped from run to run.
fn family(args: &Args, f: usize) -> impl Iterator<Item = Generated> {
    let profile = if f.is_multiple_of(3) { Profile::Server } else { Profile::Coreutils };
    let base = profile.config(derive_seed(args.seed, 100 + f as u64));
    (1..=FAMILY as u64 + 1).map(move |variant| {
        generate(&GenConfig { extra_funcs: 2, variant, debug_info: false, ..base.clone() })
    })
}

/// Features of the base families' members, extracted 2 binaries at a
/// time like the stream.
fn base_entries(args: &Args) -> Vec<(u64, Vec<u64>, FeatureIndex)> {
    let elfs: Vec<Vec<u8>> = (PASS_FAMILIES..PASS_FAMILIES + BASE_FAMILIES)
        .flat_map(|f| family(args, f).take(FAMILY).map(|g| g.elf))
        .collect();
    let config = CorpusIndex::default().config();
    let chunk = elfs.len().div_ceil(CLIENT_THREADS);
    let active = AtomicUsize::new(elfs.chunks(chunk).len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = elfs
            .chunks(chunk)
            .map(|part| {
                let active = &active;
                scope.spawn(move || {
                    let entries = part
                        .iter()
                        .map(|elf| {
                            let s = Session::open(elf.clone(), session_config(1));
                            let hash = s.content_hash();
                            s.features().expect("features");
                            let feats = s.into_features().expect("features").expect("features");
                            (hash, config.signature(&feats.index), feats.index)
                        })
                        .collect::<Vec<_>>();
                    leave(active);
                    entries
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("base features")).collect()
    })
}

fn setup(args: &Args) -> Corpus {
    let mut bins = Vec::new();
    let mut stream = Vec::new();
    let mut members: Vec<Vec<u64>> = Vec::new();
    let query = |q: usize, members: &[Vec<u64>], stream: &mut Vec<Item>| {
        stream.push(Item::Query(q * (FAMILY + 1) + FAMILY, members[q].clone()));
    };
    for f in 0..PASS_FAMILIES {
        let mut hashes = Vec::new();
        for (v, g) in family(args, f).enumerate() {
            let path = args.work.join(format!("fam{f:04}-v{}.elf", v + 1));
            std::fs::write(&path, &g.elf).expect("write a generated binary");
            let hash = ImageBytes::from(g.elf).content_hash();
            let id = bins.len();
            bins.push(Binary { path, truth: g.truth, hash });
            if v < FAMILY {
                hashes.push(hash);
                stream.push(Item::Ingest(id));
            }
        }
        members.push(hashes);
        if f >= QUERY_LAG {
            query(f - QUERY_LAG, &members, &mut stream);
        }
    }
    for q in PASS_FAMILIES - QUERY_LAG..PASS_FAMILIES {
        query(q, &members, &mut stream);
    }
    Corpus { bins, stream, base: base_entries(args) }
}

/// Leave a group of threads that analyze with 1-thread sessions, but
/// keep picking up tasks from the 1-thread pool's queue until the whole
/// group (`active` counts it) has left.
///
/// Every 1-thread session in the process shares one worker-less rayon
/// pool, whose queue only its callers drain. When one caller runs
/// another's scope task and that task spawns more, the owner may
/// already be asleep on its scope's latch, woken only when the last
/// task ends; it relies on the other caller's next scan to run the new
/// task. Once that other caller stops analyzing, the owner sleeps for
/// good. This keeps a caller scanning while any member may still need
/// it, so a pass ends instead of hanging.
fn leave(active: &AtomicUsize) {
    active.fetch_sub(1, Ordering::SeqCst);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    while active.load(Ordering::SeqCst) > 0 {
        pool.install(|| rayon::scope(|s| s.spawn(|_| {})));
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one worker measured.
#[derive(Default)]
struct Worker {
    lat: Vec<f64>,
    untimed_s: f64,
    attempted: u64,
    failed: u64,
    found: u64,
    expected: u64,
    candidate_ratio: Vec<f64>,
    totals: SessionTotals,
    spans: Vec<Span>,
}

impl Worker {
    fn merge(&mut self, o: Worker) {
        self.lat.extend(o.lat);
        self.untimed_s += o.untimed_s;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.found += o.found;
        self.expected += o.expected;
        self.candidate_ratio.extend(o.candidate_ratio);
        self.totals.merge(o.totals);
        self.spans.extend(o.spans);
    }
}

/// One pass over the stream, shared by its workers.
struct Pass<'a> {
    corpus: &'a Corpus,
    index: Mutex<CorpusIndex>,
    next: AtomicUsize,
    /// Workers still in the pass (see [`leave`]).
    active: AtomicUsize,
    /// Pass number, folded into op and span ids.
    number: u64,
    epoch: Instant,
    deadline: Instant,
    /// Whether the run's first op is still to come (it always runs).
    first: bool,
}

fn worker(p: &Pass, id: u64, traced: bool) -> Worker {
    let mut w = Worker::default();
    let mut tracer = Tracer::new(p.epoch, p.number * CLIENT_THREADS as u64 + id);
    loop {
        let i = p.next.fetch_add(1, Ordering::Relaxed);
        let first = p.first && i == 0;
        if i >= p.corpus.stream.len() || (!first && Instant::now() >= p.deadline) {
            break;
        }
        let item = &p.corpus.stream[i];
        let bin = match item {
            Item::Ingest(b) | Item::Query(b, _) => &p.corpus.bins[*b],
        };
        let mut op = traced.then(|| tracer.begin((p.number << 32) | i as u64));
        let t0 = Instant::now();
        let s = guarded(|| {
            let open = || Session::open_path(&bin.path, session_config(1)).ok();
            let s = open_session(&mut op, open)?;
            step(&mut op, "binfeat.features", || s.features().ok())?;
            Some(s)
        });
        let lat_a = ms_since(t0);
        // The gate reads the CFG this session built, outside the timing.
        let t1 = Instant::now();
        let mut gate = |s: &Session| {
            let ok = s.cfg().is_ok_and(|cfg| cfg_mismatch(cfg, &bin.truth).is_none())
                && recomputes(&s.stats()) == 0;
            if traced {
                w.totals.add(s);
            }
            ok
        };
        let mut ok = match &mut op {
            Some(op) => op.untimed(|| s.as_ref().is_some_and(&mut gate)),
            None => s.as_ref().is_some_and(&mut gate),
        };
        let untimed = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        if let Some(s) = s {
            ok &= guarded(|| {
                Some(match item {
                    // `into_features` drops the session inside the span.
                    Item::Ingest(_) => step(&mut op, "binfeat.ingest", || {
                        let hash = s.content_hash();
                        let Some(Ok(feats)) = s.into_features() else { return false };
                        let inserted =
                            p.index.lock().expect("index lock").insert(hash, feats.index);
                        inserted && hash == bin.hash
                    }),
                    Item::Query(_, members) => {
                        let ok = step(&mut op, "binfeat.topk", || {
                            let Ok(feats) = s.features() else { return false };
                            let idx = p.index.lock().expect("index lock");
                            let r = idx.query_topk(&feats.index, FAMILY, None);
                            let present: Vec<u64> =
                                members.iter().copied().filter(|&h| idx.contains(h)).collect();
                            let n = idx.len();
                            drop(idx);
                            let found =
                                present.iter().filter(|h| r.hits.iter().any(|x| x.hash == **h));
                            w.found += found.count() as u64;
                            w.expected += present.len() as u64;
                            w.candidate_ratio.push(r.candidates as f64 / n.max(1) as f64);
                            // The nearest neighbour of a clone must be a sibling.
                            present.is_empty()
                                || r.hits.first().is_some_and(|h| present.contains(&h.hash))
                        });
                        step(&mut op, "driver.drop", || drop(s));
                        ok
                    }
                })
            })
            .unwrap_or(false);
        }
        let lat = lat_a + ms_since(t2);
        match op {
            Some(op) => w.lat.push(op.end()),
            None => w.lat.push(lat),
        }
        w.untimed_s += untimed;
        w.attempted += 1;
        w.failed += u64::from(!ok);
    }
    leave(&p.active);
    w.spans = tracer.spans;
    w
}

/// Passes over the stream until `window` has elapsed. Returns what the
/// workers measured, the measured seconds (index resets and the gate
/// excluded) and the largest index a pass built.
fn window_run(c: &Corpus, window: Duration, traced: bool) -> (Worker, f64, u64) {
    let epoch = Instant::now();
    let deadline = epoch + window;
    let (mut all, mut untimed, mut index_bytes) = (Worker::default(), 0.0, 0);
    for number in 0.. {
        if number > 0 && Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let index = Mutex::new(c.base_index());
        untimed += t.elapsed().as_secs_f64();
        let pass = Pass {
            corpus: c,
            index,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(CLIENT_THREADS),
            number,
            epoch,
            deadline,
            first: number == 0,
        };
        let workers: Vec<Worker> = std::thread::scope(|scope| {
            let pass = &pass;
            let handles: Vec<_> = (0..CLIENT_THREADS as u64)
                .map(|id| scope.spawn(move || worker(pass, id, traced)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("forensics worker")).collect()
        });
        untimed += workers.iter().map(|w| w.untimed_s).sum::<f64>() / workers.len() as f64;
        workers.into_iter().for_each(|w| all.merge(w));
        let index = pass.index.into_inner().expect("index lock");
        index_bytes = index_bytes.max(index.heap_bytes());
    }
    (all, epoch.elapsed().as_secs_f64() - untimed, index_bytes)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        drop(corpus.take());
        let t = Instant::now();
        corpus = Some(setup(args));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.samples.insert("setup_s", SETUP_REPS);

    let window = if args.trace { args.window / 2 } else { args.window };
    let (bare, measured, _) = window_run(&corpus, window, false);
    out.attempted += bare.attempted;
    out.failed += bare.failed;
    out.set_latency(&bare.lat, measured);
    out.set("topk_recall", bare.found as f64 / bare.expected.max(1) as f64);
    out.samples.insert("topk_recall", bare.expected as usize);
    if !args.trace {
        return out;
    }

    let counters = Counters::read();
    let (traced, _, index_bytes) = window_run(&corpus, window, true);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    counters.report(traced.lat.len(), &mut out);
    traced.totals.report(&mut out);
    out.set("binfeat.candidate_ratio", crate::stats::mean(&traced.candidate_ratio));
    out.set("binfeat.index_mib", index_bytes as f64 / (1 << 20) as f64);
    out.set_waterfall(&Waterfall::fold(&traced.spans), median(&bare.lat), median(&traced.lat));
    crate::write_trace(args, &traced.spans);
    out
}
