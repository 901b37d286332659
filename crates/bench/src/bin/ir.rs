//! Decode-once ablation: instruction-decode counts and wall time for
//! the struct + features + dataflow pipeline, per-consumer IRs vs the
//! shared session IR.
//!
//! Before the `FuncIr`/`BinaryIr` refactor every analysis consumer
//! re-derived the decoded instructions for itself (reaching defs even
//! decoded each block twice per run). The decode counter on
//! [`pba_cfg::CodeRegion`] makes the cost machine-independent and
//! countable: this binary runs all three analysis consumers once with a
//! *separate* session each (the per-consumer baseline — each session
//! builds its own IR) and once sharing one session, and reports the
//! instruction decodes each scenario performed after its CFG parse.
//! The shared column must equal **exactly one decode per unique-block
//! instruction** — the decode-once invariant — which is a ≥3× reduction
//! against the three per-consumer IR builds (and far more against the
//! historical per-analysis decoding); the binary asserts both, so the
//! CI smoke run is the regression gate.
//!
//! A second sweep reuses the shared static-chunking harness
//! (`pba_bench::harness`) on the IR build itself: static contiguous
//! chunks of the size-sorted function list, each function building its
//! own `FuncIr`, vs the work-stealing `BinaryIr::build`, at the
//! `PBA_THREADS` ladder (parity on a 1-CPU container, like the steal
//! sweep).
//!
//! ```text
//! cargo run --release -p pba-bench --bin ir
//! PBA_SCALE=0.1 PBA_THREADS=1,2 cargo run --release -p pba-bench --bin ir
//! ```

use pba_bench::harness::run_static_chunked;
use pba_bench::report::{secs, Table};
use pba_bench::workloads::{time_median, workload};
use pba_dataflow::{BinaryIr, FuncIr};
use pba_driver::{Session, SessionConfig};
use pba_gen::Profile;

fn config(threads: usize) -> SessionConfig {
    SessionConfig::default().with_threads(threads).with_name("Server")
}

/// Run `consumer` on a fresh session over `elf`, returning the
/// instruction decodes it performed beyond the CFG parse, and its wall
/// time. Forcing `cfg()` first isolates the analysis plane from the
/// parser's own decoding.
fn measure(elf: &[u8], threads: usize, consumer: impl Fn(&Session)) -> (u64, f64, Session) {
    let s = Session::open(elf.to_vec(), config(threads));
    let after_parse = s.cfg().expect("cfg").code.decode_count();
    let t = std::time::Instant::now();
    consumer(&s);
    let dt = t.elapsed().as_secs_f64();
    (s.cfg().expect("cfg").code.decode_count() - after_parse, dt, s)
}

fn main() {
    let threads = std::env::var("PBA_THREADS")
        .ok()
        .and_then(|s| s.split(',').next_back().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(0); // 0 = all available
    let g = workload(Profile::Server, 0x1DEC);
    println!(
        "\nDecode-once IR: struct + features + dataflow on one Server-class binary \
         ({} threads)\n",
        if threads == 0 { "all".to_string() } else { threads.to_string() }
    );

    let mut t = Table::new(&["Scenario", "insn decodes", "per block-insn", "wall"]);

    // Per-consumer baseline: one session per consumer, so each builds
    // (and decodes) its own IR — the old "every consumer re-derives"
    // shape, with the IR at least deduplicating within each consumer.
    let (d_struct, t_struct, _) = measure(&g.elf, threads, |s| {
        s.structure().expect("structure");
    });
    let (d_feat, t_feat, _) = measure(&g.elf, threads, |s| {
        s.features().expect("features");
    });
    let (d_df, t_df, _) = measure(&g.elf, threads, |s| {
        s.dataflow().expect("dataflow");
    });
    let baseline = d_struct + d_feat + d_df;

    // Shared: one session, one IR, three consumers.
    let (shared, t_shared, session) = measure(&g.elf, threads, |s| {
        s.structure().expect("structure");
        s.features().expect("features");
        s.dataflow().expect("dataflow");
    });
    let unique = session.ir().expect("ir").unique_block_insn_count() as u64;
    let stats = session.stats();

    let per = |d: u64| format!("{:.2}", d as f64 / unique as f64);
    t.row(vec![
        "separate sessions".into(),
        baseline.to_string(),
        per(baseline),
        secs(t_struct + t_feat + t_df),
    ]);
    t.row(vec!["one session".into(), shared.to_string(), per(shared), secs(t_shared)]);
    println!("{}", t.render());
    println!(
        "unique-block instructions: {unique}; shared session: {} IR build(s), {} CFG parse(s)",
        stats.ir_builds, stats.cfg_parses
    );

    assert_eq!(shared, unique, "shared session must decode each block exactly once (one IR build)");
    assert_eq!(stats.ir_builds, 1, "one memoized IR build");
    assert!(
        baseline >= 3 * shared,
        "per-consumer baseline must pay >= 3x the decodes ({baseline} vs {shared})"
    );
    println!(
        "OK: one decode per block on the shared session ({:.1}x fewer decodes than \
         per-consumer)\n",
        baseline as f64 / shared as f64
    );

    // IR-build scheduling sweep: the shared static-chunking harness vs
    // the work-stealing fan-out, building every function's FuncIr.
    let cfg = session.cfg().expect("cfg");
    let mut funcs: Vec<&pba_cfg::Function> = cfg.functions.values().collect();
    funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks.len()));
    let reps = 3;
    let base = time_median(reps, || {
        run_static_chunked(&funcs, 1, |f| {
            std::hint::black_box(FuncIr::build(cfg, f));
        });
    });
    let mut sweep = Table::new(&["threads", "static", "speedup", "stealing", "speedup"]);
    for threads in [1usize, 2, 4, 8] {
        let t_static = time_median(reps, || {
            run_static_chunked(&funcs, threads, |f| {
                std::hint::black_box(FuncIr::build(cfg, f));
            });
        });
        let t_steal = time_median(reps, || {
            std::hint::black_box(BinaryIr::build(cfg, threads));
        });
        sweep.row(vec![
            threads.to_string(),
            secs(t_static),
            format!("{:.2}x", base / t_static),
            secs(t_steal),
            format!("{:.2}x", base / t_steal),
        ]);
    }
    println!("IR-build scheduling (shared harness static baseline vs stealing):");
    println!("{}", sweep.render());
}
