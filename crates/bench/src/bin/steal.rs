//! Static chunking vs work stealing on a skewed workload.
//!
//! The paper's speedups rest on dynamic load balancing: traversal and
//! analysis tasks are wildly skewed, and one huge function serializes a
//! statically-chunked pool. This binary measures exactly that, on the
//! `pba-gen` `Skewed` profile (one multi-thousand-block function among
//! hundreds of tiny ones), running the three standard per-function
//! analyses over one shared `BinaryIr` two ways at each thread count:
//!
//! * **static** — contiguous chunks of the size-sorted function list,
//!   one thread per chunk, no redistribution: the discipline the
//!   pre-refactor rayon shim imposed (the worst case lands the giant
//!   plus the next-largest functions on one thread);
//! * **stealing** — [`pba_dataflow::run_all`] on the deque-based
//!   work-stealing pool.
//!
//! Steal/execute/split counters from the pool (`rayon::stats`, backed
//! by `pba_concurrent::stats::Counter`) are reported per row. On a
//! 1-CPU container the rows show parity (the acceptance bar); with real
//! cores the stealing rows pull ahead on this profile by construction.
//!
//! ```text
//! cargo run --release -p pba-bench --bin steal
//! PBA_STEAL_THREADS=1,2,4,8 cargo run --release -p pba-bench --bin steal
//! ```

use pba_bench::harness::run_static_chunked;
use pba_bench::report::{secs, Table};
use pba_bench::workloads::{time_median, workload};
use pba_dataflow::{liveness_on, reaching_defs_on, run_all, stack_heights_on, BinaryIr, FuncIr};
use pba_gen::Profile;

/// Thread ladder: `PBA_STEAL_THREADS`/`PBA_THREADS`, else the issue's
/// 1/2/4/8 (fixed rather than clamped to the host so the sweep table is
/// comparable across machines; on few cores the extra rows just show
/// oversubscription parity).
fn steal_threads() -> Vec<usize> {
    for var in ["PBA_STEAL_THREADS", "PBA_THREADS"] {
        if let Ok(s) = std::env::var(var) {
            let v: Vec<usize> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            if !v.is_empty() {
                return v;
            }
        }
    }
    vec![1, 2, 4, 8]
}

/// The per-function work both schedulers distribute: the three standard
/// analyses (what `run_all` does inside its closure) over the
/// function's shared IR.
fn analyze(ir: &FuncIr) {
    let graph = ir.graph();
    std::hint::black_box(liveness_on(ir, graph));
    std::hint::black_box(reaching_defs_on(ir, graph));
    std::hint::black_box(stack_heights_on(ir, graph));
}

/// Static baseline: size-sorted list split into contiguous chunks by
/// the shared harness (`pba_bench::harness::run_static_chunked`) — the
/// giant's chunk finishes last, everyone else idles.
fn static_chunked(ir: &BinaryIr, threads: usize) {
    let mut funcs: Vec<&FuncIr> = ir.funcs().collect();
    funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks().len()));
    run_static_chunked(&funcs, threads, |f| analyze(f));
}

fn main() {
    let g = workload(Profile::Skewed, 0x57EA);
    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("well-formed ELF");
    let input = pba_parse::ParseInput::from_elf(&elf).expect(".text present");
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cfg = pba_parse::parse_parallel(&input, avail).cfg;
    let ir = BinaryIr::build(&cfg, avail);

    let blocks: usize = cfg.functions.values().map(|f| f.blocks.len()).sum();
    let giant = cfg.functions.values().map(|f| f.blocks.len()).max().unwrap_or(0);
    println!(
        "Steal sweep: Skewed-class binary, {} functions, {} member blocks\n\
         (largest function: {} blocks; {} available cores)\n",
        cfg.functions.len(),
        blocks,
        giant,
        avail
    );

    let reps = 3;
    let baseline = time_median(reps, || static_chunked(&ir, 1));

    let mut table = Table::new(&[
        "threads", "static", "speedup", "stealing", "speedup", "steals", "splits", "executed",
    ]);
    for threads in steal_threads() {
        let t_static = time_median(reps, || static_chunked(&ir, threads));
        rayon::stats::reset();
        let t_steal = time_median(reps, || {
            std::hint::black_box(run_all(&ir, threads));
        });
        let steals = rayon::stats::TASKS_STOLEN.get();
        let splits = rayon::stats::TASKS_SPLIT.get();
        let executed = rayon::stats::TASKS_EXECUTED.get();
        table.row(vec![
            threads.to_string(),
            secs(t_static),
            format!("{:.2}x", baseline / t_static),
            secs(t_steal),
            format!("{:.2}x", baseline / t_steal),
            steals.to_string(),
            splits.to_string(),
            executed.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "baseline (1 thread, static): {}; pool counters cover the {reps} \
         stealing-row reps",
        secs(baseline)
    );
}
