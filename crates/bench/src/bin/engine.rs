//! Dataflow-engine sweep: the whole-binary analysis pass across the
//! `PBA_THREADS` ladder.
//!
//! Parallel analysis over the read-only CFG fans *functions* across
//! threads (the paper's Listing 7 shape, via `run_all`) while each
//! function's fixpoint runs serially. This binary times `run_all` over
//! one decode-once `BinaryIr` of a `pba-gen` workload, so the rows
//! measure fixpoints, not decoding, and prints the wall times and
//! speedups alongside the engine's block-visit counter
//! (`pba_dataflow::engine::stats`). Serial fixpoints are deterministic,
//! so the run asserts the visit count is the same at every thread count.
//!
//! ```text
//! cargo run --release -p pba-bench --bin engine
//! ```

use pba_bench::report::{secs, Table};
use pba_bench::workloads::{sweep_threads, time_median, workload};
use pba_dataflow::engine::stats;
use pba_dataflow::BinaryIr;
use pba_gen::Profile;

fn main() {
    let g = workload(Profile::TensorFlow, 0xDF10);
    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("well-formed ELF");
    let input = pba_parse::ParseInput::from_elf(&elf).expect(".text present");
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parsed = pba_parse::parse_parallel(&input, avail);
    let cfg = parsed.cfg;
    let blocks: usize = cfg.functions.values().map(|f| f.blocks.len()).sum();
    println!(
        "Dataflow engine sweep: TensorFlow-class binary, {} functions, {} member blocks\n",
        cfg.functions.len(),
        blocks
    );
    let ir = BinaryIr::build(&cfg, avail);

    let reps = 3;
    stats::reset();
    let baseline = time_median(reps, || {
        std::hint::black_box(pba_dataflow::run_all(&ir, 1));
    });
    // Counters accumulated over the reps; per-run figures for the table.
    let serial_visits = stats::VISITS.get() / reps as u64;

    let mut table = Table::new(&["threads", "across-funcs", "speedup", "visits"]);
    for threads in sweep_threads() {
        stats::reset();
        let across = time_median(reps, || {
            std::hint::black_box(pba_dataflow::run_all(&ir, threads));
        });
        let visits = stats::VISITS.get() / reps as u64;
        assert_eq!(
            visits, serial_visits,
            "serial fixpoints must visit the same blocks at {threads} threads"
        );
        table.row(vec![
            threads.to_string(),
            secs(across),
            format!("{:.2}x", baseline / across),
            visits.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "baseline (1 thread): {}; {} block visits/run; three analyses \
         (liveness, reaching defs, stack height) per function",
        secs(baseline),
        serial_visits
    );
}
