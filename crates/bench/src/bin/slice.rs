//! Jump-table slicing sweep: engine-backed `SliceSpec` throughput.
//!
//! Since the slice rides the generic dataflow engine, the interesting
//! lever is the same as for the other analyses: fan independent
//! indirect jumps across a rayon pool while each fixpoint runs
//! serially. This binary collects every indirect-jump block of a
//! switch-heavy `pba-gen` workload and sweeps the `PBA_THREADS` ladder
//! over the whole-binary re-slicing pass, printing wall times, speedups
//! and the classification tally (forms / bounds / widenings) so the
//! numbers land in the benchmark reports alongside the engine sweep.
//!
//! ```text
//! cargo run --release -p pba-bench --bin slice
//! ```

use pba_bench::report::{secs, Table};
use pba_bench::workloads::{sweep_threads, time_median, workload};
use pba_dataflow::{collect_indirect_jumps, slice_indirect_jump, BinaryIr};
use pba_gen::Profile;
use rayon::prelude::*;

fn main() {
    let g = workload(Profile::Server, 0x51CE);
    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("well-formed ELF");
    let input = pba_parse::ParseInput::from_elf(&elf).expect(".text present");
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parsed = pba_parse::parse_parallel(&input, avail);
    let cfg = parsed.cfg;

    let jumps = collect_indirect_jumps(&cfg);
    // One decode-once IR for the whole sweep: the timed loops measure
    // slicing, not per-jump re-decoding.
    let ir = BinaryIr::build(&cfg, avail);
    let slice_all = |threads: usize| -> (usize, usize, usize) {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("slice pool");
        let tallies: Vec<(usize, usize, usize)> = pool.install(|| {
            jumps
                .par_iter()
                .map(|&(func, block)| {
                    let fir = ir.func(func).expect("function IR");
                    match slice_indirect_jump(fir, block) {
                        Some(o) => (
                            usize::from(o.facts.iter().any(|p| p.form.is_some())),
                            usize::from(o.facts.iter().any(|p| p.bound.is_some())),
                            usize::from(o.widened),
                        ),
                        None => (0, 0, 0),
                    }
                })
                .collect()
        });
        tallies.into_iter().fold((0, 0, 0), |a, t| (a.0 + t.0, a.1 + t.1, a.2 + t.2))
    };

    let (forms, bounds, widened) = slice_all(1);
    println!(
        "Jump-table slice sweep: Server-class binary, {} functions, {} indirect jumps\n\
         ({} classified, {} with a guard bound, {} widened past MAX_PATHS)\n",
        cfg.functions.len(),
        jumps.len(),
        forms,
        bounds,
        widened
    );

    let reps = 3;
    let baseline = time_median(reps, || {
        std::hint::black_box(slice_all(1));
    });

    let mut table = Table::new(&["threads", "time", "speedup"]);
    for threads in sweep_threads() {
        let tally = slice_all(threads);
        assert_eq!(
            tally,
            (forms, bounds, widened),
            "the classification tally must not depend on the thread count"
        );
        let t = time_median(reps, || {
            std::hint::black_box(slice_all(threads));
        });
        table.row(vec![threads.to_string(), secs(t), format!("{:.2}x", baseline / t)]);
    }
    println!("{}", table.render());
    println!(
        "baseline (1 thread): {}; each jump runs the engine-backed \
         SliceSpec fixpoint, and the pool fans jumps across its workers",
        secs(baseline)
    );
}
