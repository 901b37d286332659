//! End-to-end benchmark of the pba stack, with a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hpcstruct-tf|forensics-batch|daemon-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` by `pba-gen`, which also records
//! their exact ground truth; the program under test sees only the
//! generated files and bytes. Every op's output is checked against that
//! truth outside the timed region. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same workload untraced and then traced
//! (half the window each) and reports per-layer metrics. The last line
//! of standard output is one JSON object with the results. The metric
//! names, and which layer metric should move which end-to-end metric,
//! are listed in `METRICS.md` beside this package.

mod daemon;
mod forensics;
mod hpcstruct_tf;
mod layers;
mod stats;
mod trace;
mod truth;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The machine the benchmark was defined on reports 2 CPUs: every
/// analysis session runs with 2 threads, and the load generator uses at
/// most 2 client threads.
pub const ANALYSIS_THREADS: usize = 2;
pub const CLIENT_THREADS: usize = 2;

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

const PER_LAYER: [(&str, &str); 44] = [
    ("failed_ratio", "ratio"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("topk_recall", "ratio"),
    ("trace_overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("other_ms", "ms"),
    ("elf.open_ms", "ms"),
    ("dwarf.decode_ms", "ms"),
    ("parse.cfg_ms", "ms"),
    ("parse.insns_decoded", "count"),
    ("parse.blocks_created", "count"),
    ("parse.block_races", "count"),
    ("parse.split_iterations", "count"),
    ("parse.edges_created", "count"),
    ("parse.jt_unbounded", "count"),
    ("parse.tailcall_flips", "count"),
    ("parse.block_race_ratio", "ratio"),
    ("parse.decode_redundancy", "ratio"),
    ("dataflow.ir_ms", "ms"),
    ("dataflow.visits", "count"),
    ("hpcstruct.structure_ms", "ms"),
    ("hpcstruct.text_bytes", "bytes"),
    ("binfeat.features_ms", "ms"),
    ("binfeat.ingest_ms", "ms"),
    ("binfeat.topk_ms", "ms"),
    ("binfeat.candidate_ratio", "ratio"),
    ("binfeat.index_mib", "MiB"),
    ("driver.resident_mib", "MiB"),
    ("driver.recomputes", "count"),
    ("driver.drop_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "1/op"),
    ("serve.errors", "count"),
    ("rayon.tasks_executed", "count"),
    ("rayon.tasks_stolen", "count"),
    ("rayon.steal_ratio", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Scratch directory for generated inputs, removed at exit.
    pub work: PathBuf,
    /// Directory the span logs of traced runs are written to.
    pub traces: PathBuf,
}

/// What a workload run reports. Per-layer metrics a workload never
/// exercises are reported as 0.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not valid when a benchmark-side check (not an op)
    /// failed, such as the waterfall closure check.
    pub invalid: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts printed beside the metrics they back.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The op-latency metrics of an untraced window.
    pub fn set_latency(&mut self, lat_ms: &[f64], measured_s: f64) {
        self.set("op_p50_ms", stats::median(lat_ms));
        self.set("op_p90_ms", stats::percentile(lat_ms, 0.9));
        self.set("ops_per_s", lat_ms.len() as f64 / measured_s);
        self.samples.insert("op_p50_ms", lat_ms.len());
        self.samples.insert("op_p90_ms", lat_ms.len());
    }

    /// The waterfall and closure check of a traced window.
    pub fn set_waterfall(&mut self, w: &trace::Waterfall, untraced_p50: f64, traced_p50: f64) {
        for (name, metric) in [
            ("elf.open", "elf.open_ms"),
            ("dwarf.decode", "dwarf.decode_ms"),
            ("parse.cfg", "parse.cfg_ms"),
            ("dataflow.ir", "dataflow.ir_ms"),
            ("hpcstruct.structure", "hpcstruct.structure_ms"),
            ("binfeat.features", "binfeat.features_ms"),
            ("binfeat.ingest", "binfeat.ingest_ms"),
            ("binfeat.topk", "binfeat.topk_ms"),
            ("serve.encode", "serve.encode_ms"),
            ("serve.decode", "serve.decode_ms"),
            ("serve.handle", "serve.handle_ms"),
            ("driver.drop", "driver.drop_ms"),
        ] {
            self.set(metric, w.layer(name));
        }
        self.set("other_ms", w.other_ms());
        self.set("trace.coverage", w.coverage);
        self.set("trace.coverage_min", w.coverage_min);
        self.set("trace_overhead_ratio", traced_p50 / untraced_p50);
        self.samples.insert("trace.coverage", w.ops);
        if w.coverage < 0.9 {
            self.invalid = Some(format!("layer spans cover {:.3} of op wall time", w.coverage));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <hpcstruct-tf|forensics-batch|daemon-mixed> \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).cloned();
    let workload = get("--workload").unwrap_or_else(|| usage());
    let seed = get("--seed").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let seconds: f64 = get("--seconds").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    let work = target.join("perfbench-work").join(format!("{workload}-{}", std::process::id()));
    let traces = target.join("perfbench-traces");
    Args { workload, seed, window: Duration::from_secs_f64(seconds), trace, work, traces }
}

fn main() {
    let args = parse_args();
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "hpcstruct-tf" => hpcstruct_tf::run,
        "forensics-batch" => forensics::run,
        "daemon-mixed" => daemon::run,
        _ => usage(),
    };
    std::fs::create_dir_all(&args.work).expect("create the benchmark's work directory");
    let mut out = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    out.set("peak_rss_mib", stats::peak_rss_mib());
    out.set("failed_ratio", out.failed as f64 / out.attempted.max(1) as f64);

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => 0.0,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let n = out.samples.get(name).map_or(String::new(), |n| format!(" (n={n})"));
        println!("# {name} = {value} {unit}{n}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    if let Some(why) = &out.invalid {
        println!("# invalid run: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0 && out.invalid.is_none(),
        out.attempted,
        out.failed,
        json.join(", ")
    );
}

/// The one session configuration every analysis op runs with.
pub fn session_config(threads: usize) -> pba_driver::SessionConfig {
    pba_driver::SessionConfig::default().with_threads(threads).with_name("perfbench")
}

/// Run one op, turning a panic into a failed op.
pub fn guarded<T>(f: impl FnOnce() -> Option<T>) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok().flatten()
}

/// Write a traced run's spans to `<target>/perfbench-traces/`.
pub fn write_trace(args: &Args, spans: &[trace::Span]) {
    let path = args.traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&args.traces).and_then(|()| trace::write_jsonl(&path, spans));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
