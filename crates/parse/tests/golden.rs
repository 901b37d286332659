//! Golden canonical-CFG digests.
//!
//! The determinism suites compare the engine with itself (serial vs.
//! parallel, task vs. rounds, eager vs. deferred). This suite pins the
//! engine against fixed digests of `Cfg::canonical()`, so any change to
//! the parser that alters a single block, edge, function membership or
//! return status shows up here, whatever the thread count or schedule.
//!
//! Each workload is parsed under every combination of 1/2/4 threads,
//! task/rounds scheduling and eager/deferred non-returning notification;
//! all twelve parses must hash to the workload's recorded digest. When a
//! parser change is *meant* to alter the output, the failure message
//! prints the full recomputed table to paste below.

use pba_cfg::{Cfg, EdgeKind, RetStatus};
use pba_elf::image::fnv1a_64;
use pba_gen::{generate, GenConfig, Profile};
use pba_parse::{parse, ParseConfig, ParseInput, Scheduling};

/// `(workload name, digest)`, recorded from the parser before the
/// incremental post-traversal fixpoint and the dense finalize landed.
const GOLDEN: &[(&str, u64)] = &[
    ("LLNL1", 0x8be1c1031bd77c6c),
    ("LLNL2", 0x2049df82e96f884f),
    ("Camellia", 0x0be2559cf82bab87),
    ("TensorFlow", 0xf9bce29729275689),
    ("coreutils", 0xe039bf04d770444d),
    ("server", 0xadc8b37a8f82f130),
    ("skewed", 0xa7cc5063d8e3b5ff),
    ("shared-0.0", 0xdd968d6181ac4653),
    ("shared-0.2", 0x44dc42d03713d820),
    ("shared-0.4", 0x92fc9f69a26db30d),
    ("TensorFlow-320", 0x3d6c5e5b2a0ceaa6),
];

/// The workloads: every profile at a small scale, plus a `pct_shared`
/// sweep (shared blocks exercise multi-owner membership and the
/// tail-call correction rules).
fn workloads() -> Vec<(String, GenConfig)> {
    let profiles = [
        (Profile::Llnl1, 11),
        (Profile::Llnl2, 12),
        (Profile::Camellia, 13),
        (Profile::TensorFlow, 14),
        (Profile::Coreutils, 15),
        (Profile::Server, 16),
        (Profile::Skewed, 17),
    ];
    let mut out = Vec::new();
    for (p, seed) in profiles {
        let mut cfg = p.config(seed);
        cfg.num_funcs = cfg.num_funcs.min(48);
        if cfg.huge_diamonds > 0 {
            cfg.huge_diamonds = 120;
        }
        cfg.debug_info = false; // the parser reads only .text/.symtab
        out.push((p.name().to_string(), cfg));
    }
    for (i, pct) in [0.0, 0.2, 0.4].into_iter().enumerate() {
        let cfg = GenConfig {
            num_funcs: 48,
            seed: 20 + i as u64,
            pct_shared: pct,
            pct_switch: 0.2,
            pct_tailcall: 0.1,
            debug_info: false,
            ..Default::default()
        };
        out.push((format!("shared-{pct:.1}"), cfg));
    }
    // One mid-sized TensorFlow-class binary: enough jump tables and
    // functions to drive several refinement rounds and tail-call flips.
    let mut tf = Profile::TensorFlow.config(18);
    tf.num_funcs = 320;
    tf.debug_info = false;
    out.push(("TensorFlow-320".to_string(), tf));
    out
}

fn kind_code(k: EdgeKind) -> u8 {
    match k {
        EdgeKind::Fallthrough => 0,
        EdgeKind::CondTaken => 1,
        EdgeKind::CondNotTaken => 2,
        EdgeKind::Direct => 3,
        EdgeKind::Indirect => 4,
        EdgeKind::Call => 5,
        EdgeKind::CallFallthrough => 6,
        EdgeKind::TailCall => 7,
    }
}

fn status_code(s: RetStatus) -> u8 {
    match s {
        RetStatus::Unset => 0,
        RetStatus::Returns => 1,
        RetStatus::NoReturn => 2,
    }
}

/// FNV-1a over a fixed little-endian serialization of the canonical
/// form: counts first, then blocks, edges and functions in their
/// canonical (sorted) order.
fn digest(cfg: &Cfg) -> u64 {
    let c = cfg.canonical();
    let mut buf: Vec<u8> = Vec::new();
    let mut put = |v: u64| buf.extend_from_slice(&v.to_le_bytes());
    put(c.blocks.len() as u64);
    put(c.edges.len() as u64);
    put(c.functions.len() as u64);
    for &(s, e) in &c.blocks {
        put(s);
        put(e);
    }
    for e in &c.edges {
        put(e.src);
        put(e.dst);
        put(kind_code(e.kind) as u64);
    }
    for (entry, blocks, status) in &c.functions {
        put(*entry);
        put(status_code(*status) as u64);
        put(blocks.len() as u64);
        for &b in blocks {
            put(b);
        }
    }
    fnv1a_64(&buf)
}

fn configs() -> Vec<ParseConfig> {
    let mut out = Vec::new();
    for threads in [1, 2, 4] {
        for scheduling in [Scheduling::Task, Scheduling::Rounds] {
            for eager_noreturn in [true, false] {
                out.push(ParseConfig { threads, scheduling, eager_noreturn, ..Default::default() });
            }
        }
    }
    out
}

#[test]
fn canonical_cfgs_match_golden_digests() {
    let mut table = String::new();
    let mut failures = Vec::new();
    for (name, gen) in workloads() {
        let g = generate(&gen);
        let elf = pba_elf::Elf::parse(g.elf.clone()).expect("generated ELF parses");
        let input = ParseInput::from_elf(&elf).expect("generated ELF has .text");
        let digests: Vec<(String, u64)> = configs()
            .into_iter()
            .map(|c| {
                let label = format!("{}t/{:?}/eager={}", c.threads, c.scheduling, c.eager_noreturn);
                (label, digest(&parse(&input, &c).cfg))
            })
            .collect();
        let got = digests[0].1;
        table.push_str(&format!("    (\"{name}\", {got:#018x}),\n"));
        for (label, d) in &digests {
            if *d != got {
                failures.push(format!(
                    "{name}: {label} gave {d:#018x}, 1t/Task/eager gave {got:#018x}"
                ));
            }
        }
        match GOLDEN.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => {
                failures.push(format!("{name}: digest {got:#018x}, golden {want:#018x}"))
            }
            None => failures.push(format!("{name}: no golden digest recorded")),
        }
    }
    assert!(failures.is_empty(), "{}\nrecomputed table:\n{table}", failures.join("\n"));
}
