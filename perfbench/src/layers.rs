//! Work counters read from the layers' public stats around the ops:
//! session compute counts, parse counters, and the process-global
//! dataflow and scheduler counters.

use crate::trace::{step, OpTrace};
use crate::Outcome;
use pba_driver::{Session, SessionStats};

/// Open a session. A traced op then computes the artifacts every
/// workload's final call depends on — ELF, DWARF, CFG, IR — one by one
/// under their own spans, so the final call's span is its self time.
/// An untraced op leaves them to that final call.
pub fn open_session(
    op: &mut Option<OpTrace<'_>>,
    open: impl FnOnce() -> Option<Session>,
) -> Option<Session> {
    let s = step(op, "elf.open", open)?;
    if let Some(op) = op {
        op.span("elf.open", || s.elf().ok())?;
        op.span("dwarf.decode", || s.debug_info().ok())?;
        op.span("parse.cfg", || s.cfg().ok())?;
        op.span("dataflow.ir", || s.ir().ok())?;
    }
    Some(s)
}

/// Artifact computes beyond the first, summed over a session's
/// artifacts (0 when memoization held).
pub fn recomputes(s: &SessionStats) -> u64 {
    [
        s.elf_parses,
        s.dwarf_decodes,
        s.cfg_parses,
        s.ir_builds,
        s.dataflow_runs,
        s.structure_builds,
        s.feature_builds,
    ]
    .iter()
    .map(|&n| n.saturating_sub(1))
    .sum()
}

/// Global work counters read around a traced window.
pub struct Counters {
    visits: u64,
    executed: u64,
    stolen: u64,
}

impl Counters {
    pub fn read() -> Counters {
        Counters {
            visits: pba_dataflow::engine::stats::VISITS.get(),
            executed: rayon::stats::TASKS_EXECUTED.get(),
            stolen: rayon::stats::TASKS_STOLEN.get(),
        }
    }

    /// Per-op deltas since `self`, into `dataflow.visits` and `rayon.*`.
    pub fn report(&self, ops: usize, out: &mut Outcome) {
        let now = Counters::read();
        let n = ops.max(1) as f64;
        let executed = (now.executed - self.executed) as f64;
        let stolen = (now.stolen - self.stolen) as f64;
        out.set("dataflow.visits", (now.visits - self.visits) as f64 / n);
        out.set("rayon.tasks_executed", executed / n);
        out.set("rayon.tasks_stolen", stolen / n);
        out.set("rayon.steal_ratio", if executed > 0.0 { stolen / executed } else { 0.0 });
    }
}

/// Per-op parse counters, structure size and session footprint, summed
/// over the traced ops.
#[derive(Default)]
pub struct SessionTotals {
    n: f64,
    insns: f64,
    unique_insns: f64,
    created: f64,
    races: f64,
    splits: f64,
    edges: f64,
    jt_unbounded: f64,
    flips: f64,
    text_bytes: f64,
    resident: f64,
    recomputes: f64,
}

impl SessionTotals {
    /// Read one session's counters (its artifacts are all memoized).
    pub fn add(&mut self, s: &Session) {
        let (Ok(p), Ok(ir)) = (s.parse_stats(), s.ir()) else { return };
        self.n += 1.0;
        self.insns += p.insns_decoded as f64;
        self.unique_insns += ir.unique_block_insn_count() as f64;
        self.created += p.blocks_created as f64;
        self.races += p.block_races as f64;
        self.splits += p.split_iterations as f64;
        self.edges += p.edges_created as f64;
        self.jt_unbounded += p.jt_unbounded as f64;
        self.flips += p.tailcall_flips as f64;
        let stats = s.stats();
        if stats.structure_builds > 0 {
            self.text_bytes += s.structure().map_or(0, |h| h.text.len()) as f64;
        }
        self.resident += stats.resident_bytes as f64;
        self.recomputes += recomputes(&stats) as f64;
    }

    pub fn merge(&mut self, o: SessionTotals) {
        self.n += o.n;
        self.insns += o.insns;
        self.unique_insns += o.unique_insns;
        self.created += o.created;
        self.races += o.races;
        self.splits += o.splits;
        self.edges += o.edges;
        self.jt_unbounded += o.jt_unbounded;
        self.flips += o.flips;
        self.text_bytes += o.text_bytes;
        self.resident += o.resident;
        self.recomputes += o.recomputes;
    }

    pub fn report(&self, out: &mut Outcome) {
        let n = self.n.max(1.0);
        out.set("parse.insns_decoded", self.insns / n);
        out.set("parse.blocks_created", self.created / n);
        out.set("parse.block_races", self.races / n);
        out.set("parse.split_iterations", self.splits / n);
        out.set("parse.edges_created", self.edges / n);
        out.set("parse.jt_unbounded", self.jt_unbounded / n);
        out.set("parse.tailcall_flips", self.flips / n);
        out.set("parse.block_race_ratio", self.races / (self.created + self.races).max(1.0));
        out.set("parse.decode_redundancy", self.insns / self.unique_insns.max(1.0));
        out.set("hpcstruct.text_bytes", self.text_bytes / n);
        out.set("driver.resident_mib", self.resident / n / (1 << 20) as f64);
        out.set("driver.recomputes", self.recomputes);
    }
}
