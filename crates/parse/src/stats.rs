//! Machine-independent work metrics.
//!
//! Wall-clock scaling on a given host is one signal; these counters are
//! the other. They let the benches compare configurations (eager vs.
//! deferred notification, cache on/off, task vs. rounds) by *work done*
//! even on machines with few cores.
//!
//! Each parse also times its own sub-phases (seed, traversal batches,
//! ret-sweep, status resolution, jump-table refinement, finalization)
//! and counts the rounds of each, so "where did the parse go?" can be
//! answered per parse without a profiler. The timers are a handful of
//! `Instant::now()` calls per round, not per block.

use pba_concurrent::Counter;
use serde::Serialize;

/// Counters maintained during a parse.
#[derive(Debug, Default)]
pub struct ParseStats {
    /// Instructions decoded (including redundant overlap decoding).
    pub insns_decoded: Counter,
    /// Linear parses answered by the per-task decode cache.
    pub cache_hits: Counter,
    /// Basic blocks created (Invariant 1 winners).
    pub blocks_created: Counter,
    /// Block-creation races lost.
    pub block_races: Counter,
    /// Block-end registrations (Invariant 2 winners).
    pub ends_registered: Counter,
    /// Eager block-split iterations (Invariant 4).
    pub split_iterations: Counter,
    /// Edges inserted.
    pub edges_created: Counter,
    /// Functions created (Invariant 5 winners).
    pub funcs_created: Counter,
    /// Call sites that waited on an unresolved callee status.
    pub noreturn_waits: Counter,
    /// Call sites resumed by eager `Returns` notification.
    pub noreturn_resumes: Counter,
    /// Jump tables whose bound was recovered from a guard.
    pub jt_bounded: Counter,
    /// Jump tables scanned without a recovered bound
    /// (over-approximated until finalization).
    pub jt_unbounded: Counter,
    /// Slicing runs whose path-state set hit the lattice cap and
    /// widened to bare classified forms (`pba_dataflow::SliceSpec`).
    pub jt_widened: Counter,
    /// Indirect-jump edges removed by finalization clamping.
    pub jt_edges_clamped: Counter,
    /// Tail-call decisions flipped during finalization.
    pub tailcall_flips: Counter,
    /// Undecodable candidate blocks.
    pub decode_errors: Counter,
    /// Nanoseconds seeding functions from the symbol table (stage 1).
    pub seed_ns: Counter,
    /// Nanoseconds in traversal batches (stage 2, Listing 3).
    pub traverse_ns: Counter,
    /// Traversal batches run: the first, plus one per fixpoint round
    /// that queued new work.
    pub traverse_batches: Counter,
    /// Nanoseconds in post-quiescence ret-sweeps.
    pub ret_sweep_ns: Counter,
    /// Ret-sweeps run.
    pub ret_sweeps: Counter,
    /// Nanoseconds resolving non-returning statuses.
    pub resolve_ns: Counter,
    /// Status-resolution passes run.
    pub resolve_passes: Counter,
    /// Nanoseconds in jump-table refinement rounds.
    pub jt_refine_ns: Counter,
    /// Jump-table refinement rounds run.
    pub jt_refine_rounds: Counter,
    /// Nanoseconds in finalization (stage 3).
    pub finalize_ns: Counter,
    /// Functions walked by ret-sweeps (a function whose last walk is
    /// untouched by later changes is not walked again).
    pub funcs_rewalked: Counter,
    /// Jump tables sliced by refinement rounds (a table whose function
    /// view is untouched keeps its cached decision).
    pub tables_resliced: Counter,
}

/// Plain-data snapshot for serialization/reporting.
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    pub insns_decoded: u64,
    pub cache_hits: u64,
    pub blocks_created: u64,
    pub block_races: u64,
    pub ends_registered: u64,
    pub split_iterations: u64,
    pub edges_created: u64,
    pub funcs_created: u64,
    pub noreturn_waits: u64,
    pub noreturn_resumes: u64,
    pub jt_bounded: u64,
    pub jt_unbounded: u64,
    pub jt_widened: u64,
    pub jt_edges_clamped: u64,
    pub tailcall_flips: u64,
    pub decode_errors: u64,
    pub seed_ns: u64,
    pub traverse_ns: u64,
    pub traverse_batches: u64,
    pub ret_sweep_ns: u64,
    pub ret_sweeps: u64,
    pub resolve_ns: u64,
    pub resolve_passes: u64,
    pub jt_refine_ns: u64,
    pub jt_refine_rounds: u64,
    pub finalize_ns: u64,
    pub funcs_rewalked: u64,
    pub tables_resliced: u64,
}

impl ParseStats {
    /// Snapshot all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            insns_decoded: self.insns_decoded.get(),
            cache_hits: self.cache_hits.get(),
            blocks_created: self.blocks_created.get(),
            block_races: self.block_races.get(),
            ends_registered: self.ends_registered.get(),
            split_iterations: self.split_iterations.get(),
            edges_created: self.edges_created.get(),
            funcs_created: self.funcs_created.get(),
            noreturn_waits: self.noreturn_waits.get(),
            noreturn_resumes: self.noreturn_resumes.get(),
            jt_bounded: self.jt_bounded.get(),
            jt_unbounded: self.jt_unbounded.get(),
            jt_widened: self.jt_widened.get(),
            jt_edges_clamped: self.jt_edges_clamped.get(),
            tailcall_flips: self.tailcall_flips.get(),
            decode_errors: self.decode_errors.get(),
            seed_ns: self.seed_ns.get(),
            traverse_ns: self.traverse_ns.get(),
            traverse_batches: self.traverse_batches.get(),
            ret_sweep_ns: self.ret_sweep_ns.get(),
            ret_sweeps: self.ret_sweeps.get(),
            resolve_ns: self.resolve_ns.get(),
            resolve_passes: self.resolve_passes.get(),
            jt_refine_ns: self.jt_refine_ns.get(),
            jt_refine_rounds: self.jt_refine_rounds.get(),
            finalize_ns: self.finalize_ns.get(),
            funcs_rewalked: self.funcs_rewalked.get(),
            tables_resliced: self.tables_resliced.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = ParseStats::default();
        s.insns_decoded.add(10);
        s.split_iterations.inc();
        let snap = s.snapshot();
        assert_eq!(snap.insns_decoded, 10);
        assert_eq!(snap.split_iterations, 1);
        assert_eq!(snap.edges_created, 0);
    }
}
