//! Serial and parallel CFG construction — the paper's core contribution.
//!
//! The engine implements the three-stage structure of Listing 2:
//!
//! 1. **Parallel initialization** — function seeds come from the symbol
//!    table (plus the ELF entry point) and are inserted through the
//!    accessor map, so duplicate symbols resolve to one function
//!    (Invariant 5).
//! 2. **Parallel control-flow traversal** (Listing 3) — tasks traverse
//!    one function each, spawning a new task the moment a new function
//!    is discovered (the task-parallelism lesson of Section 6.3; the
//!    level-synchronous `parallel for` of Listing 2 is kept as an
//!    ablation via [`ParseConfig::scheduling`]). Traversal maintains the
//!    five invariants of Section 5.2:
//!    * *Block creation* — at most one block per start address
//!      (accessor-map insert winner parses it);
//!    * *Block end* — at most one block registered per end address,
//!      checked once per control-flow instruction, not per instruction;
//!    * *Edge creation* — only the end-registering thread creates the
//!      out-edges (and runs jump-table analysis);
//!    * *Block split* — losers run the eager split loop, which
//!      re-registers at a strictly smaller end address each iteration
//!      and therefore converges;
//!    * *Function creation* — at most one function per entry.
//!
//!    Edges are keyed by `(source block end, target start)` — the
//!    identity the paper's partial order preserves across splits — so
//!    splitting never migrates edges at all; only the implicit
//!    fall-through edge is added.
//! 3. **Parallel finalization** (Section 5.4) — jump-table
//!    over-approximations are clamped using the "compilers do not emit
//!    overlapping jump tables" observation, tail calls are corrected
//!    with the three rules, function boundaries are recomputed by
//!    intra-procedural reachability, and functions without incoming
//!    inter-procedural edges are removed. It consumes the concurrent
//!    maps into plain data and works on dense block ranks (a
//!    `BlockIndex`, CSR adjacency, sorted membership lists); a
//!    tail-call round recomputes only the memberships its flips touch.
//!
//! Non-returning functions use the eager-notification protocol of
//! Section 5.3: the first `ret` decoded in a function flips its status
//! to `Returns` and immediately resumes every call site waiting on it.
//! Remaining `Unset` functions (cyclic dependencies, `hlt`/`ud2` bodies)
//! become `NoReturn` when traversal quiesces.
//!
//! Between stages 2 and 3, whenever traversal quiesces, a fixpoint
//! loop settles what traversal alone cannot: a ret-sweep over `Unset`
//! functions whose `ret` was parsed under another function's context,
//! status resolution, and the jump-table re-analysis of Section 5.3;
//! any new work re-enters traversal. The loop follows the worklist
//! rule — visit again only what changed: every block-end change and
//! out-edge change after the first quiescence goes to a dirty log, each
//! walk and slicing view records the blocks it read, and a round skips
//! every function and table whose record the log does not touch.
//! Status resolution runs off a queue of functions whose `has_ret` or
//! status changed. Each parse times these sub-phases in its
//! [`ParseStats`].
//!
//! `parse_serial` is the same engine on a one-thread pool — the paper's
//! serial baseline — and the determinism tests assert that any thread
//! count produces the identical canonical CFG.

pub mod config;
pub mod finalize;
pub mod input;
pub mod jumptable;
pub mod snapshot;
pub mod state;
pub mod stats;
pub mod traverse;

pub use config::{ParseConfig, Scheduling};
pub use input::ParseInput;
pub use stats::ParseStats;

use pba_cfg::Cfg;

/// Output of a parse: the finalized CFG plus work metrics.
pub struct ParseResult {
    /// The finalized control-flow graph.
    pub cfg: Cfg,
    /// Machine-independent work counters.
    pub stats: ParseStats,
}

/// Parse with an explicit configuration (thread count, scheduling,
/// ablation toggles).
pub fn parse(input: &ParseInput, cfg: &ParseConfig) -> ParseResult {
    traverse::run(input, cfg)
}

/// The paper's parallel configuration on `threads` threads.
pub fn parse_parallel(input: &ParseInput, threads: usize) -> ParseResult {
    parse(input, &ParseConfig { threads, ..Default::default() })
}

/// Serial baseline: the same engine on one thread.
pub fn parse_serial(input: &ParseInput) -> ParseResult {
    parse(input, &ParseConfig { threads: 1, ..Default::default() })
}
