//! The parallel control-flow traversal engine (paper Listings 2-3).
//!
//! Work items are `(function context, block start)` pairs. Under task
//! scheduling, discovering a function spawns its traversal immediately
//! into the enclosing rayon scope — onto the discovering worker's own
//! deque, from which idle workers steal, so one function whose
//! traversal explodes (a `Skewed`-profile giant) sheds its discoveries
//! to the rest of the pool instead of serializing it. Under rounds
//! scheduling, discoveries queue for the next level-synchronous batch
//! (the ablation baseline). Both schedulings produce canonically
//! identical CFGs at any thread count (the commutativity invariants of
//! Section 4, pinned by the equivalence tests).
//! The outer loop also drives the inter-round consequences: deferred
//! non-returning resolution, the jump-table fixed point, and the
//! ret-sweep for functions whose entry block was parsed inside another
//! function's traversal. That loop is incremental (`Fixpoint`): the
//! state logs every block-end and out-edge change after the first
//! quiescence, and a round re-walks only the `Unset` functions, and
//! re-slices only the jump tables, whose last walk or view read a
//! logged address. The terminator question ("does this block end in a
//! `ret`?") is a flag recorded at end registration, not a decode.

use crate::config::{ParseConfig, Scheduling};
use crate::finalize;
use crate::input::ParseInput;
use crate::jumptable::{decide, eval_targets, TableDecision};
use crate::snapshot::SnapshotView;
use crate::state::{CallDisposition, RawJumpTable, RegisterOutcome, State};
use crate::ParseResult;
use crossbeam::queue::SegQueue;
use pba_cfg::EdgeKind;
use pba_concurrent::fxhash::{FxHashMap, FxHashSet};
use pba_dataflow::slice_indirect_jump;
use pba_isa::{ControlFlow, Insn};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One traversal work item.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Function context the traversal is attributed to.
    pub func: u64,
    /// Block start to parse from.
    pub start: u64,
}

/// Where new work goes.
pub enum Sched<'a, 'scope> {
    /// Spawn into the live rayon scope (task parallelism).
    Task(&'a rayon::Scope<'scope>, &'scope SegQueue<Work>),
    /// Queue for the next round (level-synchronous ablation).
    Rounds(&'a SegQueue<Work>),
}

/// Result of linear parsing one block.
struct ParsedBlock {
    end: u64,
    term: Option<Insn>,
    teardown_before: bool,
}

/// Per-thread decode cache (paper Section 6.3): every address this
/// thread has decoded maps to the end/terminator of the block it falls
/// in, so branching into the middle of already-analyzed code skips
/// re-decoding. Keyed by a per-parse run id so concurrent or repeated
/// parses never observe each other's entries.
type DecodeCache = HashMap<u64, (u64, u64, bool)>;

thread_local! {
    static TLS_CACHE: std::cell::RefCell<(u64, DecodeCache)> =
        std::cell::RefCell::new((0, HashMap::new()));
}

fn linear_parse<'i>(state: &State<'i>, start: u64) -> ParsedBlock {
    if state.cfg.decode_cache {
        let hit = TLS_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if c.0 != state.run_id {
                c.0 = state.run_id;
                c.1.clear();
            }
            c.1.get(&start).copied()
        });
        if let Some((end, term_start, td)) = hit {
            state.stats.cache_hits.inc();
            let term = state.input.code.decode(term_start);
            return ParsedBlock { end, term, teardown_before: td };
        }
    }
    let code = &state.input.code;
    let mut at = start;
    let mut teardown = false;
    let mut visited: Vec<u64> = Vec::new();
    loop {
        let Some(insn) = code.decode(at) else {
            state.stats.decode_errors.inc();
            return ParsedBlock { end: at, term: None, teardown_before: false };
        };
        state.stats.insns_decoded.inc();
        if insn.is_cti() {
            if state.cfg.decode_cache {
                let end = insn.end();
                let term_start = insn.addr;
                TLS_CACHE.with(|c| {
                    let mut c = c.borrow_mut();
                    if c.0 != state.run_id {
                        c.0 = state.run_id;
                        c.1.clear();
                    }
                    // Record every visited boundary: a later branch into
                    // the middle of this code resolves without decoding.
                    // The teardown flag holds for any start at or before
                    // the penultimate instruction; the terminator's own
                    // address sees no preceding instruction.
                    for &a in &visited {
                        c.1.insert(a, (end, term_start, teardown));
                    }
                    c.1.insert(term_start, (end, term_start, false));
                });
            }
            return ParsedBlock { end: insn.end(), term: Some(insn), teardown_before: teardown };
        }
        visited.push(at);
        teardown = insn.is_frame_teardown();
        at = insn.end();
        if !code.contains(at) {
            return ParsedBlock { end: at, term: None, teardown_before: false };
        }
    }
}

/// Traverse from the work item's start in its function context
/// (Listing 3).
fn traverse<'i: 'scope, 'scope>(state: &'scope State<'i>, sched: &Sched<'_, 'scope>, w: Work) {
    let mut worklist = vec![w.start];
    while let Some(b) = worklist.pop() {
        let pb = linear_parse(state, b);
        if pb.end == b {
            // Undecodable from the first byte: retract the block.
            state.blocks.remove(&b);
            continue;
        }
        let ret = pb.term.is_some_and(|t| matches!(t.control_flow(), ControlFlow::Ret));
        match state.register_end(b, pb.end, ret) {
            RegisterOutcome::CreateEdges => {
                create_edges(state, sched, w.func, b, &pb, &mut worklist)
            }
            RegisterOutcome::SplitDone => {}
        }
    }
}

/// Handle a newly created function: traverse it, or — if its entry block
/// already exists from another function's traversal — scan the existing
/// subgraph for `ret`s so its status is not falsely `NoReturn`.
fn enter_function<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    entry: u64,
) {
    if state.create_block(entry) {
        submit(state, sched, Work { func: entry, start: entry });
    } else {
        scan_existing(state, sched, entry);
    }
}

/// Re-walk already-parsed blocks under a new function context.
fn scan_existing<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    entry: u64,
) {
    let w = walk(state, entry);
    if w.ret {
        let resumed = state.notify_returns(entry);
        process_resumed(state, sched, resumed);
    }
    // Tail-call dependencies out of this subgraph.
    for dst in w.tail_targets {
        let resumed = state.add_tail_dependency(entry, dst);
        process_resumed(state, sched, resumed);
    }
}

/// What one walk of a function's known intra-procedural subgraph saw.
#[derive(Default)]
struct Walk {
    /// Some walked block's registered terminator is a `ret`.
    ret: bool,
    /// Targets of tail-call edges leaving the walked blocks.
    tail_targets: Vec<u64>,
    /// Every block start and end the walk read; the walk is stale once
    /// the dirty log names any of them.
    footprint: Vec<u64>,
}

/// Walk `entry`'s known subgraph (blocks reachable over
/// intra-procedural edges, skipping blocks still being parsed). Reads
/// the terminator flag recorded at end registration instead of
/// decoding blocks.
fn walk(state: &State<'_>, entry: u64) -> Walk {
    let mut w = Walk::default();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut work = vec![entry];
    while let Some(b) = work.pop() {
        if !seen.insert(b) {
            continue;
        }
        w.footprint.push(b);
        let end = state.blocks.find(&b).map_or(0, |r| r.end);
        if end == 0 {
            continue;
        }
        w.footprint.push(end);
        if state.block_ends.find(&end).is_some_and(|r| r.ret) {
            w.ret = true;
        }
        if let Some(edges) = state.edges.find(&end) {
            for &(dst, kind) in edges.iter() {
                match kind {
                    EdgeKind::TailCall => w.tail_targets.push(dst),
                    EdgeKind::Call => {}
                    _ => work.push(dst),
                }
            }
        }
    }
    w
}

/// Create the call fall-through edges + parse work for resumed waiters.
fn process_resumed<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    resumed: Vec<(u64, u64)>,
) {
    for (call_end, caller) in resumed {
        state.add_edge(call_end, call_end, EdgeKind::CallFallthrough);
        if state.input.valid_code_addr(call_end) && state.create_block(call_end) {
            submit(state, sched, Work { func: caller, start: call_end });
        }
    }
}

fn submit<'i: 'scope, 'scope>(state: &'scope State<'i>, sched: &Sched<'_, 'scope>, w: Work) {
    match sched {
        Sched::Task(scope, queue) => {
            let q = *queue;
            scope.spawn(move |s| traverse(state, &Sched::Task(s, q), w));
        }
        Sched::Rounds(q) => q.push(w),
    }
}

/// Invariant 3: the registering thread creates all out-edges.
fn create_edges<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    fctx: u64,
    block_start: u64,
    pb: &ParsedBlock,
    worklist: &mut Vec<u64>,
) {
    let e = pb.end;
    let Some(term) = pb.term else { return };
    let valid = |t: u64| state.input.valid_code_addr(t);

    match term.control_flow() {
        ControlFlow::Branch { target } if valid(target) => {
            // Tail-call heuristics (Section 2.1): branch to a known
            // function entry, or a frame-teardown branch to new code.
            let is_entry = state.funcs.contains_key(&target);
            if is_entry {
                state.add_edge(e, target, EdgeKind::TailCall);
                if state.create_function(target, None, false) {
                    enter_function(state, sched, target);
                }
                let resumed = state.add_tail_dependency(fctx, target);
                process_resumed(state, sched, resumed);
            } else if state.blocks.contains_key(&target) && !pb.teardown_before {
                // Known block, no teardown: intra-procedural branch.
                state.add_edge(e, target, EdgeKind::Direct);
            } else if pb.teardown_before {
                // Teardown before the branch: tail call to a new
                // function (O_FEI).
                state.add_edge(e, target, EdgeKind::TailCall);
                if state.create_function(target, None, false) {
                    enter_function(state, sched, target);
                }
                let resumed = state.add_tail_dependency(fctx, target);
                process_resumed(state, sched, resumed);
            } else {
                state.add_edge(e, target, EdgeKind::Direct);
                if state.create_block(target) {
                    worklist.push(target);
                }
            }
        }
        ControlFlow::Branch { .. } => {} // branch out of the region
        ControlFlow::CondBranch { target } => {
            if valid(target) {
                state.add_edge(e, target, EdgeKind::CondTaken);
                if state.create_block(target) {
                    worklist.push(target);
                }
            }
            if valid(e) {
                state.add_edge(e, e, EdgeKind::CondNotTaken);
                if state.create_block(e) {
                    worklist.push(e);
                }
            }
        }
        ControlFlow::Call { target } if valid(target) => {
            state.add_edge(e, target, EdgeKind::Call);
            if state.create_function(target, None, false) {
                enter_function(state, sched, target);
            }
            match state.call_disposition(target, e, fctx) {
                CallDisposition::Fallthrough => {
                    state.add_edge(e, e, EdgeKind::CallFallthrough);
                    if valid(e) && state.create_block(e) {
                        worklist.push(e);
                    }
                }
                CallDisposition::NoFallthrough => {}
                CallDisposition::Waiting => {}
            }
        }
        ControlFlow::Call { .. } | ControlFlow::IndirectCall => {
            // Callee outside the region (PLT-like) or indirect: assume it
            // returns, as Dyninst does.
            state.add_edge(e, e, EdgeKind::CallFallthrough);
            if valid(e) && state.create_block(e) {
                worklist.push(e);
            }
        }
        ControlFlow::Ret => {
            let resumed = state.notify_returns(fctx);
            process_resumed(state, sched, resumed);
        }
        ControlFlow::Halt => {}
        ControlFlow::IndirectBranch => {
            let new_blocks = analyze_jump_table(state, fctx, block_start, e);
            for t in new_blocks {
                worklist.push(t);
            }
        }
        ControlFlow::Fallthrough => unreachable!("non-CTI cannot terminate a block"),
    }
}

/// Run the engine-backed slice over a snapshot, folding the widening
/// signal into the parse stats.
fn sliced_facts(state: &State<'_>, view: &SnapshotView, block: u64) -> Vec<pba_dataflow::PathFact> {
    match slice_indirect_jump(view, block) {
        Some(outcome) => {
            if outcome.widened {
                state.stats.jt_widened.inc();
            }
            outcome.facts
        }
        None => Vec::new(),
    }
}

/// Run jump-table analysis for the indirect jump whose block ends at
/// `e`. Adds indirect edges; returns the newly created target blocks
/// (to be parsed by the caller in this function context).
fn analyze_jump_table(state: &State<'_>, fctx: u64, block_start: u64, e: u64) -> Vec<u64> {
    let view = SnapshotView::build(state, fctx, &[block_start]);
    let facts = sliced_facts(state, &view, block_start);
    let Some(decision) = decide(&facts) else {
        // Record the unresolved jump so the post-quiescence fixed point
        // retries it with a fuller (and possibly re-split) subgraph —
        // the paper's "repeat the analysis of a jump table after more
        // control flow paths are created" (Section 5.3).
        state.jts.insert(
            e,
            RawJumpTable {
                func: fctx,
                block_start,
                block_end: e,
                table_addr: 0,
                stride: 0,
                relative: false,
                targets: Vec::new(),
                bounded: false,
            },
        );
        return Vec::new();
    };
    let (table_addr, stride, relative) = match decision.form {
        pba_dataflow::JumpTableForm::Absolute { table, scale, .. } => (table, scale, false),
        pba_dataflow::JumpTableForm::Relative { table, scale, .. } => (table, scale, true),
    };
    if decision.bound.is_none() {
        // No guard bound recovered: an unbounded scan now would plant
        // over-approximated edges that can split not-yet-parsed code
        // mid-instruction. Defer target creation to the post-quiescence
        // fixed point, where other discovered tables clamp the scan —
        // the paper's delay-vs-monotonicity balance of Section 5.3.
        state.stats.jt_unbounded.inc();
        state.jts.insert(
            e,
            RawJumpTable {
                func: fctx,
                block_start,
                block_end: e,
                table_addr,
                stride,
                relative,
                targets: Vec::new(),
                bounded: false,
            },
        );
        return Vec::new();
    }
    let (targets, bounded) = eval_targets(state.input, &decision, state.cfg.max_jt_entries);
    state.stats.jt_bounded.inc();
    {
        let (mut acc, _) = state.jts.insert_with(e, || RawJumpTable {
            func: fctx,
            block_start,
            block_end: e,
            table_addr,
            stride,
            relative,
            targets: Vec::new(),
            bounded,
        });
        acc.targets = targets.clone();
        acc.bounded = bounded;
        acc.block_start = block_start;
    }
    let mut new_blocks = Vec::new();
    for t in targets {
        state.add_edge(e, t, EdgeKind::Indirect);
        if state.create_block(t) {
            new_blocks.push(t);
        }
    }
    new_blocks
}

/// Memory of the post-quiescence fixpoint. Each round revisits only
/// the functions and tables whose known subgraph changed since their
/// last visit (the worklist rule: visit again only what changed). What
/// changed comes from the state's dirty log; what a visit depended on
/// is its footprint.
#[derive(Default)]
struct Fixpoint {
    /// Ret-sweep: footprint of each function's last walk.
    walks: FxHashMap<u64, Vec<u64>>,
    /// Ret-sweep: functions seen out of `Unset` (statuses never return
    /// to it), so later sweeps need not look them up.
    settled: FxHashSet<u64>,
    /// Refinement: footprint of each function's last slicing view.
    views: FxHashMap<u64, Vec<u64>>,
    /// Refinement, per table (keyed by the jump block's end): the block
    /// start the last slice ran from and the decision it produced.
    slices: FxHashMap<u64, (u64, Option<TableDecision>)>,
    /// Dirty addresses logged since the last refinement round.
    refine_dirty: FxHashSet<u64>,
}

impl Fixpoint {
    /// Sweep of the `Unset` functions: a function whose reachable
    /// subgraph contains a `ret` (parsed under another traversal
    /// context) gets `has_ret`, and tail-call edges out of the subgraph
    /// are re-registered as status dependencies — the traversal context
    /// that first parsed a shared block may not be every function that
    /// owns it. A function whose last walk read nothing the dirty log
    /// names is skipped: re-walking it would find the same (absent)
    /// `ret` and re-register dependencies that are all still in place,
    /// since a dependency is only ever drained by flipping its
    /// dependent to `Returns`. Returns resumed call sites from
    /// dependencies on already-returning targets.
    fn ret_sweep(&mut self, state: &State<'_>) -> Vec<(u64, u64)> {
        let dirty: FxHashSet<u64> = state.take_dirty().into_iter().collect();
        let entries: Vec<u64> = state
            .funcs
            .snapshot_keys()
            .into_iter()
            .filter(|f| {
                !self.settled.contains(f) && self.walks.get(f).is_none_or(|fp| touches(fp, &dirty))
            })
            .collect();
        let visits: Vec<(u64, Visit)> = entries
            .par_iter()
            .map(|&f| {
                let unset =
                    state.funcs.find(&f).is_some_and(|a| a.status == pba_cfg::RetStatus::Unset);
                if !unset {
                    return (f, Visit::Settled);
                }
                let w = walk(state, f);
                if w.ret {
                    state.mark_has_ret(f);
                }
                let resumed = w
                    .tail_targets
                    .iter()
                    .flat_map(|&dst| state.add_tail_dependency(f, dst))
                    .collect();
                (f, Visit::Walked { resumed, footprint: w.footprint })
            })
            .collect();
        self.refine_dirty.extend(dirty);
        let mut resumed = Vec::new();
        for (f, visit) in visits {
            match visit {
                Visit::Settled => {
                    self.settled.insert(f);
                }
                Visit::Walked { resumed: r, footprint } => {
                    state.stats.funcs_rewalked.inc();
                    resumed.extend(r);
                    self.walks.insert(f, footprint);
                }
            }
        }
        resumed
    }

    /// Post-quiescence jump-table fixed point (Section 5.3): re-analyze
    /// recorded tables with the now-larger function subgraphs; queue any
    /// new targets for another traversal round. Returns true if anything
    /// changed.
    ///
    /// A table is re-sliced only when its function's view is stale
    /// (or the jump's block was split); otherwise its cached decision
    /// stands. Target evaluation always re-runs, because a newly found
    /// table can tighten the clamp of an unbounded one.
    fn refine_jump_tables(&mut self, state: &State<'_>, queue: &SegQueue<Work>) -> bool {
        let dirty = std::mem::take(&mut self.refine_dirty);
        let tables: Vec<(u64, RawJumpTable)> =
            state.jts.snapshot().into_iter().map(|(k, v)| (k, v.read().clone())).collect();
        // Known table locations, sorted once per round: unbounded tables
        // are clamped against the next one ("compilers do not emit
        // overlapping jump tables"); finalization re-clamps as a safety
        // net for tables discovered even later.
        let mut starts: Vec<u64> =
            tables.iter().filter(|(_, t)| t.stride > 0).map(|(_, t)| t.table_addr).collect();
        starts.sort_unstable();
        starts.dedup();

        // The jump's block may have been split since discovery; the
        // current owner of the end is the block that actually holds the
        // indirect jump now.
        let mut by_func: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for (e, jt) in &tables {
            let cur_start = state.block_ends.find(e).map_or(jt.block_start, |a| a.start);
            by_func.entry(jt.func).or_default().push((*e, cur_start));
        }
        let stale_funcs: Vec<(u64, Vec<(u64, u64)>)> = by_func
            .into_iter()
            .filter(|(f, list)| {
                self.views.get(f).is_none_or(|fp| touches(fp, &dirty))
                    || list.iter().any(|(e, s)| self.slices.get(e).is_none_or(|(cs, _)| cs != s))
            })
            .collect();
        // One view per stale function, shared by all of its tables.
        let sliced: Vec<Sliced> = stale_funcs
            .par_iter()
            .map(|(f, list)| {
                let ensure: Vec<u64> = list.iter().map(|&(_, s)| s).collect();
                let view = SnapshotView::build(state, *f, &ensure);
                let decisions = list
                    .iter()
                    .map(|&(e, s)| (e, (s, decide(&sliced_facts(state, &view, s)))))
                    .collect();
                Sliced { func: *f, footprint: view.footprint().to_vec(), decisions }
            })
            .collect();
        for s in sliced {
            state.stats.tables_resliced.add(s.decisions.len() as u64);
            self.views.insert(s.func, s.footprint);
            self.slices.extend(s.decisions);
        }

        let slices = &self.slices;
        let changed: Vec<bool> = tables
            .par_iter()
            .map(|(e, jt)| match slices.get(e) {
                Some((cur_start, Some(decision))) => {
                    apply_decision(state, queue, &starts, *e, jt.func, *cur_start, decision)
                }
                _ => false,
            })
            .collect();
        changed.into_iter().any(|c| c)
    }
}

/// One function's ret-sweep visit.
enum Visit {
    /// The function has left `Unset` for good.
    Settled,
    /// Walked: the call sites its dependencies resumed, and what the
    /// walk read.
    Walked { resumed: Vec<(u64, u64)>, footprint: Vec<u64> },
}

/// One function's refinement visit: the view's footprint and, per
/// table end, the block start sliced from and the decision.
struct Sliced {
    func: u64,
    footprint: Vec<u64>,
    decisions: Vec<(u64, (u64, Option<TableDecision>))>,
}

/// Does a footprint read any address in the dirty set?
fn touches(footprint: &[u64], dirty: &FxHashSet<u64>) -> bool {
    !dirty.is_empty() && footprint.iter().any(|a| dirty.contains(a))
}

/// Evaluate one table's targets under `decision` and the current clamp,
/// and record any change: replace stale indirect edges, add the new
/// ones and queue their blocks. Returns true if the table changed.
fn apply_decision(
    state: &State<'_>,
    queue: &SegQueue<Work>,
    starts: &[u64],
    e: u64,
    func: u64,
    cur_start: u64,
    decision: &TableDecision,
) -> bool {
    let (table_addr, stride, relative) = match decision.form {
        pba_dataflow::JumpTableForm::Absolute { table, scale, .. } => (table, scale, false),
        pba_dataflow::JumpTableForm::Relative { table, scale, .. } => (table, scale, true),
    };
    let max_entries = if decision.bound.is_some() {
        state.cfg.max_jt_entries
    } else {
        match starts.get(starts.partition_point(|&a| a <= table_addr)) {
            Some(&n) if stride > 0 => {
                (((n - table_addr) / stride as u64) as usize).min(state.cfg.max_jt_entries)
            }
            _ => state.cfg.max_jt_entries,
        }
    };
    let (targets, bounded) = eval_targets(state.input, decision, max_entries);
    let stale: Vec<u64> = {
        let Some(mut acc) = state.jts.find_mut(&e) else { return false };
        if targets == acc.targets && bounded == acc.bounded && acc.stride != 0 {
            return false;
        }
        // Targets dropped by a tighter clamp leave stale indirect edges
        // behind; collect them for removal (O_ER is commutative, so this
        // is safe here).
        let stale = acc.targets.iter().copied().filter(|t| !targets.contains(t)).collect();
        acc.targets = targets.clone();
        acc.bounded = bounded;
        acc.block_start = cur_start;
        acc.table_addr = table_addr;
        acc.stride = stride;
        acc.relative = relative;
        stale
    };
    if !stale.is_empty() {
        if let Some(mut acc) = state.edges.find_mut(&e) {
            acc.retain(|&(d, k)| !(k == EdgeKind::Indirect && stale.contains(&d)));
        }
        state.mark_dirty(e);
    }
    for t in targets {
        state.add_edge(e, t, EdgeKind::Indirect);
        if state.create_block(t) {
            queue.push(Work { func, start: t });
        }
    }
    true
}

/// Run `f`, adding its wall time to `ns`.
fn timed<R>(ns: &pba_concurrent::Counter, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    ns.add(t.elapsed().as_nanos() as u64);
    r
}

/// Run the full engine: init, traversal rounds, status resolution,
/// jump-table fixed point, finalization.
pub fn run(input: &ParseInput, cfg: &ParseConfig) -> ParseResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.effective_threads())
        .build()
        .expect("thread pool");

    pool.install(|| {
        let state = State::new(input, cfg);
        let stats = &state.stats;
        let queue: SegQueue<Work> = SegQueue::new();
        timed(&stats.seed_ns, || {
            // Stage 1: parallel function initialization from the symbol
            // table (Listing 2 line 1).
            input.seeds.par_iter().for_each(|(addr, name)| {
                if input.code.contains(*addr) {
                    state.create_function(*addr, Some(name.clone()), true);
                }
            });
            for f in state.funcs.snapshot_keys() {
                if state.create_block(f) {
                    queue.push(Work { func: f, start: f });
                }
            }
        });

        let mut fix = Fixpoint::default();
        let mut jt_rounds_left = cfg.jt_refine_rounds;
        loop {
            // Drain pending work into a batch.
            let batch: Vec<Work> = std::iter::from_fn(|| queue.pop()).collect();
            if !batch.is_empty() {
                stats.traverse_batches.inc();
                timed(&stats.traverse_ns, || match cfg.scheduling {
                    Scheduling::Task => {
                        rayon::scope(|s| {
                            for w in batch {
                                let stref: &State<'_> = &state;
                                let q = &queue;
                                s.spawn(move |s2| traverse(stref, &Sched::Task(s2, q), w));
                            }
                        });
                    }
                    Scheduling::Rounds => {
                        batch.par_iter().for_each(|w| traverse(&state, &Sched::Rounds(&queue), *w));
                    }
                });
                continue;
            }

            // Quiesced: resolve statuses (no-op in eager mode unless a
            // sweep set has_ret late), then the jump-table fixed point.
            // Always loop after resuming call sites: even when their
            // fall-through blocks already exist, the new summary edges
            // can make further `ret`s reachable for the next sweep.
            // From here on every graph change is logged, so each round
            // revisits only what the previous ones changed.
            state.track_changes();
            stats.ret_sweeps.inc();
            let mut resumed = timed(&stats.ret_sweep_ns, || fix.ret_sweep(&state));
            stats.resolve_passes.inc();
            resumed.extend(timed(&stats.resolve_ns, || state.resolve_statuses()));
            if !resumed.is_empty() {
                process_resumed(&state, &Sched::Rounds(&queue), resumed);
                continue;
            }
            if jt_rounds_left > 0 {
                stats.jt_refine_rounds.inc();
                if timed(&stats.jt_refine_ns, || fix.refine_jump_tables(&state, &queue)) {
                    // Something changed: even without new blocks, new
                    // edges can alter status reachability — loop so the
                    // sweep and resolution re-run.
                    jt_rounds_left -= 1;
                    continue;
                }
            }
            if queue.is_empty() {
                break;
            }
        }
        timed(&stats.resolve_ns, || state.close_statuses());
        // Finalization runs inside the sized pool so its parallel steps
        // use the configured thread count (Table 2's CFG column times
        // the whole construction, finalization included).
        finalize::finalize(state)
    })
}
