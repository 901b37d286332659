//! CFG finalization (paper Section 5.4): remove wrong elements,
//! determine function boundaries. No new CFG elements are added.
//!
//! 1. **Jump-table finalization** — only now are all table locations
//!    known, so unbounded (over-approximated) tables are clamped at the
//!    next table's start ("compilers do not emit overlapping jump
//!    tables") and their excess indirect edges removed (`O_ER`).
//! 2. **Tail-call correction + function boundaries** — iterative
//!    parallel graph search: compute per-function block membership over
//!    intra-procedural edges, then apply the three correction rules;
//!    each edge flips at most once, guaranteeing convergence.
//! 3. **Function-entry cleanup** — non-seeded functions with no incoming
//!    inter-procedural edges are removed, and blocks unreachable from
//!    any surviving function are dropped.
//!
//! Steps 2 and 3 run on a dense graph (`Graph`): blocks are named by
//! their rank in address order (a [`BlockIndex`]), out-edges sit in one
//! CSR array with mutable kinds, and in-degree counters per block
//! answer the correction rules without an in-edge list. A function's
//! membership is its sorted list of block ranks. A tail-call round
//! recomputes only the memberships a flip can have changed — those of
//! the functions owning a flipped edge's source, plus newly labelled
//! entries — and step 3 reuses the last round's memberships.

use crate::state::{FuncState, RawJumpTable, State};
use crate::ParseResult;
use pba_cfg::{Block, BlockIndex, Cfg, Edge, EdgeKind, Function, RetStatus};
use pba_concurrent::fxhash::FxHashMap;
use pba_concurrent::ConcurrentHashMap;
use rayon::prelude::*;
use std::cell::RefCell;
use std::time::Instant;

/// Clamp over-approximated jump tables against the next table start.
fn clamp_jump_tables(state: &State<'_>) -> Vec<(u64, u64)> {
    let mut tables: Vec<RawJumpTable> =
        state.jts.snapshot().into_iter().map(|(_, v)| v.read().clone()).collect();
    tables.sort_by_key(|t| t.table_addr);
    let starts: Vec<u64> = tables.iter().filter(|t| t.stride > 0).map(|t| t.table_addr).collect();

    let mut removed = Vec::new();
    for t in &tables {
        if t.stride == 0 {
            continue;
        }
        if !t.bounded {
            // The next table that starts after ours bounds our extent.
            if let Some(next) = starts.iter().copied().find(|&s| s > t.table_addr) {
                let max_entries = ((next - t.table_addr) / t.stride as u64) as usize;
                if t.targets.len() > max_entries {
                    if let Some(mut acc) = state.jts.find_mut(&t.block_end) {
                        acc.targets.truncate(max_entries);
                    }
                }
            }
        }
        // Drop every indirect edge at this jump that is not in the final
        // target set — covers both the clamp above and stale edges from
        // earlier (wider) refinement rounds.
        let final_targets: Vec<u64> =
            state.jts.find(&t.block_end).map(|a| a.targets.clone()).unwrap_or_default();
        if let Some(mut acc) = state.edges.find_mut(&t.block_end) {
            acc.retain(|&(d, k)| {
                let keep = k != EdgeKind::Indirect || final_targets.contains(&d);
                if !keep {
                    removed.push((t.block_end, d));
                    state.stats.jt_edges_clamped.inc();
                }
                keep
            });
        }
    }
    removed
}

/// Plain (unlocked, consumed) copies of the traversal maps.
type Map<V> = FxHashMap<u64, V>;

/// Consume one traversal map into a plain one.
fn plain<V: Clone, W>(map: ConcurrentHashMap<u64, V>, f: impl Fn(V) -> W) -> Map<W> {
    map.into_entries().into_iter().map(|(k, v)| (k, f(v))).collect()
}

/// Merge split remnants whose boundary has lost all incoming control
/// flow. A bogus (since removed) indirect target mid-block leaves a pair
/// `[a, b) →ft [b, c)` where `b` is not a real control-flow boundary any
/// more; merging restores the original block (and with it, clean linear
/// decoding). Only pure split artifacts qualify: the fall-through must
/// be `[a, b)`'s sole out-edge and `[b, c)`'s sole in-edge.
fn merge_split_remnants(
    blocks: &mut Map<u64>,
    ends: &mut Map<u64>,
    edges: &mut Map<Vec<(u64, EdgeKind)>>,
    funcs: &Map<FuncState>,
) {
    // Candidates: ends whose only out-edge is the fall-through into the
    // block starting there. In-degrees are counted once, for them only.
    let mut indeg: Map<u32> = edges
        .iter()
        .filter(|(&b, list)| list[..] == [(b, EdgeKind::Fallthrough)])
        .map(|(&b, _)| (b, 0))
        .collect();
    for list in edges.values() {
        for (dst, _) in list {
            if let Some(n) = indeg.get_mut(dst) {
                *n += 1;
            }
        }
    }
    // A merge at `b` removes only the `b → b` fall-through, which counts
    // toward `b` alone, and rewrites only `b`'s own records: no other
    // candidate's in-degree or records move, so one pass in any order
    // reaches the fixed point.
    for (b, n) in indeg {
        // A function entry is a real boundary even with no incoming
        // edges (multi-entry functions, Power-style secondary
        // entries): never merge it away.
        if n != 1 || funcs.contains_key(&b) {
            continue;
        }
        // [a, b) and [b, c) must both exist.
        let (Some(&a), Some(&c)) = (ends.get(&b), blocks.get(&b)) else { continue };
        if c == 0 || a == b {
            continue;
        }
        // Merge: extend [a, b) to c, drop [b, c) and the artifact.
        if let Some(end) = blocks.get_mut(&a) {
            *end = c;
        }
        blocks.remove(&b);
        ends.remove(&b);
        if let Some(start) = ends.get_mut(&c) {
            *start = a;
        }
        edges.remove(&b);
    }
}

/// The materialized graph, in dense block ranks.
struct Graph {
    /// Block starts in ascending order; a block's id is its rank.
    starts: Vec<u64>,
    /// Start address → id.
    index: BlockIndex,
    /// Block ends, by id.
    ends: Vec<u64>,
    /// CSR offsets: block `i`'s out-edges are `off[i]..off[i + 1]`.
    off: Vec<u32>,
    /// Edge targets, sorted by (source, target) id.
    dst: Vec<u32>,
    /// Edge kinds (tail-call correction rewrites them in place).
    kind: Vec<EdgeKind>,
}

impl Graph {
    /// Build from the (merged) blocks and edges. Edges whose source or
    /// target is not a materialized block are dropped; duplicate
    /// `(source, target)` pairs keep the last non-fall-through kind in
    /// insertion order (a plain fall-through only if that is all there
    /// is).
    fn materialize(blocks: Map<u64>, edges: Map<Vec<(u64, EdgeKind)>>) -> Graph {
        let mut blocks: Vec<(u64, u64)> = blocks.into_iter().filter(|&(s, e)| e > s).collect();
        blocks.sort_unstable();
        let (starts, ends): (Vec<u64>, Vec<u64>) = blocks.into_iter().unzip();
        let index = BlockIndex::new(&starts);
        // end → id, for edge sources. Should two blocks share an end,
        // the higher start owns it.
        let mut by_end: Vec<(u64, u32)> =
            ends.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        by_end.sort_unstable();
        let src_of = |end: u64| {
            let i = by_end.partition_point(|&(e, _)| e <= end);
            (i > 0 && by_end[i - 1].0 == end).then(|| by_end[i - 1].1)
        };

        let mut triples: Vec<(u32, u32, EdgeKind)> = Vec::new();
        for (src_end, list) in edges {
            let Some(src) = src_of(src_end) else { continue };
            for (d, kind) in list {
                if let Some(dst) = index.get(d) {
                    triples.push((src, dst as u32, kind));
                }
            }
        }
        // Stable: duplicates stay in insertion order for the kind rule.
        triples.sort_by_key(|&(s, d, _)| (s, d));
        triples.dedup_by(|later, kept| {
            if (later.0, later.1) != (kept.0, kept.1) {
                return false;
            }
            if later.2 != EdgeKind::Fallthrough {
                kept.2 = later.2;
            }
            true
        });

        let n = starts.len();
        let mut off = vec![0u32; n + 1];
        for &(s, _, _) in &triples {
            off[s as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let (dst, kind) = triples.into_iter().map(|(_, d, k)| (d, k)).unzip();
        Graph { starts, index, ends, off, dst, kind }
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Edge positions of block `b`'s out-edges.
    fn out(&self, b: u32) -> std::ops::Range<usize> {
        self.off[b as usize] as usize..self.off[b as usize + 1] as usize
    }

    /// Block ids reachable from `entry` over intra-procedural edges,
    /// ascending.
    fn membership(&self, entry: u32) -> Vec<u32> {
        thread_local! {
            /// Visit stamps by block id: `seen[b] == stamp` marks `b`
            /// visited by the current search. Bumping the stamp clears
            /// the set in O(1).
            static SEEN: RefCell<(u32, Vec<u32>)> = const { RefCell::new((0, Vec::new())) };
        }
        SEEN.with(|cell| {
            let (stamp, seen) = &mut *cell.borrow_mut();
            if seen.len() < self.len() {
                seen.resize(self.len(), 0);
            }
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                seen.fill(0);
                *stamp = 1;
            }
            let mut members = Vec::new();
            let mut work = vec![entry];
            while let Some(b) = work.pop() {
                if seen[b as usize] == *stamp {
                    continue;
                }
                seen[b as usize] = *stamp;
                members.push(b);
                for i in self.out(b) {
                    if !self.kind[i].is_interprocedural() && seen[self.dst[i] as usize] != *stamp {
                        work.push(self.dst[i]);
                    }
                }
            }
            members.sort_unstable();
            members
        })
    }
}

/// A function during finalization.
struct Func {
    /// Entry block id.
    entry: u32,
    name: Option<String>,
    status: RetStatus,
    seeded: bool,
    /// Member block ids, ascending (valid unless listed as stale).
    members: Vec<u32>,
    /// Tail-call edges (by position) whose both ends are members: rule
    /// 2 turns them back into intra-procedural branches.
    intra_tail_calls: Vec<usize>,
}

impl Func {
    fn new(entry: u32, name: Option<String>, status: RetStatus, seeded: bool) -> Func {
        Func { entry, name, status, seeded, members: Vec::new(), intra_tail_calls: Vec::new() }
    }
}

/// Recompute the memberships (and rule-2 edges) of `stale` functions.
fn recompute(g: &Graph, funcs: &mut [Func], stale: &[usize]) {
    let entries: Vec<u32> = stale.iter().map(|&f| funcs[f].entry).collect();
    let fresh: Vec<(Vec<u32>, Vec<usize>)> = entries
        .par_iter()
        .map(|&entry| {
            let members = g.membership(entry);
            let intra = members
                .iter()
                .flat_map(|&b| g.out(b))
                .filter(|&i| {
                    g.kind[i] == EdgeKind::TailCall && members.binary_search(&g.dst[i]).is_ok()
                })
                .collect();
            (members, intra)
        })
        .collect();
    for (&f, (members, intra)) in stale.iter().zip(fresh) {
        funcs[f].members = members;
        funcs[f].intra_tail_calls = intra;
    }
}

/// Finalize: consume the traversal state, return the CFG + stats.
pub fn finalize(state: State<'_>) -> ParseResult {
    let started = Instant::now();
    // ---- step 1: jump-table clamping + split repair ----
    clamp_jump_tables(&state);
    // Traversal is over: consume the concurrent maps into plain ones.
    // Each map's entries are freed as they are moved out, so the four
    // run side by side.
    let State { input, blocks, block_ends, edges, funcs, stats, .. } = state;
    let (mut b, mut en, mut ed, mut f) = (None, None, None, None);
    rayon::scope(|s| {
        s.spawn(|_| b = Some(plain(blocks, |r| r.end)));
        s.spawn(|_| en = Some(plain(block_ends, |r| r.start)));
        s.spawn(|_| ed = Some(plain(edges, |l| l)));
        s.spawn(|_| f = Some(plain(funcs, |st| st)));
    });
    let (mut blocks, mut ends, mut edges, funcs) = (
        b.unwrap_or_default(),
        en.unwrap_or_default(),
        ed.unwrap_or_default(),
        f.unwrap_or_default(),
    );
    merge_split_remnants(&mut blocks, &mut ends, &mut edges, &funcs);

    // ---- materialize blocks, edges, functions ----
    let mut g = Graph::materialize(blocks, edges);
    let n = g.len();
    let mut funcs: Vec<Func> = funcs
        .into_iter()
        .filter_map(|(entry, st)| {
            let id = g.index.get(entry)? as u32;
            Some(Func::new(id, st.name, st.status, st.seeded))
        })
        .collect();
    // Function index by entry block id.
    const NONE: u32 = u32::MAX;
    let mut func_at = vec![NONE; n];
    for (i, f) in funcs.iter().enumerate() {
        func_at[f.entry as usize] = i as u32;
    }
    // In-edge counters per block: all edges, calls, tail calls.
    let (mut indeg, mut call_in, mut tail_in) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
    for (&d, &k) in g.dst.iter().zip(&g.kind) {
        indeg[d as usize] += 1;
        match k {
            EdgeKind::Call => call_in[d as usize] += 1,
            EdgeKind::TailCall => tail_in[d as usize] += 1,
            _ => {}
        }
    }

    // ---- step 2: tail-call correction + boundaries (iterative) ----
    let mut flipped = vec![false; g.dst.len()];
    let mut stale: Vec<usize> = (0..funcs.len()).collect();
    for _round in 0..4 {
        recompute(&g, &mut funcs, &stale);
        stale.clear();
        let mut intra = vec![false; g.dst.len()];
        for f in &funcs {
            for &i in &f.intra_tail_calls {
                intra[i] = true;
            }
        }

        let mut flips: Vec<(u32, usize, EdgeKind)> = Vec::new();
        for src in 0..n as u32 {
            for i in g.out(src) {
                if flipped[i] {
                    continue;
                }
                let dst = g.dst[i] as usize;
                match g.kind[i] {
                    // Rule 1: not a tail call, but the target has a CALL
                    // incoming edge → it is a function entry; correct to
                    // tail call. Also canonicalize the paper's Listing 1
                    // ambiguity: if another branch into the same target
                    // was classified as a tail call, this one must agree
                    // (otherwise the final CFG would depend on analysis
                    // order). Edges are unique per (source, target), so
                    // any tail call into `dst` comes from another source.
                    EdgeKind::Direct if call_in[dst] > 0 || tail_in[dst] > 0 => {
                        flips.push((src, i, EdgeKind::TailCall));
                    }
                    EdgeKind::TailCall => {
                        // Rule 2: target inside the source's own function
                        // boundary (reachable without this edge) → not a
                        // tail call.
                        // Rule 3: the target's only incoming edge is this
                        // one → outlined code block, not a tail call.
                        let seeded = func_at[dst] != NONE && funcs[func_at[dst] as usize].seeded;
                        if intra[i] || (indeg[dst] == 1 && !seeded) {
                            flips.push((src, i, EdgeKind::Direct));
                        }
                    }
                    _ => {}
                }
            }
        }

        if flips.is_empty() {
            break;
        }
        // A flip changes the membership of every function owning its
        // source; a new tail call labels a function entry (O_FEI).
        let mut flipped_src = vec![false; n];
        for &(src, i, new_kind) in &flips {
            let dst = g.dst[i] as usize;
            g.kind[i] = new_kind;
            flipped[i] = true;
            flipped_src[src as usize] = true;
            stats.tailcall_flips.inc();
            if new_kind == EdgeKind::TailCall {
                tail_in[dst] += 1;
                if func_at[dst] == NONE {
                    func_at[dst] = funcs.len() as u32;
                    stale.push(funcs.len());
                    funcs.push(Func::new(dst as u32, None, RetStatus::Unset, false));
                }
            } else {
                tail_in[dst] -= 1;
            }
        }
        stale.extend(
            (0..funcs.len()).filter(|&f| funcs[f].members.iter().any(|&b| flipped_src[b as usize])),
        );
        stale.sort_unstable();
        stale.dedup();
    }

    // ---- step 3: function-entry cleanup ----
    // Interprocedural in-edges per entry under final kinds.
    let mut interproc_in = vec![false; n];
    for (&d, &k) in g.dst.iter().zip(&g.kind) {
        if k.is_interprocedural() {
            interproc_in[d as usize] = true;
        }
    }
    let keep: Vec<bool> =
        funcs.iter().map(|f| f.seeded || interproc_in[f.entry as usize]).collect();
    // Memberships left stale by a final round that still flipped.
    stale.retain(|&f| keep[f]);
    recompute(&g, &mut funcs, &stale);
    let mut funcs: Vec<Func> =
        funcs.into_iter().zip(keep).filter_map(|(f, k)| k.then_some(f)).collect();
    funcs.sort_unstable_by_key(|f| f.entry);

    let mut live = vec![false; n];
    for f in &funcs {
        for &b in &f.members {
            live[b as usize] = true;
        }
    }

    let final_blocks = (0..n)
        .filter(|&b| live[b])
        .map(|b| (g.starts[b], Block { start: g.starts[b], end: g.ends[b] }))
        .collect();
    let final_edges = (0..n as u32)
        .filter(|&b| live[b as usize])
        .flat_map(|b| g.out(b).map(move |i| (b, i)))
        .filter(|&(_, i)| live[g.dst[i] as usize])
        .map(|(b, i)| Edge {
            src: g.starts[b as usize],
            dst: g.starts[g.dst[i] as usize],
            kind: g.kind[i],
        })
        .collect();
    let final_funcs = funcs
        .into_iter()
        .map(|f| {
            let entry = g.starts[f.entry as usize];
            let status = if f.status == RetStatus::Unset { RetStatus::NoReturn } else { f.status };
            let function = Function {
                entry,
                name: f.name.unwrap_or_else(|| format!("fn_{entry:x}")),
                blocks: f.members.iter().map(|&b| g.starts[b as usize]).collect(),
                ret_status: status,
            };
            (entry, function)
        })
        .collect();

    let cfg = Cfg::new(final_blocks, final_edges, final_funcs, input.code.clone());
    stats.finalize_ns.add(started.elapsed().as_nanos() as u64);
    ParseResult { cfg, stats }
}
