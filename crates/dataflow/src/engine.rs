//! The generic dataflow engine: one fixpoint, many analyses.
//!
//! The paper's thesis is that once the CFG is finalized and read-only,
//! *any* client analysis can run in parallel. This module is the
//! machinery that makes that true for dataflow analyses rather than
//! per-analysis luck: an analysis describes itself as a
//! [`DataflowSpec`] — direction, lattice bottom, boundary fact, meet,
//! and block transfer — and [`fixpoint`] drives the Kildall worklist to
//! the least fixpoint, visiting blocks in reverse postorder (from
//! [`pba_cfg::order`]). Because every spec here is monotone over a
//! finite-height lattice, the fixpoint is *unique*, so the engine
//! reproduces the bespoke per-analysis worklist loops it replaced — the
//! property `tests/engine_equiv.rs` checks on randomized binaries.
//!
//! The hot loop is *allocation-free*: facts live in dense `Vec`s indexed
//! by block, the worklist priority is the [`FlowGraph`]'s memoized dense
//! RPO ranks (computed at most once per direction, shared by every
//! analysis that reuses the graph), and each visit recomputes its input
//! into a reused scratch fact and writes its output through
//! [`DataflowSpec::transfer_into`] — no per-visit fact allocation for
//! the bit-vector analyses.
//!
//! # Where the parallelism is
//!
//! Each function's fixpoint runs serially; the parallelism is *across*
//! functions, the paper's shape for analysis over a finalized CFG.
//! [`run_all`] and [`run_per_function`] fan the functions of a
//! [`crate::ir::BinaryIr`] — decoded once, read-only from here on —
//! over a sized rayon pool, largest first, so the work-stealing pool
//! has the whole run to rebalance around the giants (the Listing 7
//! `schedule(dynamic)` shape). Parallelizing *within* a function's
//! fixpoint was measured slower than this at 2 threads: the
//! synchronization and extra block visits cost more than they saved.

use crate::ir::{BinaryIr, FuncIr};
use crate::liveness::{liveness_on, LivenessResult};
use crate::reaching::{reaching_defs_on, ReachingDefs};
use crate::stack::{stack_heights_on, StackResult};
use crate::view::CfgView;
use pba_cfg::order::rpo_ranks_dense;
use pba_cfg::{BlockIndex, EdgeKind};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// Engine work counters, exposed for benchmarks. Monotonic and global;
/// [`stats::reset`] zeroes them between measurement rows.
pub mod stats {
    pub use pba_concurrent::stats::Counter;

    /// Block visits (one input-recompute + transfer) by [`super::fixpoint`].
    pub static VISITS: Counter = Counter::new();

    /// Zero the counters (between benchmark iterations).
    pub fn reset() {
        VISITS.reset();
    }
}

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exits (e.g. reaching definitions, stack height).
    Forward,
    /// Facts flow exits → entry (e.g. liveness).
    Backward,
}

/// A dataflow analysis, described declaratively.
///
/// Implementations must be monotone: `transfer` may only grow (in the
/// lattice order implied by `meet`) when its input grows. Every spec in
/// this crate is; the uniqueness of the fixpoint depends on it.
pub trait DataflowSpec {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The lattice bottom for `block` (the "no information yet" value
    /// every boundary starts from).
    fn bottom(&self, block: u64) -> Self::Fact;

    /// The fact injected at direction-source blocks: the function entry
    /// for forward problems, the exit blocks for backward ones.
    fn boundary(&self, block: u64) -> Self::Fact;

    /// Join `incoming` into `into` (the lattice meet/join).
    fn meet(&self, into: &mut Self::Fact, incoming: &Self::Fact);

    /// Apply `block`'s transfer function to its direction-input fact.
    fn transfer(&self, block: u64, input: &Self::Fact) -> Self::Fact;

    /// Apply `block`'s transfer function, writing the result into `out`
    /// (whose prior contents are arbitrary and must be fully
    /// overwritten). [`fixpoint`] calls *this* on its hot path with a
    /// reused scratch fact; the default falls back to [`Self::transfer`]
    /// and costs one fact allocation per visit, so specs whose facts
    /// heap-allocate (bit vectors, sets) should override it with an
    /// in-place computation.
    fn transfer_into(&self, block: u64, input: &Self::Fact, out: &mut Self::Fact) {
        *out = self.transfer(block, input);
    }

    /// Optional edge transfer: adjust the fact flowing along the CFG
    /// edge `src → dst` (of `kind`) before it is met into the receiving
    /// block's input. `fact` is the value leaving the direction-
    /// predecessor (the source block's output for forward problems, the
    /// destination block's output for backward ones). Return `None` for
    /// identity — the default, which costs no clone; specs whose
    /// transfer depends on *how* control reached a block (e.g. the
    /// taken/not-taken side of a guarding branch in [`crate::slice`])
    /// override it.
    fn edge_transfer(
        &self,
        src: u64,
        dst: u64,
        kind: EdgeKind,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        let _ = (src, dst, kind, fact);
        None
    }
}

/// What [`DataflowResults::into_dense`] yields: the shared block list
/// and dense address index, then the dense input and output fact
/// vectors.
pub type DenseResults<F> = (Arc<Vec<u64>>, Arc<BlockIndex>, Vec<F>, Vec<F>);

/// Fixpoint facts per block, in direction-relative terms: `input` is the
/// fact flowing *into* the block (at block entry for forward problems,
/// at block exit for backward ones) and `output` is `transfer(input)`.
///
/// Facts are stored densely, indexed like the [`FlowGraph`]'s block
/// list (shared by `Arc`, so packaging a result allocates nothing per
/// block); [`DataflowResults::input_at`] / [`DataflowResults::output_at`]
/// are the thin address-keyed accessors for consumers that still think
/// in block addresses.
#[derive(Debug, Clone, Default)]
pub struct DataflowResults<F> {
    blocks: Arc<Vec<u64>>,
    index: Arc<BlockIndex>,
    /// Fact flowing into each block (dense, graph order).
    pub input: Vec<F>,
    /// Fact flowing out of each block (dense, graph order).
    pub output: Vec<F>,
}

impl<F> DataflowResults<F> {
    /// Block addresses, in dense-index order (the fact vectors' order).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Dense index of `block`, if it is in the graph.
    pub fn index_of(&self, block: u64) -> Option<usize> {
        self.index.get(block)
    }

    /// The input fact of `block` (address-keyed compatibility accessor).
    pub fn input_at(&self, block: u64) -> Option<&F> {
        self.index_of(block).map(|i| &self.input[i])
    }

    /// The output fact of `block` (address-keyed compatibility accessor).
    pub fn output_at(&self, block: u64) -> Option<&F> {
        self.index_of(block).map(|i| &self.output[i])
    }

    /// `(block, output fact)` pairs in dense order.
    pub fn iter_output(&self) -> impl Iterator<Item = (u64, &F)> {
        self.blocks.iter().copied().zip(self.output.iter())
    }

    /// Decompose into the shared block list/index and the dense fact
    /// vectors — how the client analyses repackage engine results into
    /// their own dense result types without copying.
    pub fn into_dense(self) -> DenseResults<F> {
        (self.blocks, self.index, self.input, self.output)
    }
}

/// Per-direction traversal metadata, computed at most once per graph.
#[derive(Debug)]
struct DirInfo {
    /// `is_source[i]`: does block `i`'s input carry the boundary fact?
    is_source: Vec<bool>,
    /// Worklist priority: rank in the direction-appropriate reverse
    /// postorder, computed directly on dense indices.
    rank: Vec<u32>,
    /// Blocks reachable from the direction's sources: ranks below this
    /// cut form the source-anchored RPO (see [`FlowGraph::entry_rpo`]).
    reachable: usize,
}

/// The CFG shape [`fixpoint`] iterates over, precomputed once per
/// function from a [`CfgView`]: dense indices, successor/predecessor
/// adjacency, the entry block, and (memoized per direction) the
/// RPO ranks the worklist prioritizes by. Shared via
/// [`crate::ir::FuncIr`], one graph serves every analysis of a function
/// and the rank computation happens at most once per direction.
#[derive(Debug)]
pub struct FlowGraph {
    /// Block start addresses, in dense-index order (shared with the
    /// results packaged from this graph).
    pub blocks: Arc<Vec<u64>>,
    index: Arc<BlockIndex>,
    succs: Vec<Vec<(usize, EdgeKind)>>,
    preds: Vec<Vec<(usize, EdgeKind)>>,
    entry: Option<usize>,
    fwd: OnceLock<DirInfo>,
    bwd: OnceLock<DirInfo>,
}

impl FlowGraph {
    /// Capture `view`'s intra-procedural shape.
    pub fn build(view: &dyn CfgView) -> FlowGraph {
        let blocks: Vec<u64> = view.blocks().to_vec();
        let entry = view.entry();
        let mut edges = Vec::new();
        for &b in &blocks {
            for &(s, kind) in view.succ_edges(b) {
                edges.push((b, s, kind));
            }
        }
        FlowGraph::from_parts(blocks, entry, &edges)
    }

    /// Assemble a graph from an explicit block list and edge list
    /// (edges whose endpoints are not in `blocks` are dropped). This is
    /// what [`crate::ir::FuncIr`] and the slice's cone restriction use
    /// to build graphs without an intermediate view.
    pub fn from_parts(blocks: Vec<u64>, entry: u64, edges: &[(u64, u64, EdgeKind)]) -> FlowGraph {
        let index = BlockIndex::new(&blocks);
        let mut succs = vec![Vec::new(); blocks.len()];
        let mut preds = vec![Vec::new(); blocks.len()];
        for &(src, dst, kind) in edges {
            if let (Some(i), Some(j)) = (index.get(src), index.get(dst)) {
                succs[i].push((j, kind));
                preds[j].push((i, kind));
            }
        }
        let entry = index.get(entry);
        FlowGraph {
            blocks: Arc::new(blocks),
            index: Arc::new(index),
            succs,
            preds,
            entry,
            fwd: OnceLock::new(),
            bwd: OnceLock::new(),
        }
    }

    /// Dense index of `block`, if present.
    pub fn index_of(&self, block: u64) -> Option<usize> {
        self.index.get(block)
    }

    /// The shared address → dense-id index (the one map every dense
    /// artifact built from this graph keys by).
    pub fn index(&self) -> &Arc<BlockIndex> {
        &self.index
    }

    /// Direction-sources: blocks whose input carries the boundary fact.
    fn sources(&self, dir: Direction) -> Vec<usize> {
        match dir {
            Direction::Forward => self.entry.into_iter().collect(),
            Direction::Backward => {
                (0..self.blocks.len()).filter(|&i| self.succs[i].is_empty()).collect()
            }
        }
    }

    /// Edges pointing into a block, under `dir`.
    fn dir_preds(&self, dir: Direction) -> &[Vec<(usize, EdgeKind)>] {
        match dir {
            Direction::Forward => &self.preds,
            Direction::Backward => &self.succs,
        }
    }

    /// Edges leaving a block, under `dir`.
    fn dir_succs(&self, dir: Direction) -> &[Vec<(usize, EdgeKind)>] {
        match dir {
            Direction::Forward => &self.succs,
            Direction::Backward => &self.preds,
        }
    }

    /// The direction's sources and RPO ranks, computed on first use and
    /// memoized — every later analysis over this graph reuses them.
    fn dir_info(&self, dir: Direction) -> &DirInfo {
        let cell = match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        };
        cell.get_or_init(|| {
            let sources = self.sources(dir);
            let mut is_source = vec![false; self.blocks.len()];
            for &s in &sources {
                is_source[s] = true;
            }
            let (rank, reachable) = rpo_ranks_dense(self.dir_succs(dir), &sources);
            DirInfo { is_source, rank, reachable }
        })
    }

    /// The entry-anchored reverse postorder: every block reachable from
    /// the function entry, in forward RPO. Memoized with the forward
    /// worklist ranks, so dominator construction
    /// (`pba_loops::dominators_on`) shares the one traversal every
    /// forward fixpoint over this graph already paid for.
    pub fn entry_rpo(&self) -> Vec<u64> {
        let info = self.dir_info(Direction::Forward);
        let mut rpo = vec![0u64; info.reachable];
        for (i, &b) in self.blocks.iter().enumerate() {
            let r = info.rank[i] as usize;
            if r < info.reachable {
                rpo[r] = b;
            }
        }
        rpo
    }

    /// Position of `block` in [`FlowGraph::entry_rpo`], or `None` when
    /// the block is absent or unreachable from the entry.
    pub fn entry_rank(&self, block: u64) -> Option<u32> {
        let info = self.dir_info(Direction::Forward);
        let i = self.index.get(block)?;
        let r = info.rank[i];
        ((r as usize) < info.reachable).then_some(r)
    }

    /// Estimated heap bytes of the graph: block list, index, adjacency,
    /// and any memoized direction metadata.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let adjacency: usize = self
            .succs
            .iter()
            .chain(self.preds.iter())
            .map(|v| {
                size_of::<Vec<(usize, EdgeKind)>>() + v.capacity() * size_of::<(usize, EdgeKind)>()
            })
            .sum();
        let dir: usize = [&self.fwd, &self.bwd]
            .iter()
            .filter_map(|c| c.get())
            .map(|d| d.is_source.capacity() + d.rank.capacity() * size_of::<u32>())
            .sum();
        self.blocks.capacity() * size_of::<u64>() + self.index.heap_bytes() + adjacency + dir
    }
}

/// The per-block seed facts (boundary at direction-sources, bottom
/// elsewhere), computed once per run so the hot loop can reset its
/// scratch input by `clone_from` instead of re-asking the spec.
fn seed_facts<S: DataflowSpec>(spec: &S, graph: &FlowGraph, info: &DirInfo) -> Vec<S::Fact> {
    graph
        .blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| if info.is_source[i] { spec.boundary(b) } else { spec.bottom(b) })
        .collect()
}

/// Recompute block `b`'s input by meeting its direction-predecessors'
/// outputs into `into`, which the caller has already reset to the
/// block's seed fact (boundary at sources, bottom elsewhere). Each
/// incoming fact first passes the spec's
/// [`DataflowSpec::edge_transfer`] for the CFG edge it arrives over
/// (identity unless overridden).
fn recompute_input_into<S: DataflowSpec>(
    spec: &S,
    graph: &FlowGraph,
    out: &[S::Fact],
    dir: Direction,
    b: usize,
    into: &mut S::Fact,
) {
    let addr = graph.blocks[b];
    for &(p, kind) in &graph.dir_preds(dir)[b] {
        // Reconstruct the CFG-oriented edge: forward problems receive
        // facts along `p → b`, backward ones along `b → p`.
        let (src, dst) = match dir {
            Direction::Forward => (graph.blocks[p], addr),
            Direction::Backward => (addr, graph.blocks[p]),
        };
        match spec.edge_transfer(src, dst, kind, &out[p]) {
            Some(adjusted) => spec.meet(into, &adjusted),
            None => spec.meet(into, &out[p]),
        }
    }
}

/// Package the dense fact vectors as results sharing the graph's block
/// list and index.
fn package<F>(graph: &FlowGraph, input: Vec<F>, output: Vec<F>) -> DataflowResults<F> {
    DataflowResults {
        blocks: Arc::clone(&graph.blocks),
        index: Arc::clone(&graph.index),
        input,
        output,
    }
}

/// Drive `spec` over `graph` to its least fixpoint with a priority
/// worklist.
///
/// Blocks are visited in reverse postorder (direction-adjusted, ranks
/// memoized on the graph), the order that settles acyclic regions in
/// one pass; every block is visited at least once so the results cover
/// the whole function. The visit loop owns two scratch facts and writes
/// through [`DataflowSpec::transfer_into`] / `clone_from`, so specs
/// with in-place transfers run the whole fixpoint without allocating.
pub fn fixpoint<S: DataflowSpec>(spec: &S, graph: &FlowGraph) -> DataflowResults<S::Fact> {
    let n = graph.blocks.len();
    let dir = spec.direction();
    let mut input: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    let mut output: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    if n == 0 {
        return package(graph, input, output);
    }
    let info = graph.dir_info(dir);
    let seeds = seed_facts(spec, graph, info);

    // Min-heap on RPO rank (BinaryHeap is a max-heap; invert).
    let mut heap: BinaryHeap<(std::cmp::Reverse<u32>, usize)> =
        (0..n).map(|i| (std::cmp::Reverse(info.rank[i]), i)).collect();
    let mut queued = vec![true; n];

    let mut in_scratch = spec.bottom(graph.blocks[0]);
    let mut out_scratch = spec.bottom(graph.blocks[0]);
    while let Some((_, b)) = heap.pop() {
        queued[b] = false;
        stats::VISITS.inc();
        in_scratch.clone_from(&seeds[b]);
        recompute_input_into(spec, graph, &output, dir, b, &mut in_scratch);
        spec.transfer_into(graph.blocks[b], &in_scratch, &mut out_scratch);
        input[b].clone_from(&in_scratch);
        if out_scratch != output[b] {
            std::mem::swap(&mut output[b], &mut out_scratch);
            for &(s, _) in &graph.dir_succs(dir)[b] {
                if !queued[s] {
                    queued[s] = true;
                    heap.push((std::cmp::Reverse(info.rank[s]), s));
                }
            }
        }
    }
    package(graph, input, output)
}

/// The three standard per-function analyses, engine-computed.
#[derive(Debug)]
pub struct FuncAnalyses {
    /// Backward register liveness (AC6).
    pub liveness: LivenessResult,
    /// Forward reaching definitions.
    pub reaching: ReachingDefs,
    /// Forward stack-height analysis.
    pub stack: StackResult,
}

impl FuncAnalyses {
    /// Bytes of heap owned by the three fact sets. The block lists and
    /// indices these results carry are `Arc`-shared with the function's
    /// graph and counted once with the IR, not here.
    pub fn heap_bytes(&self) -> usize {
        self.liveness.heap_bytes() + self.reaching.heap_bytes() + self.stack.heap_bytes()
    }
}

/// The three standard analyses of one function, off its IR — one
/// decoded arena, one graph, memoized RPO ranks shared by all three
/// fixpoints.
fn func_analyses(ir: &FuncIr) -> FuncAnalyses {
    let graph = ir.graph();
    FuncAnalyses {
        liveness: liveness_on(ir, graph),
        reaching: reaching_defs_on(ir, graph),
        stack: stack_heights_on(ir, graph),
    }
}

/// Run the three standard analyses over every function of a binary's
/// decoded IR, fanning functions across a rayon pool of `threads`
/// workers.
///
/// This is the paper's "parallel analysis over a read-only CFG" phase:
/// the IR decodes nothing and builds no graph here, and each function
/// runs its serial [`fixpoint`]s — across-function parallelism is where
/// the throughput is.
pub fn run_all(ir: &BinaryIr, threads: usize) -> HashMap<u64, FuncAnalyses> {
    run_per_function(ir, threads, func_analyses)
}

/// The whole-binary fan-out underneath [`run_all`]: apply `analyze` to
/// the already-decoded IR of every function, size-sorted largest-first
/// across a rayon pool of `threads` workers, keyed by function entry.
///
/// Consumers needing only one analysis (BinFeat wants liveness,
/// hpcstruct phase 6 wants stack heights) go through this directly
/// rather than paying for all three.
pub fn run_per_function<T: Send>(
    ir: &BinaryIr,
    threads: usize,
    analyze: impl Fn(&FuncIr) -> T + Sync,
) -> HashMap<u64, T> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("run_all pool");
    let mut funcs: Vec<&FuncIr> = ir.funcs().collect();
    // Largest first: starting the giants early gives the stealing pool
    // the whole run to rebalance around them.
    funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks().len()));
    let results: Vec<(u64, T)> =
        pool.install(|| funcs.par_iter().map(|fir| (fir.entry(), analyze(fir))).collect());
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use pba_concurrent::Counter;

    /// A toy forward "block counting" spec: each block's output is
    /// `max(inputs) + 1`; the fixpoint is the longest acyclic distance
    /// from entry, saturating on cycles at the block count (capped).
    /// Counts its `transfer_into` calls so tests can pin that the
    /// fixpoint actually drives the in-place path.
    struct Depth {
        cap: u32,
        into_calls: Counter,
    }

    impl Depth {
        fn new(cap: u32) -> Depth {
            Depth { cap, into_calls: Counter::new() }
        }
    }

    impl DataflowSpec for Depth {
        type Fact = u32;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self, _b: u64) -> u32 {
            0
        }
        fn boundary(&self, _b: u64) -> u32 {
            1
        }
        fn meet(&self, into: &mut u32, incoming: &u32) {
            *into = (*into).max(*incoming);
        }
        fn transfer(&self, _b: u64, input: &u32) -> u32 {
            (*input + 1).min(self.cap)
        }
        fn transfer_into(&self, b: u64, input: &u32, out: &mut u32) {
            self.into_calls.inc();
            *out = self.transfer(b, input);
        }
    }

    fn diamond() -> VecView {
        VecView::new(
            1,
            vec![(1, 2, vec![]), (2, 3, vec![]), (3, 4, vec![]), (4, 5, vec![])],
            vec![
                (1, 2, EdgeKind::CondTaken),
                (1, 3, EdgeKind::CondNotTaken),
                (2, 4, EdgeKind::Direct),
                (3, 4, EdgeKind::Fallthrough),
            ],
        )
    }

    #[test]
    fn serial_reaches_expected_fixpoint() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        let r = fixpoint(&Depth::new(100), &graph);
        assert_eq!(r.input_at(1), Some(&1));
        assert_eq!(r.output_at(1), Some(&2));
        assert_eq!(r.input_at(4), Some(&3), "join takes the max over both arms");
    }

    #[test]
    fn serial_settles_cyclic_graph_through_transfer_into() {
        let mut view = diamond();
        view.edges.push((4, 1, EdgeKind::Direct)); // loop back
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(17);
        let r = fixpoint(&spec, &graph);
        assert!(spec.into_calls.get() > 0, "the hot loop goes through transfer_into");
        // Around the cycle every depth climbs to the cap.
        for &blk in graph.blocks.iter() {
            assert_eq!(r.input_at(blk), Some(&17), "input at {blk}");
            assert_eq!(r.output_at(blk), Some(&17), "output at {blk}");
        }
    }

    #[test]
    fn backward_sources_are_exit_blocks() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        assert_eq!(
            graph.dir_info(Direction::Backward).is_source,
            vec![false, false, false, true],
            "block 4 at dense index 3"
        );
        assert_eq!(graph.dir_info(Direction::Forward).is_source, vec![true, false, false, false]);
    }

    #[test]
    fn rank_memoization_computes_once_per_direction() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        let a = graph.dir_info(Direction::Forward) as *const DirInfo;
        let b = graph.dir_info(Direction::Forward) as *const DirInfo;
        assert_eq!(a, b, "same memoized DirInfo");
    }
}
