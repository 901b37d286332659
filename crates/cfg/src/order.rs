//! The partial order `G1 ≼ G2` between abstract graphs (paper Section 3).
//!
//! "A larger graph includes more control flow elements." Four conditions,
//! implemented literally:
//!
//! 1. address coverage: `A1 ⊆ A2`;
//! 2. explicit control flow is preserved modulo block-range adjustment —
//!    with our split-stable edge identity `(src_end, dst_start, kind)`
//!    this is plain set inclusion `E1 ⊆ E2`;
//! 3. implicit control flow through each `G1` block survives as a
//!    fall-through chain of `G2` blocks covering the same range;
//! 4. function entry labels are preserved.
//!
//! The monotonicity property of `O_IEC` (Section 4.1) is stated in terms
//! of this order, and the property tests exercise it on synthetic code.

//! It also hosts the *traversal* orders: [`postorder`] /
//! [`reverse_postorder`] over any successor relation, which the dataflow
//! engine's fixpoint uses as its worklist priority.

use crate::model::EdgeKind;
use crate::ops::{AbsEdge, AbsGraph};

/// Is every address covered by `a` also covered by `b`?
fn coverage_le(a: &AbsGraph, b: &AbsGraph) -> bool {
    let ca = a.covered();
    let cb = b.covered();
    // Both are sorted disjoint interval lists; check inclusion by merge.
    let mut j = 0usize;
    for &(lo, hi) in &ca {
        // Advance to the b-interval that could contain lo.
        while j < cb.len() && cb[j].1 <= lo {
            j += 1;
        }
        if j >= cb.len() || cb[j].0 > lo || cb[j].1 < hi {
            return false;
        }
    }
    true
}

/// Does `g` contain a fall-through chain of blocks exactly covering
/// `[s0, e)`?
fn chain_covers(g: &AbsGraph, s0: u64, e: u64) -> bool {
    let mut at = s0;
    loop {
        let Some(&end) = g.blocks.get(&at) else { return false };
        if end == e {
            return true;
        }
        if end > e {
            return false;
        }
        // Need a fall-through edge (end → end) linking [at, end) to
        // [end, ...). Splits create exactly these.
        let link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::Fallthrough };
        let cond_link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::CondNotTaken };
        let cf_link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::CallFallthrough };
        if !(g.edges.contains(&link) || g.edges.contains(&cond_link) || g.edges.contains(&cf_link))
        {
            return false;
        }
        at = end;
    }
}

/// The partial order `a ≼ b`.
pub fn graph_le(a: &AbsGraph, b: &AbsGraph) -> bool {
    // (1) address coverage.
    if !coverage_le(a, b) {
        return false;
    }
    // (2) explicit control flow: E1 ⊆ E2 under split-stable identity.
    if !a.edges.iter().all(|e| b.edges.contains(e)) {
        return false;
    }
    // (3) implicit control flow through blocks.
    if !a.blocks.iter().all(|(&s, &e)| chain_covers(b, s, e)) {
        return false;
    }
    // (4) function labels preserved.
    a.funcs.iter().all(|f| b.funcs.contains(f))
}

/// Depth-first postorder over `blocks` under the `succs` relation.
///
/// Traversal starts from each of `roots` in turn; any blocks unreachable
/// from them are appended afterwards in ascending address order, so the
/// result is always a total order over `blocks`. Successor lists are
/// followed in the order `succs` yields them, making the order
/// deterministic for deterministic inputs.
pub fn postorder(blocks: &[u64], roots: &[u64], succs: &dyn Fn(u64) -> Vec<u64>) -> Vec<u64> {
    use std::collections::HashSet;
    let members: HashSet<u64> = blocks.iter().copied().collect();
    let mut seen: HashSet<u64> = HashSet::with_capacity(blocks.len());
    let mut out = Vec::with_capacity(blocks.len());
    for &root in roots {
        if !members.contains(&root) || seen.contains(&root) {
            continue;
        }
        // Iterative DFS: (block, next successor index to try).
        let mut stack: Vec<(u64, Vec<u64>, usize)> = vec![(root, succs(root), 0)];
        seen.insert(root);
        while let Some((b, ss, i)) = stack.last_mut() {
            if let Some(&s) = ss.get(*i) {
                *i += 1;
                if members.contains(&s) && seen.insert(s) {
                    stack.push((s, succs(s), 0));
                }
            } else {
                out.push(*b);
                stack.pop();
            }
        }
    }
    let mut rest: Vec<u64> = blocks.iter().copied().filter(|b| !seen.contains(b)).collect();
    rest.sort_unstable();
    out.extend(rest);
    out
}

/// [`postorder`] reversed: the canonical iteration order for forward
/// dataflow problems (a block's predecessors come first along acyclic
/// paths, minimizing re-visits to reach the fixpoint).
pub fn reverse_postorder(
    blocks: &[u64],
    roots: &[u64],
    succs: &dyn Fn(u64) -> Vec<u64>,
) -> Vec<u64> {
    let mut po = postorder(blocks, roots, succs);
    po.reverse();
    po
}

/// Reverse-postorder *ranks* over a dense-index adjacency: `succs[i]`
/// lists the successors of block `i` as `(index, payload)` pairs and
/// `roots` seeds the traversal. Returns `(rank, reachable)` where
/// `rank[i]` = position of block `i` in the reverse postorder and
/// `reachable` is how many blocks the roots reach — ranks below it
/// belong to the reachable region, blocks unreachable from the roots
/// are ranked after it in ascending index order (the same total-order
/// convention as [`postorder`]). No address maps, no per-block
/// allocation — this is the form the dataflow engine's worklist
/// priority consumes, and the reachable cut is what dominator
/// construction keys its RPO walk on.
pub fn rpo_ranks_dense<E>(succs: &[Vec<(usize, E)>], roots: &[usize]) -> (Vec<u32>, usize) {
    let n = succs.len();
    let mut seen = vec![false; n];
    let mut po: Vec<usize> = Vec::with_capacity(n);
    // Iterative DFS: (block, next successor index to try).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &root in roots {
        if root >= n || seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&(s, _)) = succs[b].get(*i) {
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                po.push(b);
                stack.pop();
            }
        }
    }
    let reachable = po.len();
    let mut rank = vec![0u32; n];
    for (r, &b) in po.iter().rev().enumerate() {
        rank[b] = r as u32;
    }
    let mut next = reachable as u32;
    for (b, &was_seen) in seen.iter().enumerate() {
        if !was_seen {
            rank[b] = next;
            next += 1;
        }
    }
    (rank, reachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{construct_reference, SynCf, SynInsn, SyntheticCode};

    #[test]
    fn rpo_of_diamond_puts_join_last() {
        // 1 → {2, 3} → 4
        let blocks = [1u64, 2, 3, 4];
        let succs = |b: u64| -> Vec<u64> {
            match b {
                1 => vec![2, 3],
                2 | 3 => vec![4],
                _ => vec![],
            }
        };
        let rpo = reverse_postorder(&blocks, &[1], &succs);
        assert_eq!(rpo.first(), Some(&1));
        assert_eq!(rpo.last(), Some(&4));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_are_appended_sorted() {
        let blocks = [10u64, 20, 7, 9];
        let succs = |b: u64| -> Vec<u64> {
            if b == 10 {
                vec![20]
            } else {
                vec![]
            }
        };
        let po = postorder(&blocks, &[10], &succs);
        assert_eq!(po, vec![20, 10, 7, 9]);
    }

    #[test]
    fn cycles_terminate() {
        let blocks = [1u64, 2];
        let succs = |b: u64| -> Vec<u64> { vec![if b == 1 { 2 } else { 1 }] };
        let rpo = reverse_postorder(&blocks, &[1], &succs);
        assert_eq!(rpo, vec![1, 2]);
    }

    fn straightline() -> SyntheticCode {
        SyntheticCode::new(vec![
            SynInsn { start: 0, end: 4, cf: SynCf::None },
            SynInsn { start: 4, end: 8, cf: SynCf::None },
            SynInsn { start: 8, end: 9, cf: SynCf::Ret },
        ])
    }

    #[test]
    fn reflexive() {
        let g = construct_reference(&straightline(), &[0]);
        assert!(graph_le(&g, &g));
    }

    #[test]
    fn initial_graph_below_everything_with_same_seeds() {
        let code = straightline();
        let g0 = AbsGraph::initial([0u64]);
        let gn = construct_reference(&code, &[0]);
        assert!(graph_le(&g0, &gn));
        assert!(!graph_le(&gn, &g0));
    }

    #[test]
    fn split_block_still_geq() {
        // G1: one block [0,9). G2: same code but split at 4 with a
        // fall-through chain. G1 ≼ G2 must hold (condition 3).
        let code = straightline();
        let g1 = construct_reference(&code, &[0]);
        assert_eq!(g1.blocks.get(&0), Some(&9));
        let mut g2 = g1.clone();
        g2.candidates.insert(4);
        g2.o_ber(&code, 4); // split
        assert!(graph_le(&g1, &g2), "split graph is larger, not incomparable");
        assert!(!graph_le(&g2, &g1), "chain can't be reassembled downward");
    }

    #[test]
    fn missing_edge_breaks_order() {
        let code = SyntheticCode::new(vec![
            SynInsn { start: 0, end: 4, cf: SynCf::Jmp(8) },
            SynInsn { start: 8, end: 9, cf: SynCf::Ret },
        ]);
        let g = construct_reference(&code, &[0]);
        let mut smaller = g.clone();
        let e = *smaller.edges.iter().next().unwrap();
        smaller.edges.remove(&e);
        assert!(graph_le(&smaller, &g));
        assert!(!graph_le(&g, &smaller));
    }

    #[test]
    fn extra_function_label_breaks_reverse_order() {
        let g = construct_reference(&straightline(), &[0]);
        let mut labeled = g.clone();
        labeled.o_fei(4); // label mid-code (after a hypothetical split)
        assert!(graph_le(&g, &labeled));
        assert!(!graph_le(&labeled, &g));
    }

    #[test]
    fn coverage_inclusion_is_checked() {
        let code = straightline();
        let g = construct_reference(&code, &[0]);
        let island = SyntheticCode::new(vec![SynInsn { start: 0x100, end: 0x101, cf: SynCf::Ret }]);
        let h = construct_reference(&island, &[0x100]);
        assert!(!graph_le(&g, &h));
        assert!(!graph_le(&h, &g));
    }
}
