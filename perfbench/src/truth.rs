//! The ground-truth gate: the CFG a measured session built, compared
//! with the generator's exact truth. It reads the session's memoized
//! CFG and never parses again, so it can run right after a timed op.

use pba_cfg::{Cfg, EdgeKind, RetStatus};
use pba_gen::GroundTruth;

/// The first disagreement between `cfg` and `truth`, if any: a missing
/// function, a function whose address ranges or non-returning status
/// differ, a jump table resolved to no targets or to more targets than
/// its table has entries, or a non-returning call that falls through.
pub fn cfg_mismatch(cfg: &Cfg, truth: &GroundTruth) -> Option<String> {
    for f in &truth.functions {
        let Some(pf) = cfg.functions.get(&f.entry) else {
            return Some(format!("missing function {} at {:#x}", f.name, f.entry));
        };
        let mut want = f.ranges.clone();
        want.sort_unstable();
        if pf.ranges(cfg) != want {
            return Some(format!("{}: ranges differ from truth", f.name));
        }
        if (pf.ret_status == RetStatus::NoReturn) != f.noreturn {
            return Some(format!(
                "{}: status {:?}, truth noreturn={}",
                f.name, pf.ret_status, f.noreturn
            ));
        }
    }
    for jt in &truth.jump_tables {
        let mut targets: Vec<u64> = cfg
            .block_at(jt.jump_addr)
            .map(|b| {
                cfg.out_edges(b.start)
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Indirect)
                    .map(|e| e.dst)
                    .collect()
            })
            .unwrap_or_default();
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() || targets.len() as u64 > jt.entries {
            return Some(format!(
                "jump table at {:#x}: {} targets for {} entries",
                jt.jump_addr,
                targets.len(),
                jt.entries
            ));
        }
    }
    for &call in &truth.noreturn_calls {
        let falls_through = cfg.block_at(call).is_some_and(|b| {
            cfg.out_edges(b.start).iter().any(|e| e.kind == EdgeKind::CallFallthrough)
        });
        if falls_through {
            return Some(format!("non-returning call at {call:#x} falls through"));
        }
    }
    None
}
