//! Corpus-level extraction — Table 3's workload shape.
//!
//! The paper's forensics experiment runs BinFeat over 504 binaries; the
//! interesting measurement is the *per-stage* total time (CFG, IF, CF,
//! DF) as the thread count varies. Binaries are processed sequentially
//! and each stage parallelizes within the binary, matching the paper's
//! setup (node-level parallelism across binaries is called out as
//! orthogonal in Section 9).
//!
//! [`analyze_corpus_with`] owns the merge/reduction; the per-binary
//! extractor is injected so the byte-level entry point can live in
//! `pba-driver` (one `pba::Session` per binary, unified `pba::Error`)
//! without this crate depending on the session layer.

use crate::features::{BinaryFeatures, FeatureIndex};
use serde::Serialize;

/// Aggregate stage times over the corpus (seconds).
#[derive(Debug, Clone, Default, Serialize)]
pub struct StageTimes {
    /// CFG construction.
    pub cfg: f64,
    /// Instruction features.
    pub insn: f64,
    /// Control-flow features.
    pub control: f64,
    /// Data-flow features.
    pub data: f64,
}

impl StageTimes {
    /// End-to-end total.
    pub fn total(&self) -> f64 {
        self.cfg + self.insn + self.control + self.data
    }
}

/// Corpus extraction result.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Global feature index across all binaries.
    pub index: FeatureIndex,
    /// Per-stage aggregate times.
    pub times: StageTimes,
    /// Number of binaries processed.
    pub binaries: usize,
}

/// Extract features from every binary with the supplied per-binary
/// extractor, merging indexes and accumulating stage times. Stops at
/// the first extraction error. `pba::binfeat::analyze_corpus` is this
/// function with a session-backed extractor. Binaries are anything
/// byte-slice-shaped — owned `Vec<u8>`s (the historical signature) or
/// borrowed/shared images — so a corpus never has to be copied into
/// owned vectors just to be analyzed.
pub fn analyze_corpus_with<E>(
    binaries: &[impl AsRef<[u8]>],
    mut extract: impl FnMut(&[u8]) -> Result<BinaryFeatures, E>,
) -> Result<CorpusReport, E> {
    let mut report = CorpusReport { binaries: binaries.len(), ..Default::default() };
    for bytes in binaries {
        let r = extract(bytes.as_ref())?;
        report.times.cfg += r.t_cfg;
        report.times.insn += r.t_if;
        report.times.control += r.t_cf;
        report.times.data += r.t_df;
        for (k, v) in r.index {
            *report.index.entry(k).or_insert(0) += v;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_cfg_features;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};

    fn corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                generate(&GenConfig {
                    num_funcs: 12,
                    seed: 1000 + i as u64,
                    debug_info: false,
                    ..Default::default()
                })
                .elf
            })
            .collect()
    }

    fn extract(bytes: &[u8], threads: usize) -> Result<BinaryFeatures, String> {
        let elf = pba_elf::Elf::parse(bytes.to_vec()).map_err(|e| e.to_string())?;
        let input = ParseInput::from_elf(&elf).map_err(|e| e.to_string())?;
        let parsed = parse_parallel(&input, threads);
        let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, threads);
        let mut bf = extract_cfg_features(&parsed.cfg, &ir, threads);
        bf.t_cfg = 1e-9; // caller-owned slot; nonzero so totals include it
        Ok(bf)
    }

    #[test]
    fn corpus_merges_indexes() {
        let c = corpus(4);
        let r = analyze_corpus_with(&c, |b| extract(b, 2)).unwrap();
        assert_eq!(r.binaries, 4);
        assert!(!r.index.is_empty());
        assert!(r.times.total() > 0.0);
        // Union must dominate any single binary's index size.
        let single = extract(&c[0], 2).unwrap();
        assert!(r.index.len() >= single.index.len());
    }

    #[test]
    fn corpus_deterministic() {
        let c = corpus(3);
        let a = analyze_corpus_with(&c, |b| extract(b, 1)).unwrap();
        let b = analyze_corpus_with(&c, |b| extract(b, 4)).unwrap();
        assert_eq!(a.index, b.index);
    }

    #[test]
    fn extractor_errors_propagate() {
        let c = corpus(2);
        let err: Result<CorpusReport, String> =
            analyze_corpus_with(&c, |_| Err("broken".to_string()));
        assert_eq!(err.unwrap_err(), "broken");
    }
}
