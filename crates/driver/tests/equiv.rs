//! Equivalence: the session rewiring must not change what the
//! applications produce. The pre-redesign pipelines composed the
//! artifact phases by hand; rebuilding them that way and comparing
//! against the session-backed entry points pins byte-identical outputs
//! on the generated corpus.

use pba_driver::{analyze, analyze_corpus, extract_binary};
use pba_gen::{generate, GenConfig, Profile};
use pba_hpcstruct::{analyze_artifacts, ArtifactTimes, HsConfig, HsOutput};
use pba_parse::{parse_parallel, ParseInput};

/// The pre-redesign hpcstruct composition: parse everything by hand,
/// then run the artifact-level phases directly (no session, no memo).
fn legacy_analyze(bytes: &[u8], threads: usize, name: &str) -> HsOutput {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let di = pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let parsed = parse_parallel(&input, threads);
    let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, threads);
    analyze_artifacts(
        &di,
        &parsed.cfg,
        &ir,
        &HsConfig { threads, name: name.into() },
        ArtifactTimes::default(),
    )
}

/// The pre-redesign BinFeat composition.
fn legacy_extract(bytes: &[u8], threads: usize) -> pba_binfeat::BinaryFeatures {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let parsed = parse_parallel(&input, threads);
    let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, threads);
    pba_binfeat::extract_cfg_features(&parsed.cfg, &ir, threads)
}

#[test]
fn hpcstruct_via_session_is_byte_identical() {
    for (i, p) in [Profile::Coreutils, Profile::Server].iter().enumerate() {
        let mut cfg = p.config(900 + i as u64);
        cfg.num_funcs = cfg.num_funcs.min(50);
        let g = generate(&cfg);

        let legacy = legacy_analyze(&g.elf, 2, p.name());
        let session = analyze(&g.elf, &HsConfig { threads: 2, name: p.name().into() }).unwrap();
        assert_eq!(session.structure, legacy.structure, "{}: structure diverged", p.name());
        assert_eq!(session.text, legacy.text, "{}: serialized text diverged", p.name());
    }
}

#[test]
fn binfeat_via_session_is_byte_identical() {
    for seed in [11u64, 12, 13] {
        let g =
            generate(&GenConfig { num_funcs: 18, seed, debug_info: false, ..Default::default() });
        let legacy = legacy_extract(&g.elf, 2);
        let session = extract_binary(&g.elf, 2).unwrap();
        assert_eq!(session.index, legacy.index, "seed {seed}: feature index diverged");
    }
}

#[test]
fn corpus_via_session_is_byte_identical() {
    let corpus: Vec<Vec<u8>> = (0..3)
        .map(|i| {
            generate(&GenConfig {
                num_funcs: 12,
                seed: 2000 + i as u64,
                debug_info: false,
                ..Default::default()
            })
            .elf
        })
        .collect();
    let legacy = pba_binfeat::analyze_corpus_with(&corpus, |b| {
        Ok::<_, pba_driver::Error>(legacy_extract(b, 2))
    })
    .unwrap();
    let session = analyze_corpus(&corpus, 2).unwrap();
    assert_eq!(session.index, legacy.index);
    assert_eq!(session.binaries, legacy.binaries);
}
