//! Banded-MinHash (LSH) corpus index — sub-linear top-K similarity.
//!
//! [`similarity::rank`](crate::similarity::rank) answers "nearest
//! binaries" by scoring every corpus member: O(N) per query, O(N²) for
//! corpus triage. At the ROADMAP's "millions of binaries" scale that is
//! unusable, so this module trades a little recall for a candidate set
//! that stays small as the corpus grows:
//!
//! 1. **MinHash signature** — each binary's feature *key set* (the
//!    `u64` feature hashes of its [`FeatureIndex`]) is sketched into
//!    `bands × rows` slots; slot `j` holds the minimum of an
//!    independent multiply-shift hash `h_j` over the keys. Two sets
//!    agree on any one slot with probability equal to their Jaccard
//!    similarity.
//! 2. **Banding** — the signature is cut into `bands` groups of `rows`
//!    slots; each group hashes into a bucket table. Binaries sharing a
//!    bucket in *any* band become candidates, so a pair with Jaccard
//!    `s` collides with probability `1 − (1 − s^rows)^bands` — a sharp
//!    S-curve that passes near-duplicates and rejects strangers.
//! 3. **Exact re-rank** — only the bucket-collision candidates are
//!    scored with exact cosine; the reported top-K is exact over that
//!    candidate set.
//!
//! The defaults (12 bands × 10 rows) put the S-curve threshold at
//! `(1/12)^(1/10) ≈ 0.78`: generated clone families (Jaccard ≥ ~0.85)
//! collide with ≥ 93% probability per pair while unrelated binaries
//! (≤ ~0.65) collide under a few percent of the time. `pba-bench --bin
//! topk` measures both ends on a ~10k corpus.
//!
//! The index stores the exact [`FeatureIndex`] per entry (needed for
//! the re-rank and for the brute-force fallback via
//! [`rank_topk`](crate::similarity::rank_topk)), keyed by the binary's
//! `content_hash` for idempotent ingestion. [`CorpusIndex::heap_bytes`]
//! reports resident cost so a host (the `pba serve` daemon) can count
//! the index against the same budget as its session cache.

use crate::features::FeatureIndex;
use crate::similarity::{cosine, select_topk};
use pba_concurrent::{fx_hash_u64, FxBuildHasher};
use std::collections::HashMap;

type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Shape of the LSH family: `bands × rows` MinHash slots per signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of bands (bucket tables). More bands → higher recall,
    /// more stranger collisions.
    pub bands: usize,
    /// MinHash slots per band. More rows → sharper rejection of
    /// low-similarity pairs, lower recall near the threshold.
    pub rows: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig { bands: 12, rows: 10 }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IndexConfig {
    /// Total MinHash slots per signature.
    pub fn slots(&self) -> usize {
        self.bands * self.rows
    }

    /// MinHash signature of a feature key set.
    ///
    /// Slot `j` applies an independent multiply-shift hash (odd
    /// multiplier + additive constant from a splitmix64 stream) to the
    /// Fx-mixed key and keeps the minimum. Signatures are pure
    /// functions of the key set: callers may compute them outside any
    /// lock and fold them in via [`CorpusIndex::insert_signed`].
    pub fn signature(&self, feats: &FeatureIndex) -> Vec<u64> {
        let mut sig = vec![u64::MAX; self.slots()];
        let mut salt = 0x5EED_0FDE_CAFE_1D01u64;
        let mul_add: Vec<(u64, u64)> =
            (0..self.slots()).map(|_| (splitmix64(&mut salt) | 1, splitmix64(&mut salt))).collect();
        for &key in feats.keys() {
            let base = fx_hash_u64(key);
            for (slot, &(m, a)) in sig.iter_mut().zip(&mul_add) {
                let h = base.wrapping_mul(m).wrapping_add(a);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    }

    /// Bucket key for one band of a signature: band tag mixed with the
    /// band's `rows` slots through the Fx chain.
    fn band_key(&self, band: usize, sig: &[u64]) -> u64 {
        let mut key = fx_hash_u64(0xBA4D ^ (band as u64) << 16);
        for &slot in &sig[band * self.rows..(band + 1) * self.rows] {
            key = fx_hash_u64(key ^ slot);
        }
        key
    }
}

/// One nearest-neighbour result from [`CorpusIndex::query_topk`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopkHit {
    /// `content_hash` of the matching corpus binary.
    pub hash: u64,
    /// Exact cosine similarity to the query.
    pub score: f64,
}

/// Result of a top-K query: the hits plus how much exact work the
/// index actually did (the sub-linearity measure the bench asserts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopkResult {
    /// Best matches, score descending (ties: earlier ingest first).
    pub hits: Vec<TopkHit>,
    /// Distinct candidates that were scored with exact cosine — the
    /// bucket-collision set, `≪ len()` for a well-tuned config.
    pub candidates: u64,
}

/// Banded-MinHash index over ingested feature indexes.
///
/// Entries are keyed by `content_hash`: re-ingesting the same bytes is
/// a no-op, so streaming a directory twice leaves one entry per unique
/// binary. Dense internal ids (`u32`, ingest order) keep the bucket
/// postings compact and give deterministic tie-breaks.
#[derive(Debug, Default)]
pub struct CorpusIndex {
    config: IndexConfig,
    /// `content_hash` per entry, indexed by dense id.
    hashes: Vec<u64>,
    /// Exact feature index per entry — re-rank + brute-force corpus.
    feats: Vec<FeatureIndex>,
    /// content_hash → dense id (idempotence + point lookups).
    by_hash: FxHashMap<u64, u32>,
    /// band bucket key → posting list of dense ids.
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl CorpusIndex {
    pub fn new(config: IndexConfig) -> Self {
        CorpusIndex { config, ..Default::default() }
    }

    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Number of distinct binaries ingested.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    pub fn contains(&self, content_hash: u64) -> bool {
        self.by_hash.contains_key(&content_hash)
    }

    /// All ingested feature indexes in dense-id (ingest) order — the
    /// corpus slice for a brute-force `rank_topk` fallback.
    pub fn features(&self) -> &[FeatureIndex] {
        &self.feats
    }

    /// `content_hash` of the entry with dense id `id`.
    pub fn hash_at(&self, id: usize) -> u64 {
        self.hashes[id]
    }

    /// Ingest one binary's features under its `content_hash`.
    /// Returns `false` (and drops `feats`) if the hash is already
    /// indexed — ingestion is idempotent.
    pub fn insert(&mut self, content_hash: u64, feats: FeatureIndex) -> bool {
        let sig = self.config.signature(&feats);
        self.insert_signed(content_hash, sig, feats)
    }

    /// [`insert`](Self::insert) with a pre-computed signature, so
    /// parallel ingest pipelines can hash outside the index lock. The
    /// signature must come from [`IndexConfig::signature`] under this
    /// index's config.
    pub fn insert_signed(&mut self, content_hash: u64, sig: Vec<u64>, feats: FeatureIndex) -> bool {
        debug_assert_eq!(sig.len(), self.config.slots());
        if self.by_hash.contains_key(&content_hash) {
            return false;
        }
        let id = self.hashes.len() as u32;
        for band in 0..self.config.bands {
            let key = self.config.band_key(band, &sig);
            self.buckets.entry(key).or_default().push(id);
        }
        self.hashes.push(content_hash);
        self.feats.push(feats);
        self.by_hash.insert(content_hash, id);
        true
    }

    /// Top-`k` nearest corpus entries to `query` by exact cosine over
    /// the LSH candidate set. `exclude` (typically the query's own
    /// `content_hash`) filters a hash out of the hits; pass `None` for
    /// external queries.
    pub fn query_topk(&self, query: &FeatureIndex, k: usize, exclude: Option<u64>) -> TopkResult {
        let sig = self.config.signature(query);
        let mut cand: Vec<u32> = Vec::new();
        for band in 0..self.config.bands {
            if let Some(ids) = self.buckets.get(&self.config.band_key(band, &sig)) {
                cand.extend_from_slice(ids);
            }
        }
        cand.sort_unstable();
        cand.dedup();
        if let Some(ex) = exclude {
            if let Some(&id) = self.by_hash.get(&ex) {
                cand.retain(|&c| c != id);
            }
        }
        let candidates = cand.len() as u64;
        let scored: Vec<(usize, f64)> = cand
            .into_iter()
            .map(|id| (id as usize, cosine(query, &self.feats[id as usize])))
            .collect();
        let hits = select_topk(scored, k)
            .into_iter()
            .map(|(id, score)| TopkHit { hash: self.hashes[id], score })
            .collect();
        TopkResult { hits, candidates }
    }

    /// Approximate heap footprint: signatures are not retained, so the
    /// cost is the stored feature indexes plus the bucket tables and
    /// id maps. Matches the estimation style of
    /// [`BinaryFeatures::heap_bytes`](crate::features::BinaryFeatures::heap_bytes)
    /// so a daemon can charge the index against its resident budget.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let entry = size_of::<(u64, u64)>() + 1;
        let feats: usize = self.feats.iter().map(|f| f.capacity() * entry).sum();
        let vecs = (self.hashes.capacity() + self.feats.capacity()) * size_of::<FeatureIndex>();
        let by_hash = self.by_hash.capacity() * (size_of::<(u64, u32)>() + 1);
        let buckets: usize = self.buckets.capacity() * (size_of::<(u64, Vec<u32>)>() + 1)
            + self.buckets.values().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>();
        (feats + vecs + by_hash + buckets) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_cfg_features;
    use crate::similarity::rank_topk;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};

    fn clone_features(family_seed: u64, variant: u64) -> FeatureIndex {
        let g = generate(&GenConfig {
            seed: family_seed,
            num_funcs: 16,
            extra_funcs: if variant == 0 { 0 } else { 2 },
            variant,
            debug_info: false,
            ..Default::default()
        });
        let elf = pba_elf::Elf::parse(g.elf.clone()).unwrap();
        let input = ParseInput::from_elf(&elf).unwrap();
        let parsed = parse_parallel(&input, 1);
        let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, 1);
        extract_cfg_features(&parsed.cfg, &ir, 1).index
    }

    #[test]
    fn signature_is_deterministic_and_set_based() {
        let cfg = IndexConfig::default();
        let f = clone_features(0x51, 1);
        assert_eq!(cfg.signature(&f), cfg.signature(&f));
        // Counts don't matter, only the key set.
        let mut doubled = f.clone();
        for v in doubled.values_mut() {
            *v *= 2;
        }
        assert_eq!(cfg.signature(&f), cfg.signature(&doubled));
        // Empty set → all-MAX sentinel signature.
        assert!(cfg.signature(&FeatureIndex::default()).iter().all(|&s| s == u64::MAX));
    }

    #[test]
    fn insert_is_idempotent_on_content_hash() {
        let mut idx = CorpusIndex::default();
        let f = clone_features(0x51, 1);
        assert!(idx.insert(0xAB, f.clone()));
        assert!(!idx.insert(0xAB, f.clone()));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(0xAB));
        assert!(!idx.contains(0xCD));
        let before = idx.heap_bytes();
        assert!(!idx.insert(0xAB, f));
        assert_eq!(idx.heap_bytes(), before, "re-ingest must not grow the index");
    }

    #[test]
    fn query_on_empty_index_is_empty() {
        let idx = CorpusIndex::default();
        let r = idx.query_topk(&clone_features(1, 0), 5, None);
        assert!(r.hits.is_empty());
        assert_eq!(r.candidates, 0);
    }

    #[test]
    fn clone_family_found_with_sublinear_candidates() {
        // 8 families × 4 variants: querying one member must surface
        // its siblings without scoring the whole corpus.
        let mut idx = CorpusIndex::default();
        let mut all = Vec::new();
        for fam in 0..8u64 {
            for variant in 1..=4u64 {
                let f = clone_features(0x70AA + fam * 131, variant);
                let hash = fam * 100 + variant;
                assert!(idx.insert(hash, f.clone()));
                all.push((fam, hash, f));
            }
        }
        let n = idx.len() as u64;
        let mut total_cand = 0u64;
        let mut recalled = 0usize;
        let mut expected = 0usize;
        for (fam, hash, f) in &all {
            let r = idx.query_topk(f, 3, Some(*hash));
            total_cand += r.candidates;
            assert!(r.candidates < n, "candidate set must not be the whole corpus");
            let siblings: Vec<u64> =
                all.iter().filter(|(f2, h2, _)| f2 == fam && h2 != hash).map(|e| e.1).collect();
            expected += siblings.len();
            recalled += r.hits.iter().filter(|h| siblings.contains(&h.hash)).count();
        }
        let recall = recalled as f64 / expected as f64;
        assert!(recall >= 0.9, "family recall {recall:.3}");
        assert!(
            total_cand < n * all.len() as u64 / 2,
            "mean candidates {} of n={n}",
            total_cand / all.len() as u64
        );
    }

    #[test]
    fn query_topk_matches_rank_topk_on_candidates() {
        // With identical members the index's exact re-rank must agree
        // with brute force where the candidate set covers the top-K.
        let mut idx = CorpusIndex::default();
        let f = clone_features(0x99, 1);
        let g = clone_features(0x99, 2);
        idx.insert(1, f.clone());
        idx.insert(2, g.clone());
        idx.insert(3, f.clone());
        let r = idx.query_topk(&f, 2, None);
        let brute = rank_topk(&f, idx.features(), 2);
        assert_eq!(r.hits.len(), 2);
        for (hit, (bi, bs)) in r.hits.iter().zip(&brute) {
            assert_eq!(hit.hash, idx.hash_at(*bi));
            assert!((hit.score - bs).abs() < 1e-12);
        }
        // Exact duplicate of the query scores 1.0 and the earlier
        // ingest (hash 1) wins the tie over hash 3.
        assert_eq!(r.hits[0].hash, 1);
        assert!((r.hits[0].score - 1.0).abs() < 1e-9);
    }
}
