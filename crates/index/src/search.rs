//! Top-k search strategies (Section V-E): Euclidean brute force,
//! Hamming brute force, radius-2 table lookup, and the Hamming-Hybrid
//! strategy.

use crate::code::BinaryCode;
use crate::error::SearchError;
use crate::matrix::euclidean_distance;
use crate::packed::PackedCodes;
use crate::topk::top_k_hits;
use std::collections::HashMap;
use std::sync::Arc;

/// A scored candidate; lower score is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Database index.
    pub index: usize,
    /// Distance to the query (Euclidean or Hamming, by search type).
    pub distance: f64,
}

/// Brute-force Euclidean top-k over dense embeddings (`Euclidean-BF`).
pub fn euclidean_top_k(database: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
    let hits = database
        .iter()
        .enumerate()
        .map(|(i, v)| Hit { index: i, distance: euclidean_distance(v, query) })
        .collect();
    top_k_hits(hits, k)
}

/// Brute-force Hamming top-k over binary codes (`Hamming-BF`).
pub fn hamming_top_k(database: &[BinaryCode], query: &BinaryCode, k: usize) -> Vec<Hit> {
    let hits = database
        .iter()
        .enumerate()
        .map(|(i, c)| Hit { index: i, distance: c.hamming(query) as f64 })
        .collect();
    top_k_hits(hits, k)
}

/// A hash-table index over binary codes supporting exact table lookups
/// within Hamming radius 2 and the hybrid strategy of Section V-E. The
/// table reads the caller's [`PackedCodes`] through a shared handle and
/// keeps no copy of its own; buckets are keyed by a code's packed words.
pub struct HammingTable {
    buckets: HashMap<Box<[u64]>, Vec<usize>>,
    codes: Arc<PackedCodes>,
}

impl HammingTable {
    /// Builds the table from database codes, panicking on misuse.
    ///
    /// Convenience wrapper over [`HammingTable::try_build`].
    ///
    /// # Panics
    /// Panics where `try_build` would return an error.
    pub fn build(codes: Vec<BinaryCode>) -> Self {
        Self::try_build(codes).unwrap_or_else(|e| panic!("HammingTable::build: {e}"))
    }

    /// Packs `codes` and builds the table over them, rejecting databases
    /// that mix code widths with [`SearchError::InconsistentCodes`].
    pub fn try_build(codes: Vec<BinaryCode>) -> Result<Self, SearchError> {
        Ok(Self::over(Arc::new(PackedCodes::build(&codes)?)))
    }

    /// Builds the table over codes the caller keeps sharing.
    pub fn over(codes: Arc<PackedCodes>) -> Self {
        let mut buckets: HashMap<Box<[u64]>, Vec<usize>> = HashMap::new();
        for i in 0..codes.len() {
            buckets.entry(codes.words(i).into()).or_default().push(i);
        }
        HammingTable { buckets, codes }
    }

    /// The codes this table indexes (the handle it was built over).
    pub fn codes(&self) -> &Arc<PackedCodes> {
        &self.codes
    }

    /// Number of indexed codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of non-empty buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Collects every database index within Hamming radius `r` (at most
    /// 2) of the query by direct table lookups: 1 probe at distance 0,
    /// `bits` probes at distance 1, `bits choose 2` probes at distance 2.
    ///
    /// Results come back grouped as `(distance, indices)` in increasing
    /// distance order.
    ///
    /// Returns [`SearchError::RadiusUnsupported`] for `r > 2` (larger
    /// radii would need `O(bits^r)` probes; the paper's hybrid strategy
    /// never exceeds 2) and [`SearchError::WidthMismatch`] for a query
    /// whose width differs from the indexed codes (an empty table
    /// accepts any query and finds nothing).
    pub fn lookup_within(
        &self,
        query: &BinaryCode,
        r: u32,
    ) -> Result<Vec<(u32, Vec<usize>)>, SearchError> {
        if r > 2 {
            return Err(SearchError::RadiusUnsupported { radius: r, max: 2 });
        }
        if self.codes.is_empty() {
            return Ok(Vec::new());
        }
        if query.len() != self.codes.bits() {
            return Err(SearchError::WidthMismatch { query: query.len(), index: self.codes.bits() });
        }
        let mut out = Vec::new();
        let probe = |code: &BinaryCode, dist: u32, out: &mut Vec<(u32, Vec<usize>)>| {
            if let Some(members) = self.buckets.get(code.words()) {
                match out.iter_mut().find(|(d, _)| *d == dist) {
                    Some((_, v)) => v.extend_from_slice(members),
                    None => out.push((dist, members.clone())),
                }
            }
        };
        probe(query, 0, &mut out);
        if r >= 1 {
            for i in 0..query.len() {
                probe(&query.with_flipped(i), 1, &mut out);
            }
        }
        if r >= 2 {
            for i in 0..query.len() {
                let flipped = query.with_flipped(i);
                for j in (i + 1)..query.len() {
                    probe(&flipped.with_flipped(j), 2, &mut out);
                }
            }
        }
        out.sort_by_key(|&(d, _)| d);
        Ok(out)
    }

    /// The `Hamming-Hybrid` strategy (Section V-E): search within radius
    /// 2 via table lookup; if that already yields at least `k`
    /// trajectories return the `k` nearest of them, otherwise fall back
    /// to brute-force Hamming search (which also covers the degraded
    /// cases: an empty table and `k` beyond the database size).
    ///
    /// The only error is a width-mismatched query against a non-empty
    /// table ([`SearchError::WidthMismatch`]); even the linear-scan
    /// fallback cannot compare codes of different widths.
    pub fn hybrid_top_k(&self, query: &BinaryCode, k: usize) -> Result<Vec<Hit>, SearchError> {
        let grouped = self.lookup_within(query, 2)?;
        let found: usize = grouped.iter().map(|(_, v)| v.len()).sum();
        if found >= k {
            let hits = grouped
                .into_iter()
                .flat_map(|(d, v)| {
                    v.into_iter().map(move |i| Hit { index: i, distance: d as f64 })
                })
                .collect();
            Ok(top_k_hits(hits, k))
        } else {
            let mut hits = Vec::with_capacity(self.codes.len());
            self.codes.scan_into(query, |i, d| hits.push(Hit { index: i, distance: d as f64 }));
            Ok(top_k_hits(hits, k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_codes(n: usize, bits: usize, seed: u64) -> Vec<BinaryCode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let signs: Vec<i8> =
                    (0..bits).map(|_| if rng.random::<bool>() { 1 } else { -1 }).collect();
                BinaryCode::from_signs(&signs)
            })
            .collect()
    }

    #[test]
    fn euclidean_top_k_orders_by_distance() {
        let db = vec![vec![0.0, 3.0], vec![1.0, 0.0], vec![0.0, 0.5]];
        let hits = euclidean_top_k(&db, &[0.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 2);
        assert_eq!(hits[1].index, 1);
        assert!((hits[0].distance - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hamming_top_k_matches_manual() {
        let db = random_codes(50, 32, 1);
        let q = db[7].clone();
        let hits = hamming_top_k(&db, &q, 5);
        assert_eq!(hits[0].index, 7);
        assert_eq!(hits[0].distance, 0.0);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn table_lookup_equals_brute_force_within_radius() {
        let db = random_codes(300, 16, 2); // 16 bits => plenty of collisions
        let table = HammingTable::build(db.clone());
        let q = db[0].clone();
        let grouped = table.lookup_within(&q, 2).unwrap();
        let mut via_table: Vec<(usize, u32)> = grouped
            .iter()
            .flat_map(|(d, v)| v.iter().map(move |&i| (i, *d)))
            .collect();
        via_table.sort();
        let mut via_bf: Vec<(usize, u32)> = db
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hamming(&q) <= 2)
            .map(|(i, c)| (i, c.hamming(&q)))
            .collect();
        via_bf.sort();
        assert_eq!(via_table, via_bf);
    }

    #[test]
    fn lookup_has_no_duplicate_indices() {
        let db = random_codes(100, 12, 3);
        let table = HammingTable::build(db.clone());
        let grouped = table.lookup_within(&db[5], 2).unwrap();
        let mut all: Vec<usize> = grouped.iter().flat_map(|(_, v)| v.clone()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(before, all.len(), "a database entry was probed twice");
    }

    #[test]
    fn hybrid_agrees_with_brute_force_on_top_k_distances() {
        let db = random_codes(400, 16, 4);
        let table = HammingTable::build(db.clone());
        for qi in [0, 13, 77] {
            let q = &db[qi];
            let hybrid = table.hybrid_top_k(q, 10).unwrap();
            let bf = hamming_top_k(&db, q, 10);
            // Indices may differ under distance ties; the distances must
            // agree exactly.
            let hd: Vec<f64> = hybrid.iter().map(|h| h.distance).collect();
            let bd: Vec<f64> = bf.iter().map(|h| h.distance).collect();
            assert_eq!(hd, bd);
        }
    }

    #[test]
    fn hybrid_falls_back_when_ball_is_sparse() {
        // 64-bit codes: random points are nowhere near each other, so the
        // radius-2 ball is almost surely empty and the fallback must kick
        // in and still return k results.
        let db = random_codes(100, 64, 5);
        let table = HammingTable::build(db.clone());
        let far = BinaryCode::from_signs(&[1i8; 64]);
        let hits = table.hybrid_top_k(&far, 7).unwrap();
        assert_eq!(hits.len(), 7);
        let bf = hamming_top_k(&db, &far, 7);
        assert_eq!(
            hits.iter().map(|h| h.distance).collect::<Vec<_>>(),
            bf.iter().map(|h| h.distance).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lookup_radius_above_two_is_a_typed_error() {
        let db = random_codes(10, 8, 6);
        let table = HammingTable::build(db.clone());
        assert_eq!(
            table.lookup_within(&db[0], 3).err(),
            Some(SearchError::RadiusUnsupported { radius: 3, max: 2 })
        );
    }

    #[test]
    fn hybrid_rejects_width_mismatched_queries() {
        let db = random_codes(10, 16, 7);
        let table = HammingTable::build(db);
        assert_eq!(
            table.hybrid_top_k(&BinaryCode::zeros(64), 3),
            Err(SearchError::WidthMismatch { query: 64, index: 16 })
        );
    }

    #[test]
    fn empty_table_answers_any_query_with_nothing() {
        let table = HammingTable::build(Vec::new());
        assert!(table.hybrid_top_k(&BinaryCode::zeros(64), 3).unwrap().is_empty());
        assert!(table.lookup_within(&BinaryCode::zeros(16), 2).unwrap().is_empty());
    }

    #[test]
    fn mixed_width_database_is_rejected_at_build() {
        let mut db = random_codes(4, 16, 8);
        db.push(BinaryCode::zeros(8));
        assert_eq!(
            HammingTable::try_build(db).err(),
            Some(SearchError::InconsistentCodes { position: 4, expected: 16, got: 8 })
        );
    }

    #[test]
    fn k_beyond_database_returns_everything() {
        let db = random_codes(5, 16, 9);
        let table = HammingTable::build(db.clone());
        let hits = table.hybrid_top_k(&db[0], 50).unwrap();
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn bucket_count_reflects_distinct_codes() {
        let a = BinaryCode::from_signs(&[1, 1, -1, -1]);
        let b = BinaryCode::from_signs(&[1, -1, 1, -1]);
        let table = HammingTable::build(vec![a.clone(), a.clone(), b]);
        assert_eq!(table.bucket_count(), 2);
        assert_eq!(table.len(), 3);
    }
}
