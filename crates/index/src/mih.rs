//! Multi-index hashing (Norouzi, Punjani & Fleet): exact k-NN in
//! Hamming space without scanning the database and without the
//! `O(bits^r)` probe blow-up of single-table lookups.
//!
//! The paper's footnote 5 observes that a 64-bit code space is mostly
//! empty buckets, so pure neighbour expansion in one table is hopeless.
//! Multi-index hashing is the canonical fix: split every code into `m`
//! disjoint substrings and index each substring in its own table. A code
//! within Hamming distance `r` of the query must be within distance
//! `floor(r / m)` of the query in **at least one** substring (pigeonhole),
//! so searching radius `r` costs `m` small-radius probes over short
//! substrings instead of `C(bits, r)` probes over full codes.

use crate::code::BinaryCode;
use crate::error::SearchError;
use crate::packed::PackedCodes;
use crate::search::Hit;
use crate::topk::{sort_hits, top_k_hits};
use std::collections::HashMap;
use std::sync::Arc;

/// An exact Hamming k-NN index over fixed-width binary codes. The index
/// reads the caller's [`PackedCodes`] through a shared handle and keeps
/// no copy of its own.
pub struct MultiIndexHashing {
    /// Substring tables: `tables[s]` maps a substring value to the
    /// database ids having that substring.
    tables: Vec<HashMap<u64, Vec<u32>>>,
    /// Substring bit ranges `(start, len)`.
    chunks: Vec<(usize, usize)>,
    codes: Arc<PackedCodes>,
}

/// Bits `start..start + len` of a code's packed words, as one value.
fn substring(words: &[u64], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    let mut out = 0u64;
    for i in start..start + len {
        out |= ((words[i / 64] >> (i % 64)) & 1) << (i - start);
    }
    out
}

/// Enumerates all `len`-bit values within Hamming distance exactly `r`
/// of `base`, invoking `f` on each.
fn for_each_at_distance(base: u64, len: usize, r: usize, f: &mut impl FnMut(u64)) {
    fn rec(base: u64, len: usize, r: usize, start: usize, acc: u64, f: &mut impl FnMut(u64)) {
        if r == 0 {
            f(base ^ acc);
            return;
        }
        for i in start..len {
            rec(base, len, r - 1, i + 1, acc | (1 << i), f);
        }
    }
    rec(base, len, r, 0, 0, f);
}

impl MultiIndexHashing {
    /// Builds the index with `m` substring tables, panicking on misuse.
    ///
    /// Convenience wrapper over [`MultiIndexHashing::try_build`] for
    /// callers that construct codes themselves and treat failure as a
    /// programming error.
    ///
    /// # Panics
    /// Panics where `try_build` would return an error.
    pub fn build(codes: Vec<BinaryCode>, m: usize) -> Self {
        Self::try_build(codes, m).unwrap_or_else(|e| panic!("MultiIndexHashing::build: {e}"))
    }

    /// Packs `codes` and builds the index over them with `m` substring
    /// tables; see [`MultiIndexHashing::over`]. Databases mixing code
    /// widths are [`SearchError::InconsistentCodes`] — an index built
    /// over those would silently answer queries wrongly.
    pub fn try_build(codes: Vec<BinaryCode>, m: usize) -> Result<Self, SearchError> {
        Self::over(Arc::new(PackedCodes::build(&codes)?), m)
    }

    /// Builds the index with `m` substring tables over codes the caller
    /// keeps sharing.
    ///
    /// An `m` that does not fit the code width degrades gracefully
    /// instead of failing: it is clamped so no table covers more than
    /// 64 bits (queries stay exact, just with different constants) and
    /// so there are never more tables than bits. The one hard error is
    /// `m == 0` ([`SearchError::NoTables`]).
    pub fn over(codes: Arc<PackedCodes>, m: usize) -> Result<Self, SearchError> {
        if m == 0 {
            return Err(SearchError::NoTables);
        }
        let bits = codes.bits();
        // Graceful clamping: at least div_ceil(bits, 64) tables so every
        // substring fits in a u64, at most one table per bit.
        let m = m.clamp(bits.div_ceil(64).max(1), bits.max(1));
        // Spread the bits as evenly as possible: the first `bits % m`
        // chunks get one extra bit.
        let base = bits / m;
        let extra = bits % m;
        let mut chunks = Vec::with_capacity(m);
        let mut start = 0usize;
        for s in 0..m {
            let len = base + usize::from(s < extra);
            chunks.push((start, len));
            start += len;
        }
        let mut tables: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); m];
        for id in 0..codes.len() {
            for (s, &(cs, cl)) in chunks.iter().enumerate() {
                #[expect(clippy::cast_possible_truncation, reason = "slots are far below 2^32")]
                tables[s].entry(substring(codes.words(id), cs, cl)).or_default().push(id as u32);
            }
        }
        Ok(MultiIndexHashing { tables, chunks, codes })
    }

    /// Number of indexed codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The codes this index covers (the handle it was built over).
    pub fn codes(&self) -> &Arc<PackedCodes> {
        &self.codes
    }

    /// Number of substring tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Exact range query: every database index within Hamming distance
    /// `radius` of the query, as `(index, distance)` pairs sorted by
    /// distance then index.
    ///
    /// Probes substring radius `floor(radius/m)` in every table
    /// (pigeonhole guarantee) and filters candidates by their true
    /// distance.
    ///
    /// An empty index answers any query with no hits; a non-empty index
    /// rejects width-mismatched queries with
    /// [`SearchError::WidthMismatch`] (Hamming distance across widths
    /// is undefined, so there is no correct fallback).
    pub fn within_radius(
        &self,
        query: &BinaryCode,
        radius: u32,
    ) -> Result<Vec<Hit>, SearchError> {
        if self.codes.is_empty() {
            return Ok(Vec::new());
        }
        if query.len() != self.codes.bits() {
            return Err(SearchError::WidthMismatch { query: query.len(), index: self.codes.bits() });
        }
        let m = self.tables.len();
        let sub_r = (radius as usize / m).min(query.len());
        let mut seen = vec![false; self.codes.len()];
        let mut out = Vec::new();
        for (s, &(cs, cl)) in self.chunks.iter().enumerate() {
            let q_sub = substring(query.words(), cs, cl);
            let table = &self.tables[s];
            for probe_r in 0..=sub_r.min(cl) {
                let mut visit = |candidate_sub: u64| {
                    if let Some(ids) = table.get(&candidate_sub) {
                        for &id in ids {
                            let idx = id as usize;
                            if !seen[idx] {
                                seen[idx] = true;
                                let d = self.codes.distance(idx, query);
                                if d <= radius {
                                    out.push(Hit { index: idx, distance: d as f64 });
                                }
                            }
                        }
                    }
                };
                for_each_at_distance(q_sub, cl, probe_r, &mut visit);
            }
        }
        sort_hits(&mut out);
        Ok(out)
    }

    /// Exact top-k by Hamming distance.
    ///
    /// Searches radius 0, 1, 2, … until `k` results are guaranteed
    /// complete: after finishing radius `r` (probing substring radius
    /// `floor(r/m)` in every table), every code at distance ≤ r has been
    /// seen, so once `k` candidates are at distance ≤ r the search stops.
    ///
    /// Degraded inputs degrade gracefully: an empty index or `k == 0`
    /// yields no hits, `k` beyond the database size returns everything.
    /// Width-mismatched queries are the one typed error
    /// ([`SearchError::WidthMismatch`]) — there is no correct answer
    /// for them.
    pub fn top_k(&self, query: &BinaryCode, k: usize) -> Result<Vec<Hit>, SearchError> {
        self.top_k_counted(query, k).map(|(hits, _)| hits)
    }

    /// [`top_k`](MultiIndexHashing::top_k) plus the number of full-code
    /// distance evaluations spent — every distinct row a probe reached —
    /// for comparing pruning effectiveness against a scan.
    #[expect(clippy::cast_possible_wrap, reason = "sub_r <= bits per chunk, a tiny positive count")]
    pub fn top_k_counted(
        &self,
        query: &BinaryCode,
        k: usize,
    ) -> Result<(Vec<Hit>, usize), SearchError> {
        if self.codes.is_empty() || k == 0 {
            return Ok((Vec::new(), 0));
        }
        if query.len() != self.codes.bits() {
            return Err(SearchError::WidthMismatch { query: query.len(), index: self.codes.bits() });
        }
        let m = self.tables.len();
        let mut seen = vec![false; self.codes.len()];
        // candidates[d] = ids at full-code distance d
        let mut by_distance: Vec<Vec<u32>> = vec![Vec::new(); query.len() + 1];
        let mut found = 0usize;
        let mut probed_sub_radius: isize = -1;
        for r in 0..=query.len() {
            // Pigeonhole: codes at distance <= r differ by <= floor(r/m)
            // in some substring.
            let sub_r = r / m;
            if sub_r as isize > probed_sub_radius {
                probed_sub_radius = sub_r as isize;
                for (s, &(cs, cl)) in self.chunks.iter().enumerate() {
                    let q_sub = substring(query.words(), cs, cl);
                    let table = &self.tables[s];
                    let mut visit = |candidate_sub: u64| {
                        if let Some(ids) = table.get(&candidate_sub) {
                            for &id in ids {
                                let idx = id as usize;
                                if !seen[idx] {
                                    seen[idx] = true;
                                    let d = self.codes.distance(idx, query) as usize;
                                    by_distance[d].push(id);
                                    found += 1;
                                }
                            }
                        }
                    };
                    for_each_at_distance(q_sub, cl, sub_r, &mut visit);
                }
            }
            // After probing substring radius floor(r/m), everything at
            // full distance <= r is in `by_distance`.
            let complete: usize = by_distance[..=r].iter().map(|v| v.len()).sum();
            if complete >= k || found == self.codes.len() {
                let hits = by_distance
                    .iter()
                    .enumerate()
                    .flat_map(|(d, ids)| {
                        ids.iter().map(move |&id| Hit { index: id as usize, distance: d as f64 })
                    })
                    .collect();
                return Ok((top_k_hits(hits, k), found));
            }
        }
        unreachable!("search must terminate within the code width");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::hamming_top_k;
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
    fn substring_extraction() {
        let code = BinaryCode::from_signs(&[1, -1, 1, 1, -1, -1, 1, -1]);
        assert_eq!(substring(code.words(), 0, 4), 0b1101);
        assert_eq!(substring(code.words(), 4, 4), 0b0100);
    }

    #[test]
    fn distance_enumeration_counts() {
        let mut count = 0;
        for_each_at_distance(0b1010, 6, 2, &mut |_| count += 1);
        assert_eq!(count, 15); // C(6, 2)
        let mut exact = Vec::new();
        for_each_at_distance(0b111, 3, 1, &mut |v| exact.push(v));
        exact.sort_unstable();
        assert_eq!(exact, vec![0b011, 0b101, 0b110]);
    }

    #[test]
    fn matches_brute_force_on_random_codes() {
        for (bits, m) in [(16usize, 2usize), (32, 4), (64, 4)] {
            let db = random_codes(400, bits, bits as u64);
            let mih = MultiIndexHashing::build(db.clone(), m);
            for qi in [0usize, 17, 333] {
                let q = &db[qi];
                for k in [1usize, 5, 20] {
                    let got: Vec<f64> =
                        mih.top_k(q, k).unwrap().iter().map(|h| h.distance).collect();
                    let want: Vec<f64> =
                        hamming_top_k(&db, q, k).iter().map(|h| h.distance).collect();
                    assert_eq!(got, want, "bits={bits} m={m} k={k}");
                }
            }
        }
    }

    #[test]
    fn far_query_still_exact() {
        let db = random_codes(200, 64, 9);
        let mih = MultiIndexHashing::build(db.clone(), 4);
        let far = BinaryCode::from_signs(&[1i8; 64]);
        let got: Vec<f64> = mih.top_k(&far, 10).unwrap().iter().map(|h| h.distance).collect();
        let want: Vec<f64> = hamming_top_k(&db, &far, 10).iter().map(|h| h.distance).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let db = random_codes(7, 16, 3);
        let mih = MultiIndexHashing::build(db.clone(), 2);
        let (hits, evaluations) = mih.top_k_counted(&db[0], 50).unwrap();
        assert_eq!(hits.len(), 7);
        // every row is reached exactly once, whichever tables hold it
        assert_eq!(evaluations, 7);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let mih = MultiIndexHashing::build(Vec::new(), 4);
        assert!(mih.is_empty());
        assert!(mih.top_k(&BinaryCode::zeros(64), 5).unwrap().is_empty());
    }

    #[test]
    fn duplicate_codes_all_returned() {
        let base = random_codes(1, 16, 4).pop().unwrap();
        let db = vec![base.clone(), base.clone(), base.clone()];
        let mih = MultiIndexHashing::build(db, 2);
        let hits = mih.top_k(&base, 3).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.distance == 0.0));
    }

    #[test]
    fn mismatched_query_width_is_a_typed_error() {
        let db = random_codes(3, 16, 5);
        let mih = MultiIndexHashing::build(db, 2);
        assert_eq!(
            mih.top_k(&BinaryCode::zeros(32), 1),
            Err(SearchError::WidthMismatch { query: 32, index: 16 })
        );
        assert_eq!(
            mih.within_radius(&BinaryCode::zeros(32), 2),
            Err(SearchError::WidthMismatch { query: 32, index: 16 })
        );
    }

    #[test]
    fn zero_tables_is_a_typed_error_and_oversized_m_clamps() {
        let db = random_codes(10, 16, 6);
        assert_eq!(
            MultiIndexHashing::try_build(db.clone(), 0).err(),
            Some(SearchError::NoTables)
        );
        // m = 100 over 16-bit codes clamps to 16 tables and stays exact.
        let mih = MultiIndexHashing::try_build(db.clone(), 100).unwrap();
        assert_eq!(mih.num_tables(), 16);
        let got: Vec<f64> = mih.top_k(&db[0], 5).unwrap().iter().map(|h| h.distance).collect();
        let want: Vec<f64> = hamming_top_k(&db, &db[0], 5).iter().map(|h| h.distance).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn wide_codes_get_enough_tables_even_for_m_1() {
        // 128-bit codes cannot use a single 128-bit substring table; the
        // builder clamps up to two tables and remains exact. The codes
        // are kept within a few bit flips of each other so the radius-
        // growing search terminates quickly (random 128-bit codes would
        // push the substring radius into infeasible probe counts).
        let base = random_codes(1, 128, 7).pop().unwrap();
        let db: Vec<BinaryCode> = (0..20)
            .map(|i| {
                let mut words = base.words().to_vec();
                for b in (0..(i % 4)).map(|b| i * 3 + b) {
                    words[b / 64] ^= 1 << (b % 64);
                }
                BinaryCode::from_words(words, 128).unwrap()
            })
            .collect();
        let mih = MultiIndexHashing::try_build(db.clone(), 1).unwrap();
        assert!(mih.num_tables() >= 2);
        let got: Vec<f64> = mih.top_k(&db[3], 5).unwrap().iter().map(|h| h.distance).collect();
        let want: Vec<f64> = hamming_top_k(&db, &db[3], 5).iter().map(|h| h.distance).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_width_database_is_a_typed_error() {
        let mut db = random_codes(3, 16, 8);
        db.push(BinaryCode::zeros(32));
        assert_eq!(
            MultiIndexHashing::try_build(db, 2).err(),
            Some(SearchError::InconsistentCodes { position: 3, expected: 16, got: 32 })
        );
    }
}
