//! Top-k search strategies (Section V-E): Euclidean brute force,
//! Hamming brute force, radius-2 table lookup, and the Hamming-Hybrid
//! strategy.

use crate::code::BinaryCode;
use crate::error::SearchError;
use crate::matrix::euclidean_distance;
use crate::packed::PackedCodes;
use crate::topk::{top_k_grouped, top_k_hits};
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
/// keeps no copy of its rows; its own storage is flat:
///
/// * `keys` — each distinct code once, `stride` words apiece, in order of
///   first occurrence (a code's position here is its bucket id);
/// * `starts` / `members` — the buckets in CSR form: bucket `b` holds the
///   rows `members[starts[b]..starts[b + 1]]`, ascending;
/// * `slots` — an open-addressed table of bucket ids (linear probing,
///   at most half full), hashed by [`hash_words`].
///
/// A lookup hashes the probe's words, walks a few `u32`s and compares
/// one key; nothing is allocated per probe.
pub struct HammingTable {
    keys: Vec<u64>,
    starts: Vec<usize>,
    members: Vec<usize>,
    slots: Vec<u32>,
    stride: usize,
    codes: Arc<PackedCodes>,
}

/// An unused entry of [`HammingTable::slots`].
const EMPTY: u32 = u32::MAX;

/// A fixed hash of a code's packed words: each word is folded in by an
/// xor and a multiply by the 64-bit golden ratio, and MurmurHash3's
/// 64-bit finaliser mixes the result so the low bits that pick a slot
/// depend on every input bit.
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in words {
        h = (h.rotate_left(29) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The slot `hash` lands in, in a table of `mask + 1` slots.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "only the bits under the slot mask are kept")]
fn home_slot(hash: u64, mask: usize) -> usize {
    hash as usize & mask
}

/// Flips bit `i` of a packed code.
#[inline]
fn flip(words: &mut [u64], i: usize) {
    words[i / 64] ^= 1 << (i % 64);
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
    ///
    /// # Panics
    /// Panics on `2^32 - 1` or more distinct codes.
    pub fn over(codes: Arc<PackedCodes>) -> Self {
        let n = codes.len();
        let stride = codes.bits().div_ceil(64);
        let mut table = HammingTable {
            keys: Vec::new(),
            starts: Vec::new(),
            members: Vec::new(),
            // At least twice as many slots as distinct codes, so every
            // probe sequence ends at an empty slot within a few steps.
            slots: vec![EMPTY; (2 * n).next_power_of_two()],
            stride,
            codes: Arc::clone(&codes),
        };
        let mut bucket_of = Vec::with_capacity(n);
        for i in 0..n {
            let words = codes.words(i);
            let bucket = match table.find(words) {
                Ok(b) => b,
                Err(slot) => {
                    let b = table.starts.len();
                    let id = u32::try_from(b).ok().filter(|&id| id != EMPTY);
                    table.slots[slot] = id.expect("fewer than 2^32 - 1 distinct codes");
                    table.keys.extend_from_slice(words);
                    table.starts.push(0);
                    b
                }
            };
            table.starts[bucket] += 1;
            bucket_of.push(bucket);
        }
        // Counts to CSR offsets, then rows in ascending order into place.
        let mut next = 0;
        for start in &mut table.starts {
            (*start, next) = (next, next + *start);
        }
        table.starts.push(next);
        table.members = vec![0; n];
        let mut fill = table.starts.clone();
        for (i, &b) in bucket_of.iter().enumerate() {
            table.members[fill[b]] = i;
            fill[b] += 1;
        }
        table
    }

    /// The bucket holding code `key`, or `Err` with the empty slot where
    /// it would go.
    #[inline]
    fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(hash_words(key), mask);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                b if self.key(b as usize) == key => return Ok(b as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The code of bucket `b`.
    #[inline]
    fn key(&self, b: usize) -> &[u64] {
        &self.keys[b * self.stride..(b + 1) * self.stride]
    }

    /// The rows of bucket `b`, ascending.
    #[inline]
    fn members(&self, b: usize) -> &[usize] {
        &self.members[self.starts[b]..self.starts[b + 1]]
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
        self.starts.len() - 1
    }

    /// Visits every non-empty bucket within Hamming radius `r` (at most
    /// 2) of the query by direct table lookups, calling `f(rows,
    /// distance)` with the bucket's rows in ascending order: 1 probe at
    /// distance 0, then `bits` probes at distance 1 (bit `i` flipped, `i`
    /// ascending), then `bits choose 2` probes at distance 2 (bits `i <
    /// j` flipped, lexicographic). Distances therefore arrive in
    /// non-decreasing order. The probes flip bits in one word buffer,
    /// the call's only allocation.
    ///
    /// Returns [`SearchError::RadiusUnsupported`] for `r > 2` (larger
    /// radii would need `O(bits^r)` probes; the paper's hybrid strategy
    /// never exceeds 2) and [`SearchError::WidthMismatch`] for a query
    /// whose width differs from the indexed codes (an empty table
    /// accepts any query and visits nothing).
    pub fn for_each_within(
        &self,
        query: &BinaryCode,
        r: u32,
        mut f: impl FnMut(&[usize], u32),
    ) -> Result<(), SearchError> {
        if r > 2 {
            return Err(SearchError::RadiusUnsupported { radius: r, max: 2 });
        }
        if self.codes.is_empty() {
            return Ok(());
        }
        let bits = query.len();
        if bits != self.codes.bits() {
            return Err(SearchError::WidthMismatch { query: bits, index: self.codes.bits() });
        }
        let probe = &mut query.words().to_vec();
        let mut visit = |probe: &[u64], d: u32| {
            if let Ok(b) = self.find(probe) {
                f(self.members(b), d);
            }
        };
        visit(probe, 0);
        if r >= 1 {
            for i in 0..bits {
                flip(probe, i);
                visit(probe, 1);
                flip(probe, i);
            }
        }
        if r >= 2 {
            for i in 0..bits {
                flip(probe, i);
                for j in (i + 1)..bits {
                    flip(probe, j);
                    visit(probe, 2);
                    flip(probe, j);
                }
                flip(probe, i);
            }
        }
        Ok(())
    }

    /// Collects every database index within Hamming radius `r` (at most
    /// 2) of the query: [`HammingTable::for_each_within`]'s buckets,
    /// concatenated per distance in probe order.
    ///
    /// Results come back grouped as `(distance, indices)` in increasing
    /// distance order; a distance with no row has no group. The errors
    /// are `for_each_within`'s.
    pub fn lookup_within(
        &self,
        query: &BinaryCode,
        r: u32,
    ) -> Result<Vec<(u32, Vec<usize>)>, SearchError> {
        let mut out: Vec<(u32, Vec<usize>)> = Vec::new();
        self.for_each_within(query, r, |rows, d| match out.last_mut() {
            Some((last, group)) if *last == d => group.extend_from_slice(rows),
            _ => out.push((d, rows.to_vec())),
        })?;
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
        let mut ball: [Vec<usize>; 3] = Default::default();
        self.for_each_within(query, 2, |rows, d| ball[d as usize].extend_from_slice(rows))?;
        if ball.iter().map(Vec::len).sum::<usize>() >= k {
            Ok(top_k_grouped(&mut ball, k))
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

    /// `code` with the listed bits flipped, in place on its words.
    fn flipped(code: &BinaryCode, bits: impl IntoIterator<Item = usize>) -> BinaryCode {
        let mut words = code.words().to_vec();
        for b in bits {
            flip(&mut words, b);
        }
        BinaryCode::from_words(words, code.len()).unwrap()
    }

    /// `n` codes of `bits` bits around four random centres: each row is a
    /// centre with 0–3 random bits flipped, so radius-2 balls are full
    /// at any width, flips land on either side of a word boundary and
    /// codes repeat. Returns the rows and the centres.
    fn clustered_codes(n: usize, bits: usize, seed: u64) -> (Vec<BinaryCode>, Vec<BinaryCode>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres = random_codes(4, bits, seed);
        let rows = (0..n)
            .map(|_| {
                let centre = &centres[rng.random_range(0..centres.len())];
                let flips: Vec<usize> =
                    (0..rng.random_range(0..4usize)).map(|_| rng.random_range(0..bits)).collect();
                flipped(centre, flips)
            })
            .collect();
        (rows, centres)
    }

    /// The radius-`r` ball of `q` by brute force over the packed codes,
    /// grouped as `lookup_within` documents it: distance ascending, then
    /// bucket by probe order (the flipped bits `i`, then `j > i`,
    /// ascending), then slot ascending within a bucket.
    fn brute_ball(packed: &PackedCodes, q: &BinaryCode, r: u32) -> Vec<(u32, Vec<usize>)> {
        let mut rows: Vec<(u32, Vec<usize>, usize)> = Vec::new();
        packed.scan_into(q, |i, d| {
            if d <= r {
                let (row, qw) = (packed.words(i), q.words());
                let diff = (0..q.len()).filter(|&b| ((row[b / 64] ^ qw[b / 64]) >> (b % 64)) & 1 == 1);
                rows.push((d, diff.collect(), i));
            }
        });
        rows.sort();
        let mut out: Vec<(u32, Vec<usize>)> = Vec::new();
        for (d, _, i) in rows {
            match out.last_mut() {
                Some((last, group)) if *last == d => group.push(i),
                _ => out.push((d, vec![i])),
            }
        }
        out
    }

    #[test]
    fn lookup_and_hybrid_equal_a_brute_force_ball_at_every_width() {
        for (seed, bits) in [16usize, 63, 64, 65, 128].into_iter().enumerate() {
            let (db, centres) = clustered_codes(300, bits, 10 + seed as u64);
            let packed = PackedCodes::build(&db).unwrap();
            let table = HammingTable::build(db.clone());
            assert!(table.bucket_count() < db.len(), "bits={bits}: no duplicate codes");
            let mut queries = centres.clone();
            queries.extend([0, 63, 64, bits - 1].map(|b| flipped(&centres[0], [b.min(bits - 1)])));
            queries.push(flipped(&centres[1], [0, bits / 2, bits - 1]));
            queries.push(random_codes(1, bits, 99).remove(0));
            assert!(queries.iter().any(|q| !db.contains(q)), "bits={bits}: every query is a row");
            let mut full_balls = 0;
            for q in &queries {
                for r in 0..=2 {
                    let got = table.lookup_within(q, r).unwrap();
                    assert_eq!(got, brute_ball(&packed, q, r), "bits={bits} r={r}");
                    full_balls += usize::from(got.len() == 3);
                }
                let mut all = Vec::new();
                packed.scan_into(q, |i, d| all.push(Hit { index: i, distance: d as f64 }));
                for k in [1, 5, 20, 120, 400] {
                    let want = top_k_hits(all.clone(), k);
                    assert_eq!(table.hybrid_top_k(q, k).unwrap(), want, "bits={bits} k={k}");
                }
            }
            assert!(full_balls > 0, "bits={bits}: no ball reached distances 0, 1 and 2");
            let empty = HammingTable::build(Vec::new());
            assert_eq!(empty.bucket_count(), 0);
            assert!(empty.lookup_within(&queries[0], 2).unwrap().is_empty());
            assert!(empty.hybrid_top_k(&queries[0], 3).unwrap().is_empty());
        }
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
