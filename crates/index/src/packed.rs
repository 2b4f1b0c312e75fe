//! Flat packed-code storage for memory-bandwidth Hamming scans.
//!
//! [`BinaryCode`] keeps each code in its own heap allocation, which is
//! the right shape for a query but the wrong one for a corpus: a scan
//! over a `Vec` of them chases one pointer per candidate.
//! [`PackedCodes`] is the stored form of a corpus' codes: every code
//! back-to-back in a single `u64` buffer so the scan is a straight walk
//! over contiguous words, and [`PackedCodes::scan_into`] processes four
//! codes per iteration with four independent popcount accumulators —
//! enough instruction-level parallelism for the XOR+popcount chain to
//! saturate the load ports instead of serializing on one accumulator.
//!
//! Distances are exact `u32` Hamming distances, bit-identical to
//! [`BinaryCode::hamming`]; only the memory layout and the loop shape
//! change.

use crate::code::BinaryCode;
use crate::error::SearchError;

/// Hamming distance between two equal-length word slices, accumulated
/// in four independent lanes over word chunks of four. For the short
/// codes the paper uses (1–2 words at 64–128 bits) this degenerates to
/// the plain loop; for wider codes the four accumulators keep the
/// popcount chain from serializing.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "word count mismatch");
    let mut acc = [0u32; 4];
    let n4 = a.len() & !3;
    let mut w = 0;
    while w < n4 {
        acc[0] += (a[w] ^ b[w]).count_ones();
        acc[1] += (a[w + 1] ^ b[w + 1]).count_ones();
        acc[2] += (a[w + 2] ^ b[w + 2]).count_ones();
        acc[3] += (a[w + 3] ^ b[w + 3]).count_ones();
        w += 4;
    }
    while w < a.len() {
        acc[0] += (a[w] ^ b[w]).count_ones();
        w += 1;
    }
    acc[0] + acc[1] + acc[2] + acc[3]
}

/// A corpus of equal-width binary codes packed into one contiguous
/// `u64` buffer, `stride` words per code. An empty corpus has no width
/// yet: the first code pushed sets it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedCodes {
    words: Vec<u64>,
    stride: usize,
    bits: usize,
    n: usize,
}

impl PackedCodes {
    /// Packs `codes` into the flat layout. Mixed widths are rejected —
    /// a strided scan over those would compare garbage words.
    pub fn build(codes: &[BinaryCode]) -> Result<Self, SearchError> {
        let mut packed = PackedCodes::default();
        packed.words.reserve(codes.first().map_or(0, |c| c.words().len()) * codes.len());
        codes.iter().try_for_each(|c| packed.push(c))?;
        Ok(packed)
    }

    /// `Ok` when a code of `bits` bits could be pushed: the corpus is
    /// empty or already holds codes of that width.
    pub fn check_width(&self, bits: usize) -> Result<(), SearchError> {
        if self.n > 0 && bits != self.bits {
            return Err(SearchError::InconsistentCodes {
                position: self.n,
                expected: self.bits,
                got: bits,
            });
        }
        Ok(())
    }

    /// Appends `code`; a width mismatch is refused and stores nothing.
    pub fn push(&mut self, code: &BinaryCode) -> Result<(), SearchError> {
        self.check_width(code.len())?;
        (self.bits, self.stride) = (code.len(), code.words().len());
        self.words.extend_from_slice(code.words());
        self.n += 1;
        Ok(())
    }

    /// Appends code `i` of `src` — how codes move between blocks that
    /// already share a width.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the widths differ.
    pub fn push_from(&mut self, src: &PackedCodes, i: usize) {
        assert!(self.n == 0 || self.bits == src.bits, "code length mismatch");
        (self.bits, self.stride) = (src.bits, src.stride);
        self.words.extend_from_slice(src.words(i));
        self.n += 1;
    }

    /// The packed words of code `i` ([`BinaryCode::words`] of the code
    /// that was pushed).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn words(&self, i: usize) -> &[u64] {
        assert!(i < self.n, "code index {i} out of range {}", self.n);
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Number of packed codes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no code is packed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Width of every packed code, in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Hamming distance from code `i` to `q`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the widths differ.
    #[inline]
    pub fn distance(&self, i: usize, q: &BinaryCode) -> u32 {
        assert_eq!(self.bits, q.len(), "code length mismatch");
        hamming_words(self.words(i), q.words())
    }

    /// Scans every packed code against `q`, invoking `out(index,
    /// distance)` in ascending index order. Four codes are processed
    /// per iteration, each with its own accumulator; the remainder
    /// falls back to [`hamming_words`]. Distances are bit-identical to
    /// a [`BinaryCode::hamming`] loop.
    ///
    /// # Panics
    /// Panics if `q`'s width differs from the packed width (an empty
    /// corpus accepts any width — there is nothing to compare).
    pub fn scan_into(&self, q: &BinaryCode, mut out: impl FnMut(usize, u32)) {
        if self.n == 0 {
            return;
        }
        assert_eq!(self.bits, q.len(), "code length mismatch");
        let qw = q.words();
        let s = self.stride;
        if s == 1 {
            // One word per code — the paper's default 64-bit hashes.
            // `chunks_exact` gives the compiler a bounds-check-free
            // 4-wide body; each lane's popcount chain is independent.
            let qword = qw[0];
            let mut i = 0;
            let mut quads = self.words.chunks_exact(4);
            for c in &mut quads {
                out(i, (c[0] ^ qword).count_ones());
                out(i + 1, (c[1] ^ qword).count_ones());
                out(i + 2, (c[2] ^ qword).count_ones());
                out(i + 3, (c[3] ^ qword).count_ones());
                i += 4;
            }
            for &w in quads.remainder() {
                out(i, (w ^ qword).count_ones());
                i += 1;
            }
            return;
        }
        let n4 = self.n & !3;
        let mut i = 0;
        while i < n4 {
            let base = i * s;
            let mut acc = [0u32; 4];
            for (w, &qword) in qw.iter().enumerate() {
                acc[0] += (self.words[base + w] ^ qword).count_ones();
                acc[1] += (self.words[base + s + w] ^ qword).count_ones();
                acc[2] += (self.words[base + 2 * s + w] ^ qword).count_ones();
                acc[3] += (self.words[base + 3 * s + w] ^ qword).count_ones();
            }
            out(i, acc[0]);
            out(i + 1, acc[1]);
            out(i + 2, acc[2]);
            out(i + 3, acc[3]);
            i += 4;
        }
        while i < self.n {
            out(i, hamming_words(&self.words[i * s..(i + 1) * s], qw));
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(n: usize, bits: usize) -> Vec<BinaryCode> {
        (0..n)
            .map(|i| {
                let signs: Vec<i8> = (0..bits)
                    .map(|b| if (i * 31 + b * 7 + i * b) % 3 == 0 { 1 } else { -1 })
                    .collect();
                BinaryCode::from_signs(&signs)
            })
            .collect()
    }

    #[test]
    fn scan_matches_per_code_hamming_exactly() {
        for bits in [1usize, 63, 64, 65, 128, 300] {
            for n in [0usize, 1, 3, 4, 5, 17] {
                let cs = codes(n, bits);
                let packed = PackedCodes::build(&cs).unwrap();
                assert_eq!(packed.len(), n);
                let q = codes(n + 1, bits).pop().unwrap();
                let mut got = Vec::new();
                packed.scan_into(&q, |i, d| got.push((i, d)));
                let want: Vec<(usize, u32)> =
                    cs.iter().enumerate().map(|(i, c)| (i, c.hamming(&q))).collect();
                assert_eq!(got, want, "bits={bits} n={n}");
                for (i, c) in cs.iter().enumerate() {
                    assert_eq!(packed.distance(i, &q), c.hamming(&q));
                }
            }
        }
    }

    #[test]
    fn hamming_words_matches_binary_code() {
        let a = codes(2, 257)[0].clone();
        let b = codes(2, 257)[1].clone();
        assert_eq!(hamming_words(a.words(), b.words()), a.hamming(&b));
        assert_eq!(hamming_words(&[], &[]), 0);
    }

    #[test]
    fn mixed_widths_rejected() {
        let mut cs = codes(3, 64);
        cs.push(BinaryCode::zeros(65));
        assert!(matches!(
            PackedCodes::build(&cs),
            Err(SearchError::InconsistentCodes { position: 3, expected: 64, got: 65 })
        ));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn width_mismatch_scan_panics() {
        let packed = PackedCodes::build(&codes(4, 64)).unwrap();
        packed.scan_into(&BinaryCode::zeros(65), |_, _| {});
    }

    #[test]
    fn empty_corpus_scans_nothing_at_any_width() {
        let packed = PackedCodes::build(&[]).unwrap();
        assert!(packed.is_empty());
        packed.scan_into(&BinaryCode::zeros(0), |_, _| panic!("nothing to scan"));
        packed.scan_into(&BinaryCode::zeros(64), |_, _| panic!("nothing to scan"));
    }
}
