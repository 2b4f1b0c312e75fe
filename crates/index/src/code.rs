//! Compact binary codes with fast Hamming distance.

/// A fixed-length binary code packed into 64-bit words.
///
/// Bit `i` set means the i-th embedding coordinate was positive, i.e.
/// `sign(h_f)[i] = +1` (Eq. 16). With this packing, the Hamming distance
/// between codes equals the number of coordinates on which the sign
/// vectors disagree, matching `H(z^a, z^b) = (d_h - z^a . z^b) / 2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryCode {
    bits: Vec<u64>,
    len: usize,
}

impl BinaryCode {
    /// Packs a `+-1` sign vector.
    pub fn from_signs(signs: &[i8]) -> Self {
        let mut bits = vec![0u64; signs.len().div_ceil(64)];
        for (i, &s) in signs.iter().enumerate() {
            debug_assert!(s == 1 || s == -1, "signs must be +-1");
            if s > 0 {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        BinaryCode { bits, len: signs.len() }
    }

    /// Packs the signs of a float embedding (`x > 0` maps to bit 1).
    pub fn from_floats(values: &[f32]) -> Self {
        let mut bits = vec![0u64; values.len().div_ceil(64)];
        for (i, &x) in values.iter().enumerate() {
            if x > 0.0 {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        BinaryCode { bits, len: values.len() }
    }

    /// An all-zero code of the given length.
    pub fn zeros(len: usize) -> Self {
        BinaryCode { bits: vec![0u64; len.div_ceil(64)], len }
    }

    /// Rebuilds a code from its packed words (inverse of
    /// [`BinaryCode::words`] + [`BinaryCode::len`]) — the deserialization
    /// path of engine snapshots. Rejects a word count that does not match
    /// `len` and stray bits beyond `len` in the last word, either of
    /// which would silently corrupt every Hamming distance later.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self, String> {
        if words.len() != len.div_ceil(64) {
            return Err(format!("{} words cannot hold exactly {len} bits", words.len()));
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(format!("bits set beyond the code length {len}"));
                }
            }
        }
        Ok(BinaryCode { bits: words, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length code.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Value of bit `i`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance to another code of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[inline]
    pub fn hamming(&self, other: &BinaryCode) -> u32 {
        assert_eq!(self.len, other.len, "code length mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| (a ^ b).count_ones())
            .sum()
    }

    /// The sign vector this code encodes.
    pub fn to_signs(&self) -> Vec<i8> {
        (0..self.len).map(|i| if self.bit(i) { 1 } else { -1 }).collect()
    }

    /// Inner product of the two `+-1` sign vectors, computed from the
    /// packed form: `z^a . z^b = d_h - 2 * H(a, b)`.
    #[expect(clippy::cast_possible_wrap, reason = "code widths are far below 2^63")]
    pub fn sign_inner_product(&self, other: &BinaryCode) -> i64 {
        self.len as i64 - 2 * self.hamming(other) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let signs: Vec<i8> = (0..70).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
        let c = BinaryCode::from_signs(&signs);
        assert_eq!(c.len(), 70);
        assert_eq!(c.to_signs(), signs);
    }

    #[test]
    fn from_floats_thresholds_at_zero() {
        let c = BinaryCode::from_floats(&[0.5, -0.5, 0.0, 1e-9]);
        assert!(c.bit(0));
        assert!(!c.bit(1));
        assert!(!c.bit(2), "zero maps to -1 as in the paper's sign()");
        assert!(c.bit(3));
    }

    #[test]
    fn hamming_counts_disagreements() {
        let a = BinaryCode::from_signs(&[1, 1, -1, -1]);
        let b = BinaryCode::from_signs(&[1, -1, -1, 1]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn hamming_across_word_boundary() {
        let mut signs = vec![1i8; 130];
        let a = BinaryCode::from_signs(&signs);
        signs[0] = -1;
        signs[64] = -1;
        signs[129] = -1;
        let b = BinaryCode::from_signs(&signs);
        assert_eq!(a.hamming(&b), 3);
    }

    #[test]
    fn inner_product_identity() {
        // H = (d - z.z') / 2  <=>  z.z' = d - 2H (the identity the paper
        // uses to rewrite Eq. 18 into Eq. 19).
        let a = BinaryCode::from_signs(&[1, 1, -1, 1, -1]);
        let b = BinaryCode::from_signs(&[-1, 1, -1, -1, -1]);
        let dot: i64 = a
            .to_signs()
            .iter()
            .zip(b.to_signs())
            .map(|(&x, y)| x as i64 * y as i64)
            .sum();
        assert_eq!(a.sign_inner_product(&b), dot);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = BinaryCode::zeros(8);
        let b = BinaryCode::zeros(16);
        let _ = a.hamming(&b);
    }
}
