//! Flat row-major embedding storage — the Euclidean twin of
//! [`PackedCodes`](crate::PackedCodes).
//!
//! A corpus of `Vec<f32>` embeddings is one heap allocation and one
//! pointer chase per row; [`EmbeddingMatrix`] lays every row
//! back-to-back in a single `f32` buffer, so a scan is a straight walk
//! and a shard generation's embeddings are one allocation. Rows are
//! compared with [`euclidean_distance`], the one spelling of the
//! distance every Euclidean path (scan, VP-tree, engine) shares.

use crate::error::SearchError;

/// Euclidean distance in `f64`, accumulated in dimension order. Every
/// exact Euclidean answer in the workspace is compared bit for bit
/// against this accumulation order, so it must not change.
#[inline]
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x as f64 - y as f64).powi(2)).sum::<f64>().sqrt()
}

/// Equal-width embeddings in one contiguous row-major `f32` buffer.
/// An empty matrix has no width yet: the first row pushed sets it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EmbeddingMatrix {
    data: Vec<f32>,
    dim: usize,
    n: usize,
}

impl EmbeddingMatrix {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no row is stored.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Width of every row (0 for an empty matrix).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// `Ok` when a row of `width` floats could be pushed: the matrix is
    /// empty or already holds rows of that width.
    pub fn check_width(&self, width: usize) -> Result<(), SearchError> {
        if self.n > 0 && width != self.dim {
            return Err(SearchError::InconsistentEmbeddings {
                position: self.n,
                expected: self.dim,
                got: width,
            });
        }
        Ok(())
    }

    /// Appends `row`; a width mismatch is refused and stores nothing.
    pub fn push(&mut self, row: &[f32]) -> Result<(), SearchError> {
        self.check_width(row.len())?;
        self.dim = row.len();
        self.data.extend_from_slice(row);
        self.n += 1;
        Ok(())
    }

    /// Appends row `i` of `src` — how rows move between blocks that
    /// already share a width.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the widths differ.
    pub fn push_from(&mut self, src: &EmbeddingMatrix, i: usize) {
        assert!(self.n == 0 || self.dim == src.dim, "embedding width mismatch");
        self.dim = src.dim;
        self.data.extend_from_slice(src.row(i));
        self.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[&[f32]]) -> EmbeddingMatrix {
        let mut m = EmbeddingMatrix::default();
        rows.iter().for_each(|r| m.push(r).unwrap());
        m
    }

    #[test]
    fn distance_accumulates_in_f64_dimension_order() {
        let (a, b) = ([0.1f32, -2.5, 7.0], [1.5f32, 0.25, -3.0]);
        let want = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        assert_eq!(euclidean_distance(&a, &b).to_bits(), want.to_bits());
        assert_eq!(euclidean_distance(&[], &[]), 0.0);
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let m = matrix(&[&[], &[], &[]]);
        assert_eq!((m.len(), m.dim()), (3, 0));
        assert!(m.row(2).is_empty());
    }

    #[test]
    fn mixed_widths_are_a_typed_error_and_store_nothing() {
        let mut m = matrix(&[&[1.0, 2.0]]);
        assert_eq!(
            m.push(&[3.0]),
            Err(SearchError::InconsistentEmbeddings { position: 1, expected: 2, got: 1 })
        );
        assert_eq!(m, matrix(&[&[1.0, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_from_a_different_width_panics() {
        matrix(&[&[1.0, 2.0]]).push_from(&matrix(&[&[1.0]]), 0);
    }
}
