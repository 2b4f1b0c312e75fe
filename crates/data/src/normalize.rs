//! Gaussian (z-score) normalization of GPS coordinates (Eq. 10's
//! `Normalize`): each coordinate axis is centered by the dataset mean and
//! scaled by the dataset standard deviation before entering the neural
//! encoders.

use crate::types::{Point, Trajectory};

/// Per-axis mean and standard deviation of a trajectory dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormStats {
    /// Mean x.
    pub mean_x: f64,
    /// Mean y.
    pub mean_y: f64,
    /// Standard deviation of x (floored at a small epsilon).
    pub std_x: f64,
    /// Standard deviation of y (floored at a small epsilon).
    pub std_y: f64,
}

impl NormStats {
    /// Computes statistics over every point of every trajectory.
    ///
    /// Returns identity stats (`mean 0, std 1`) when there are no points,
    /// so normalization is always well defined.
    pub fn fit(trajectories: &[Trajectory]) -> NormStats {
        let mut n = 0usize;
        let (mut sx, mut sy) = (0.0f64, 0.0f64);
        for t in trajectories {
            for p in &t.points {
                sx += p.x;
                sy += p.y;
                n += 1;
            }
        }
        if n == 0 {
            return NormStats { mean_x: 0.0, mean_y: 0.0, std_x: 1.0, std_y: 1.0 };
        }
        let mean_x = sx / n as f64;
        let mean_y = sy / n as f64;
        let (mut vx, mut vy) = (0.0f64, 0.0f64);
        for t in trajectories {
            for p in &t.points {
                vx += (p.x - mean_x).powi(2);
                vy += (p.y - mean_y).powi(2);
            }
        }
        NormStats {
            mean_x,
            mean_y,
            std_x: (vx / n as f64).sqrt().max(1e-9),
            std_y: (vy / n as f64).sqrt().max(1e-9),
        }
    }

    /// Normalizes one point.
    #[expect(clippy::cast_possible_truncation, reason = "the model's features are f32")]
    pub fn apply_point(&self, p: Point) -> (f32, f32) {
        (
            ((p.x - self.mean_x) / self.std_x) as f32,
            ((p.y - self.mean_y) / self.std_y) as f32,
        )
    }

    /// Normalizes a whole trajectory into an `n x 2` feature buffer
    /// (row-major `[x0, y0, x1, y1, ...]`), ready to become a tensor.
    pub fn apply(&self, t: &Trajectory) -> Vec<f32> {
        let mut out = Vec::with_capacity(t.len() * 2);
        for &p in &t.points {
            let (x, y) = self.apply_point(p);
            out.push(x);
            out.push(y);
        }
        out
    }

    /// Inverse transform of one normalized point.
    pub fn invert(&self, x: f32, y: f32) -> Point {
        Point::new(
            x as f64 * self.std_x + self.mean_x,
            y as f64 * self.std_y + self.mean_y,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_zero_mean_unit_std_after_apply() {
        let ts = vec![
            Trajectory::from_xy(&[(0.0, 10.0), (2.0, 14.0)]),
            Trajectory::from_xy(&[(4.0, 18.0), (6.0, 22.0)]),
        ];
        let stats = NormStats::fit(&ts);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in &ts {
            let f = stats.apply(t);
            for pair in f.chunks_exact(2) {
                xs.push(pair[0]);
                ys.push(pair[1]);
            }
        }
        let mx: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let my: f32 = ys.iter().sum::<f32>() / ys.len() as f32;
        assert!(mx.abs() < 1e-6 && my.abs() < 1e-6);
        let vx: f32 = xs.iter().map(|x| x * x).sum::<f32>() / xs.len() as f32;
        assert!((vx - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_dataset_gets_identity_stats() {
        let stats = NormStats::fit(&[]);
        assert_eq!(stats.apply_point(Point::new(3.0, -2.0)), (3.0, -2.0));
    }

    #[test]
    fn invert_roundtrips() {
        let ts = vec![Trajectory::from_xy(&[(100.0, 200.0), (300.0, 500.0)])];
        let stats = NormStats::fit(&ts);
        let p = Point::new(123.0, 456.0);
        let (x, y) = stats.apply_point(p);
        let q = stats.invert(x, y);
        assert!((p.x - q.x).abs() < 1e-3 && (p.y - q.y).abs() < 1e-3);
    }

    #[test]
    fn degenerate_axis_does_not_divide_by_zero() {
        // all points share the same y
        let ts = vec![Trajectory::from_xy(&[(0.0, 5.0), (10.0, 5.0)])];
        let stats = NormStats::fit(&ts);
        let f = stats.apply(&ts[0]);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}
