//! Fresh: locality-sensitive hashing for curves (Ceccarello, Driemel &
//! Silvestri), the data-independent comparator of Table II.
//!
//! Each of `L` repetitions snaps the trajectory onto a randomly shifted
//! grid of the configured resolution, collapses consecutive duplicates,
//! and hashes the resulting cell sequence to a `bits_per_rep`-bit integer
//! with multiply–shift hashing. Following the paper's protocol (4
//! repetitions x 16 bits "for aligning the length of hash codes"), the
//! concatenation of the per-repetition signatures is compared with
//! Hamming distance like every other method in Table II.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use traj_data::Trajectory;

/// Fresh configuration (paper: resolution 1 km, 4 repetitions, 16 bits).
#[derive(Debug, Clone)]
pub struct FreshConfig {
    /// Grid resolution in meters.
    pub resolution: f64,
    /// Number of independent LSH repetitions `L`.
    pub repetitions: usize,
    /// Bits of each repetition's signature.
    pub bits_per_rep: usize,
    /// RNG seed for the random grid shifts and hash coefficients.
    pub seed: u64,
}

impl Default for FreshConfig {
    fn default() -> Self {
        FreshConfig { resolution: 1000.0, repetitions: 4, bits_per_rep: 16, seed: 77 }
    }
}

/// A constructed Fresh hasher.
pub struct Fresh {
    cfg: FreshConfig,
    shifts: Vec<(f64, f64)>,
    coeffs: Vec<(u64, u64, u64)>,
}

impl Fresh {
    /// Draws the random shifts and multiply–shift coefficients.
    pub fn new(cfg: FreshConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let shifts = (0..cfg.repetitions)
            .map(|_| {
                (
                    rng.random::<f64>() * cfg.resolution,
                    rng.random::<f64>() * cfg.resolution,
                )
            })
            .collect();
        let coeffs = (0..cfg.repetitions)
            .map(|_| {
                (
                    rng.random::<u64>() | 1, // multiply-shift needs odd a
                    rng.random::<u64>() | 1,
                    rng.random::<u64>() | 1,
                )
            })
            .collect();
        Fresh { cfg, shifts, coeffs }
    }

    /// Total signature width in bits.
    pub fn total_bits(&self) -> usize {
        self.cfg.repetitions * self.cfg.bits_per_rep
    }

    /// The snapped-cell sequence of one repetition (consecutive
    /// duplicates collapsed), exposed for tests.
    fn cell_sequence(&self, t: &Trajectory, rep: usize) -> Vec<(i64, i64)> {
        let (sx, sy) = self.shifts[rep];
        let r = self.cfg.resolution;
        let mut out: Vec<(i64, i64)> = Vec::with_capacity(t.len());
        for p in &t.points {
            #[expect(clippy::cast_possible_truncation, reason = "a cell of a normalized point")]
            let cell = (((p.x + sx) / r).floor() as i64, ((p.y + sy) / r).floor() as i64);
            if out.last() != Some(&cell) {
                out.push(cell);
            }
        }
        out
    }

    fn hash_sequence(&self, cells: &[(i64, i64)], rep: usize) -> u64 {
        let (a, b, c) = self.coeffs[rep];
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for &(x, y) in cells {
            #[expect(clippy::cast_sign_loss, reason = "hashing reinterprets the bits")]
            let hx = (x as u64).wrapping_mul(a);
            #[expect(clippy::cast_sign_loss, reason = "hashing reinterprets the bits")]
            let hy = (y as u64).wrapping_mul(b);
            acc = acc
                .rotate_left(13)
                .wrapping_mul(c)
                .wrapping_add(hx ^ hy.rotate_left(32));
        }
        // multiply-shift truncation to bits_per_rep
        acc.wrapping_mul(a) >> (64 - self.cfg.bits_per_rep)
    }

    /// The per-repetition integer signatures of a trajectory.
    pub fn signatures(&self, t: &Trajectory) -> Vec<u64> {
        (0..self.cfg.repetitions)
            .map(|rep| self.hash_sequence(&self.cell_sequence(t, rep), rep))
            .collect()
    }

    /// The concatenated sign vector (`+-1` per bit) of all repetitions,
    /// directly comparable to the neural methods' hash codes.
    pub fn hash_signs(&self, t: &Trajectory) -> Vec<i8> {
        let mut out = Vec::with_capacity(self.total_bits());
        for (rep, sig) in self.signatures(t).into_iter().enumerate() {
            let _ = rep;
            for bit in 0..self.cfg.bits_per_rep {
                out.push(if (sig >> bit) & 1 == 1 { 1 } else { -1 });
            }
        }
        out
    }

    /// Batch hashing.
    pub fn hash_all(&self, ts: &[Trajectory]) -> Vec<Vec<i8>> {
        ts.iter().map(|t| self.hash_signs(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityGenerator, CityParams, Point};

    fn fresh() -> Fresh {
        Fresh::new(FreshConfig { resolution: 200.0, ..Default::default() })
    }

    #[test]
    fn identical_trajectories_collide_fully() {
        let f = fresh();
        let t = Trajectory::from_xy(&[(10.0, 10.0), (350.0, 90.0), (800.0, 120.0)]);
        assert_eq!(f.signatures(&t), f.signatures(&t.clone()));
        assert_eq!(f.hash_signs(&t).len(), f.total_bits());
    }

    #[test]
    fn sampling_rate_invariance_within_cells() {
        // Fresh snaps to cells and dedupes, so adding intermediate points
        // inside the same cells must not change the signature.
        let f = fresh();
        let sparse = Trajectory::from_xy(&[(50.0, 50.0), (450.0, 50.0)]);
        let mut dense_pts = vec![(50.0, 50.0), (60.0, 52.0), (70.0, 51.0), (450.0, 50.0)];
        dense_pts.insert(3, (445.0, 49.0));
        let dense = Trajectory::from_xy(&dense_pts);
        // only valid when the intermediate points stay in the same cells;
        // with resolution 200 and these coordinates they might span a
        // middle cell — use signatures of each rep to check at least the
        // dedupe path runs; assert exact equality on a conservatively
        // constructed pair instead:
        let a = Trajectory::from_xy(&[(10.0, 10.0), (15.0, 12.0), (18.0, 11.0)]);
        let b = Trajectory::from_xy(&[(10.0, 10.0), (18.0, 11.0)]);
        assert_eq!(f.signatures(&a), f.signatures(&b));
        let _ = (sparse, dense);
    }

    #[test]
    fn nearby_trajectories_collide_more_than_distant_ones() {
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params, 21).generate(60);
        let f = fresh();
        // pick the pair with smallest first-point distance as "near"
        let mut best = (0, 1, f64::INFINITY);
        for i in 0..trajs.len() {
            for j in (i + 1)..trajs.len() {
                let d = trajs[i].first().distance(&trajs[j].first())
                    + trajs[i].last().distance(&trajs[j].last());
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let hamming = |a: &[i8], b: &[i8]| -> usize {
            a.iter().zip(b).filter(|(x, y)| x != y).count()
        };
        let near = hamming(&f.hash_signs(&trajs[best.0]), &f.hash_signs(&trajs[best.1]));
        // average over random far pairs
        let mut far_sum = 0usize;
        let mut cnt = 0usize;
        for k in 0..20 {
            let i = k;
            let j = (k + 29) % trajs.len();
            let d = trajs[i].first().distance(&trajs[j].first());
            if d > 800.0 {
                far_sum += hamming(&f.hash_signs(&trajs[i]), &f.hash_signs(&trajs[j]));
                cnt += 1;
            }
        }
        if let Some(far_mean) = far_sum.checked_div(cnt) {
            assert!(
                near <= far_mean,
                "near pair hamming {near} should not exceed far mean {far_mean}"
            );
        }
    }

    #[test]
    fn shifted_grids_differ_between_repetitions() {
        let f = fresh();
        // a point near a cell border lands in different cells under
        // different shifts with high probability
        let t = Trajectory::new(vec![Point::new(199.0, 1.0), Point::new(601.0, 399.0)]);
        let sigs = f.signatures(&t);
        assert_eq!(sigs.len(), 4);
        // not all repetitions identical (they use different shifts/coeffs)
        assert!(sigs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn signature_fits_bit_budget() {
        let f = Fresh::new(FreshConfig { bits_per_rep: 12, ..Default::default() });
        let t = Trajectory::from_xy(&[(0.0, 0.0), (5000.0, 3000.0)]);
        for sig in f.signatures(&t) {
            assert!(sig < (1 << 12));
        }
    }
}
