//! Lower bounds on trajectory distances (Lemma 1 of the paper).
//!
//! For DTW and the discrete Fréchet distance the first points of the two
//! trajectories always match, as do the last points, so the pointwise
//! Euclidean distance between either pair lower-bounds the full distance.
//! The paper uses this to justify the lower-bound induced read-out layer
//! (Eq. 13): the first token's embedding is used as the trajectory
//! embedding, and reverse augmentation covers the last-point bound.

use traj_data::{BoundingBox, Point, Trajectory};

/// `d(first(a), first(b))` — a lower bound of DTW and Fréchet (Lemma 1).
pub fn first_point_bound(a: &Trajectory, b: &Trajectory) -> f64 {
    a.first().distance(&b.first())
}

/// `d(last(a), last(b))` — also a lower bound of DTW and Fréchet.
pub fn last_point_bound(a: &Trajectory, b: &Trajectory) -> f64 {
    a.last().distance(&b.last())
}

/// The tighter of the two endpoint bounds.
pub fn endpoint_bound(a: &Trajectory, b: &Trajectory) -> f64 {
    first_point_bound(a, b).max(last_point_bound(a, b))
}

/// Bounding-box lower bound on the symmetric Hausdorff distance (and
/// therefore on discrete Fréchet, DTW, and cDTW, which all dominate it).
///
/// Why it is a lower bound: let `a*` be the point of `A` attaining
/// `A.min_x`, and suppose `B.min_x >= A.min_x`. Every point of `B` has
/// `x >= B.min_x`, so `d(a*, b) >= B.min_x - A.min_x` for all `b in B`
/// and the directed Hausdorff `h(A→B) >= B.min_x - A.min_x`. The
/// symmetric case covers `A.min_x >= B.min_x`, so the symmetric
/// Hausdorff dominates `|A.min_x - B.min_x|`; the same argument applies
/// to each of the other three edges. Fréchet and DTW dominate the
/// symmetric Hausdorff because a warping path matches every point of
/// each trajectory at least once (DTW *sums* the matched distances;
/// Fréchet takes their max), and cDTW only restricts the path set, so
/// it dominates DTW.
pub fn bbox_bound(a: &BoundingBox, b: &BoundingBox) -> f64 {
    (a.min_x - b.min_x)
        .abs()
        .max((a.max_x - b.max_x).abs())
        .max((a.min_y - b.min_y).abs())
        .max((a.max_y - b.max_y).abs())
}

/// Precomputed per-trajectory features consumed by the lower bounds:
/// endpoints (Lemma 1) and the axis-aligned bounding box
/// ([`bbox_bound`]). Building profiles once turns every pairwise bound
/// evaluation into O(1) work, which is what makes lower-bound pruning
/// cheaper than the exact distances it avoids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundProfile {
    /// First point of the trajectory.
    pub first: Point,
    /// Last point of the trajectory.
    pub last: Point,
    /// Axis-aligned bounding box of the trajectory.
    pub bbox: BoundingBox,
}

impl BoundProfile {
    /// Builds the profile of one trajectory.
    ///
    /// An empty trajectory gets a degenerate profile at the origin; the
    /// exact measures panic on empty inputs anyway, so such a profile is
    /// never compared against a real distance.
    pub fn of(t: &Trajectory) -> BoundProfile {
        match t.bbox() {
            Some(bbox) => BoundProfile { first: t.first(), last: t.last(), bbox },
            None => {
                let origin = Point::new(0.0, 0.0);
                BoundProfile {
                    first: origin,
                    last: origin,
                    bbox: BoundingBox::from_extent(0.0, 0.0),
                }
            }
        }
    }

    /// Profiles for a whole corpus.
    pub fn of_all(trajectories: &[Trajectory]) -> Vec<BoundProfile> {
        trajectories.iter().map(BoundProfile::of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw;
    use crate::frechet::frechet;
    use traj_data::Trajectory;

    fn zigzag(seed: u64, n: usize) -> Trajectory {
        // Simple deterministic pseudo-random polyline.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0 - 5.0
        };
        Trajectory::from_xy(&(0..n).map(|_| (next(), next())).collect::<Vec<_>>())
    }

    #[test]
    fn endpoint_bounds_hold_for_dtw() {
        for s in 0..20 {
            let a = zigzag(s, 6 + (s % 5) as usize);
            let b = zigzag(s + 100, 4 + (s % 7) as usize);
            let d = dtw(&a, &b);
            assert!(first_point_bound(&a, &b) <= d + 1e-9);
            assert!(last_point_bound(&a, &b) <= d + 1e-9);
            assert!(endpoint_bound(&a, &b) <= d + 1e-9);
        }
    }

    #[test]
    fn endpoint_bounds_hold_for_frechet() {
        for s in 0..20 {
            let a = zigzag(s, 5 + (s % 4) as usize);
            let b = zigzag(s + 77, 3 + (s % 6) as usize);
            let f = frechet(&a, &b);
            assert!(first_point_bound(&a, &b) <= f + 1e-9);
            assert!(last_point_bound(&a, &b) <= f + 1e-9);
        }
    }

    #[test]
    fn bbox_bound_holds_for_hausdorff_dtw_frechet() {
        use crate::hausdorff::hausdorff;
        for s in 0..40 {
            let a = zigzag(s, 3 + (s % 6) as usize);
            let b = zigzag(s + 1000, 2 + (s % 5) as usize);
            let pa = BoundProfile::of(&a);
            let pb = BoundProfile::of(&b);
            let lb = bbox_bound(&pa.bbox, &pb.bbox);
            assert!(lb <= hausdorff(&a, &b) + 1e-9, "bbox bound exceeds Hausdorff");
            assert!(lb <= dtw(&a, &b) + 1e-9, "bbox bound exceeds DTW");
            assert!(lb <= frechet(&a, &b) + 1e-9, "bbox bound exceeds Frechet");
        }
    }

    #[test]
    fn bbox_bound_is_tight_for_translated_boxes() {
        let a = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = Trajectory::from_xy(&[(10.0, 0.0), (11.0, 1.0)]);
        let pa = BoundProfile::of(&a);
        let pb = BoundProfile::of(&b);
        assert_eq!(bbox_bound(&pa.bbox, &pb.bbox), 10.0);
    }

    #[test]
    fn profile_of_empty_trajectory_is_degenerate() {
        let p = BoundProfile::of(&Trajectory::default());
        assert_eq!(p.first, p.last);
        assert_eq!(p.bbox.width(), 0.0);
    }

    #[test]
    fn bound_is_tight_for_single_points() {
        let a = Trajectory::from_xy(&[(0.0, 0.0)]);
        let b = Trajectory::from_xy(&[(3.0, 4.0)]);
        assert_eq!(endpoint_bound(&a, &b), 5.0);
        assert_eq!(dtw(&a, &b), 5.0);
        assert_eq!(frechet(&a, &b), 5.0);
    }
}
