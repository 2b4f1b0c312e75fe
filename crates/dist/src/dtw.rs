//! Dynamic Time Warping (Definition 3, first recurrence of Eq. 1) and its
//! Sakoe–Chiba constrained variant cDTW (the classical fast approximation
//! the paper's related-work section discusses).

use traj_data::Trajectory;

/// Exact DTW distance with the recurrence
/// `D[i][j] = min(D[i-1][j], D[i][j-1], D[i-1][j-1]) + d(p_i, q_j)`.
///
/// Runs in `O(n*m)` time and `O(min(n, m))` space.
///
/// # Panics
/// Panics if either trajectory is empty.
pub fn dtw(a: &Trajectory, b: &Trajectory) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "DTW of an empty trajectory");
    // Keep the shorter trajectory along the row dimension to minimize the
    // rolling buffer.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = short.len();
    let mut prev = vec![f64::INFINITY; m];
    let mut cur = vec![f64::INFINITY; m];
    for (i, p) in long.points.iter().enumerate() {
        for (j, q) in short.points.iter().enumerate() {
            let cost = p.distance(q);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 { prev[j] } else { f64::INFINITY };
                let left = if j > 0 { cur[j - 1] } else { f64::INFINITY };
                let diag = if i > 0 && j > 0 { prev[j - 1] } else { f64::INFINITY };
                up.min(left).min(diag)
            };
            cur[j] = best + cost;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m - 1]
}

/// Constrained DTW with a Sakoe–Chiba band of half-width `band` cells
/// around the (rescaled) diagonal. `band = usize::MAX` degenerates to
/// exact DTW; a small band is faster but can overestimate the distance
/// (it never underestimates, because it explores a subset of warping
/// paths).
///
/// # Panics
/// Panics if either trajectory is empty.
pub fn cdtw(a: &Trajectory, b: &Trajectory, band: usize) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "cDTW of an empty trajectory");
    let n = a.len();
    let m = b.len();
    // Rescale the band so unequal lengths keep a feasible corridor.
    let slope = m as f64 / n as f64;
    let mut prev = vec![f64::INFINITY; m];
    let mut cur = vec![f64::INFINITY; m];
    let mut prev_valid = false;
    for (i, p) in a.points.iter().enumerate() {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "slope = |b|/|a| and i < |a|, so center stays within |b|"
        )]
        let center = (i as f64 * slope) as usize;
        let lo = center.saturating_sub(band);
        let hi = center.saturating_add(band).saturating_add(1).min(m);
        cur.iter_mut().for_each(|x| *x = f64::INFINITY);
        for j in lo..hi {
            let q = &b.points[j];
            let cost = p.distance(q);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if prev_valid { prev[j] } else { f64::INFINITY };
                let left = if j > 0 { cur[j - 1] } else { f64::INFINITY };
                let diag = if prev_valid && j > 0 { prev[j - 1] } else { f64::INFINITY };
                up.min(left).min(diag)
            };
            cur[j] = best + cost;
        }
        std::mem::swap(&mut prev, &mut cur);
        prev_valid = true;
    }
    prev[m - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::Trajectory;

    fn t(xy: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(xy)
    }

    #[test]
    fn identical_trajectories_have_zero_distance() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn single_point_pair() {
        let a = t(&[(0.0, 0.0)]);
        let b = t(&[(3.0, 4.0)]);
        assert!((dtw(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_dp_table() {
        // a = (0,0),(1,0); b = (0,1),(1,1)
        // all point distances are 1 except cross pairs sqrt(2).
        // D(0,0)=1; D(0,1)=1+sqrt2? Let's follow the recurrence:
        // D11 = d(a1,b1) = 1
        // D12 = D11 + d(a1,b2) = 1 + sqrt(2)
        // D21 = D11 + d(a2,b1) = 1 + sqrt(2)
        // D22 = min(D12, D21, D11) + d(a2,b2) = 1 + 1 = 2
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (1.0, 1.0)]);
        assert!((dtw(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = t(&[(0.0, 0.0), (5.0, 1.0), (9.0, 2.0), (12.0, 1.0)]);
        let b = t(&[(1.0, 0.5), (4.0, 2.0), (11.0, 0.0)]);
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn dtw_handles_time_shift() {
        // The same path sampled with a lag has small DTW but large
        // pointwise (lock-step) distance.
        let a = t(&(0..10).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
        let b = t(&(0..10).map(|i| ((i as f64 - 1.0).max(0.0), 0.0)).collect::<Vec<_>>());
        assert!(dtw(&a, &b) <= 2.0 + 1e-9);
    }

    #[test]
    fn cdtw_upper_bounds_dtw_and_converges() {
        let a = t(&[(0.0, 0.0), (2.0, 1.0), (4.0, 0.0), (6.0, -1.0), (8.0, 0.0)]);
        let b = t(&[(1.0, 0.0), (3.0, 1.5), (5.0, 0.5), (9.0, 0.0)]);
        let exact = dtw(&a, &b);
        let mut last = f64::INFINITY;
        for band in [0usize, 1, 2, 8] {
            let c = cdtw(&a, &b, band);
            assert!(c + 1e-9 >= exact, "band {band}: cdtw {c} < dtw {exact}");
            assert!(c <= last + 1e-9, "band widening must not increase cdtw");
            last = c;
        }
        assert!((cdtw(&a, &b, 8) - exact).abs() < 1e-9);
    }

    #[test]
    fn cdtw_max_band_equals_dtw_even_for_unequal_lengths() {
        // regression: band = usize::MAX must not overflow the window
        let a = t(&(0..7).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
        let b = t(&(0..15).map(|i| (i as f64 * 0.5, 1.0)).collect::<Vec<_>>());
        assert!((cdtw(&a, &b, usize::MAX) - dtw(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn cdtw_infeasible_band_is_infinite() {
        // When lengths differ a lot a zero-width band admits no warping
        // path; cDTW is correctly infinite rather than wrong.
        let a = t(&(0..3).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
        let b = t(&(0..30).map(|i| (i as f64 * 0.1, 0.0)).collect::<Vec<_>>());
        assert!(cdtw(&a, &b, 0).is_infinite());
    }

    #[test]
    fn reverse_symmetry_holds() {
        // Lemma 2: DTW(T1, T2) == DTW(T1^r, T2^r).
        let a = t(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (4.0, 4.0)]);
        let b = t(&[(0.5, 0.5), (2.0, 2.0), (5.0, 3.0)]);
        let fwd = dtw(&a, &b);
        let rev = dtw(&a.reversed(), &b.reversed());
        assert!((fwd - rev).abs() < 1e-9);
    }
}
