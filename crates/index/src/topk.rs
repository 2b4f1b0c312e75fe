//! The one top-k selection routine shared by every search path.
//!
//! Before this module existed the same "sort candidates by distance and
//! keep the first k" logic was hand-rolled in three places
//! (`search::top_k_from_scores`, the `mih::within_radius` sort, and
//! `DistanceMatrix::top_k_row` in `traj-dist`), two of which compared
//! with `partial_cmp(..).unwrap_or(Equal)` — an ordering that is not
//! transitive once NaN appears and therefore corrupts the sort silently.
//! All of them now delegate here.

use crate::search::Hit;
use std::cmp::Ordering;

/// Total order on hits: distance first via [`f64::total_cmp`] (NaN sorts
/// after every number, so a poisoned distance can never be ranked
/// "nearest"), then database index ascending as a deterministic
/// tie-break.
#[inline]
pub fn cmp_hits(a: &Hit, b: &Hit) -> Ordering {
    a.distance.total_cmp(&b.distance).then(a.index.cmp(&b.index))
}

/// Sorts hits in place into the canonical `(distance, index)` order.
pub fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable_by(cmp_hits);
}

/// Selects the `k` best hits, ordered nearest first with index
/// tie-breaking.
///
/// Uses `select_nth_unstable_by` for O(n) selection and only sorts the
/// surviving prefix, so callers can throw whole candidate sets at it
/// without paying an O(n log n) sort. `k = 0`, an empty candidate set,
/// and `k >= len` all behave as expected.
pub fn top_k_hits(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    if k == 0 {
        hits.clear();
        return hits;
    }
    if k < hits.len() {
        hits.select_nth_unstable_by(k - 1, cmp_hits);
        hits.truncate(k);
    }
    sort_hits(&mut hits);
    hits
}

/// The `k` nearest of candidates grouped by integer distance —
/// `groups[d]` holds distinct indices at distance `d`, in any order — as
/// hits in [`cmp_hits`] order, the same hits [`top_k_hits`] picks. A
/// counting select: the group sizes fix the cut-off distance, every
/// group under it is taken whole and sorted, and only the cut-off group
/// is partially selected before its prefix is sorted. The groups are
/// left reordered, the cut-off group truncated.
pub fn top_k_grouped(groups: &mut [Vec<usize>], k: usize) -> Vec<Hit> {
    let mut top = Vec::with_capacity(k.min(groups.iter().map(Vec::len).sum()));
    for (d, group) in groups.iter_mut().enumerate() {
        let take = k - top.len();
        if take == 0 {
            break;
        }
        if group.len() > take {
            group.select_nth_unstable(take - 1);
            group.truncate(take);
        }
        group.sort_unstable();
        top.extend(group.iter().map(|&index| Hit { index, distance: d as f64 }));
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(pairs: &[(usize, f64)]) -> Vec<Hit> {
        pairs.iter().map(|&(index, distance)| Hit { index, distance }).collect()
    }

    #[test]
    fn selects_and_orders_nearest_first() {
        let got = top_k_hits(hits(&[(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)]), 2);
        assert_eq!(got, hits(&[(3, 0.5), (1, 1.0)]));
    }

    #[test]
    fn ties_break_by_index_deterministically() {
        let got = top_k_hits(hits(&[(5, 1.0), (2, 1.0), (9, 1.0), (0, 2.0)]), 3);
        assert_eq!(got, hits(&[(2, 1.0), (5, 1.0), (9, 1.0)]));
    }

    #[test]
    fn nan_sorts_last_never_nearest() {
        let got = top_k_hits(hits(&[(0, f64::NAN), (1, 7.0), (2, 5.0)]), 2);
        assert_eq!(got, hits(&[(2, 5.0), (1, 7.0)]));
        // With k covering everything the NaN comes back, but last.
        let all = top_k_hits(hits(&[(0, f64::NAN), (1, 7.0)]), 5);
        assert_eq!(all[0].index, 1);
        assert_eq!(all[1].index, 0);
    }

    #[test]
    fn grouped_select_picks_what_the_full_select_picks() {
        let groups = vec![vec![9, 4], vec![], vec![7, 1, 8, 3], vec![2, 0]];
        let flat: Vec<Hit> = groups
            .iter()
            .enumerate()
            .flat_map(|(d, g)| g.iter().map(move |&index| Hit { index, distance: d as f64 }))
            .collect();
        for k in 0..10 {
            let got = top_k_grouped(&mut groups.clone(), k);
            assert_eq!(got, top_k_hits(flat.clone(), k), "k={k}");
        }
    }

    #[test]
    fn edge_cases_k_zero_and_empty() {
        assert!(top_k_hits(hits(&[(0, 1.0)]), 0).is_empty());
        assert!(top_k_hits(Vec::new(), 3).is_empty());
        assert_eq!(top_k_hits(hits(&[(0, 1.0)]), 10).len(), 1);
    }
}
