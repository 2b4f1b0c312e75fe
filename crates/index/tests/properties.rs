//! Property-based tests of binary codes and the search structures.

use proptest::prelude::*;
use traj_index::{
    euclidean_top_k, hamming_top_k, BinaryCode, EmbeddingMatrix, HammingTable, PackedCodes,
    SearchError, VpTree,
};

/// Code widths around the word boundaries, and the embedding widths the
/// flat stores must hold: none, one, the model's.
const WIDTHS: [usize; 5] = [1, 63, 64, 65, 128];
const DIMS: [usize; 3] = [0, 1, 32];

fn signs_strategy(bits: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(proptest::bool::ANY, bits)
        .prop_map(|bs| bs.into_iter().map(|b| if b { 1i8 } else { -1 }).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_roundtrip(signs in signs_strategy(70)) {
        let code = BinaryCode::from_signs(&signs);
        prop_assert_eq!(code.to_signs(), signs);
    }

    #[test]
    fn hamming_is_a_metric(
        a in signs_strategy(48),
        b in signs_strategy(48),
        c in signs_strategy(48),
    ) {
        let (ca, cb, cc) = (
            BinaryCode::from_signs(&a),
            BinaryCode::from_signs(&b),
            BinaryCode::from_signs(&c),
        );
        prop_assert_eq!(ca.hamming(&cb), cb.hamming(&ca));
        prop_assert_eq!(ca.hamming(&ca), 0);
        prop_assert!(ca.hamming(&cb) <= ca.hamming(&cc) + cc.hamming(&cb));
    }

    #[test]
    fn hamming_matches_naive_count(
        a in signs_strategy(90),
        b in signs_strategy(90),
    ) {
        let naive = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u32;
        let fast = BinaryCode::from_signs(&a).hamming(&BinaryCode::from_signs(&b));
        prop_assert_eq!(naive, fast);
    }

    #[test]
    fn inner_product_identity_eq19(
        a in signs_strategy(40),
        b in signs_strategy(40),
    ) {
        // The identity the paper uses to rewrite Eq. 18 into Eq. 19:
        // H(a,b) = (d - a.b) / 2.
        let ca = BinaryCode::from_signs(&a);
        let cb = BinaryCode::from_signs(&b);
        let dot: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(ca.hamming(&cb) as i64, (40 - dot) / 2);
    }

    #[test]
    fn hybrid_top_k_distances_match_brute_force(
        db in proptest::collection::vec(signs_strategy(12), 20..120),
        q in signs_strategy(12),
        k in 1usize..12,
    ) {
        let codes: Vec<BinaryCode> = db.iter().map(|s| BinaryCode::from_signs(s)).collect();
        let query = BinaryCode::from_signs(&q);
        let table = HammingTable::build(codes.clone());
        let hybrid: Vec<f64> =
            table.hybrid_top_k(&query, k).unwrap().iter().map(|h| h.distance).collect();
        let bf: Vec<f64> =
            hamming_top_k(&codes, &query, k).iter().map(|h| h.distance).collect();
        prop_assert_eq!(hybrid, bf);
    }

    #[test]
    fn lookup_within_radius_is_exact(
        db in proptest::collection::vec(signs_strategy(10), 10..80),
        q in signs_strategy(10),
        r in 0u32..3,
    ) {
        let codes: Vec<BinaryCode> = db.iter().map(|s| BinaryCode::from_signs(s)).collect();
        let query = BinaryCode::from_signs(&q);
        let table = HammingTable::build(codes.clone());
        let mut found: Vec<usize> = table
            .lookup_within(&query, r)
            .unwrap()
            .into_iter()
            .flat_map(|(_, v)| v)
            .collect();
        found.sort_unstable();
        let mut expected: Vec<usize> = codes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hamming(&query) <= r)
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(found, expected);
    }

    #[test]
    fn euclidean_top_k_is_sorted_and_complete(
        db in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 4), 5..40),
        q in proptest::collection::vec(-10.0f32..10.0, 4),
        k in 1usize..10,
    ) {
        let hits = euclidean_top_k(&db, &q, k);
        prop_assert_eq!(hits.len(), k.min(db.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance + 1e-9);
        }
        // no excluded item is closer than the worst included one
        if let Some(worst) = hits.last() {
            for (i, v) in db.iter().enumerate() {
                if !hits.iter().any(|h| h.index == i) {
                    let d: f64 = v
                        .iter()
                        .zip(&q)
                        .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    prop_assert!(d + 1e-9 >= worst.distance);
                }
            }
        }
    }

    #[test]
    fn packed_codes_by_push_equal_build_and_rows_round_trip(
        signs in (0usize..5).prop_flat_map(|w| {
            proptest::collection::vec(signs_strategy(WIDTHS[w]), 0..24)
        }),
        other in 0usize..5,
    ) {
        let codes: Vec<BinaryCode> = signs.iter().map(|s| BinaryCode::from_signs(s)).collect();
        let built = PackedCodes::build(&codes).unwrap();
        let (mut pushed, mut moved) = (PackedCodes::default(), PackedCodes::default());
        for (i, c) in codes.iter().enumerate() {
            pushed.push(c).unwrap();
            moved.push_from(&built, i);
            prop_assert_eq!(built.words(i), c.words());
            prop_assert_eq!(built.distance(i, &codes[0]), c.hamming(&codes[0]));
        }
        prop_assert_eq!(&pushed, &built);
        prop_assert_eq!(&moved, &built);
        prop_assert_eq!((built.len(), built.bits()), (codes.len(), codes.first().map_or(0, |c| c.len())));
        // Another width is a typed error that stores nothing; an empty
        // corpus has no width yet and takes any.
        let stranger = BinaryCode::zeros(WIDTHS[other]);
        if codes.is_empty() || stranger.len() == built.bits() {
            prop_assert_eq!(pushed.push(&stranger), Ok(()));
        } else {
            let refused = SearchError::InconsistentCodes {
                position: codes.len(),
                expected: built.bits(),
                got: stranger.len(),
            };
            prop_assert_eq!(pushed.push(&stranger), Err(refused));
            prop_assert_eq!(&pushed, &built);
        }
    }

    #[test]
    fn embedding_matrix_by_push_equals_the_packed_rows_and_round_trips(
        rows in (0usize..3).prop_flat_map(|d| {
            proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, DIMS[d]), 0..24)
        }),
        other in 0usize..3,
    ) {
        // `VpTree::build` is the adapter that packs `Vec` rows.
        let tree = VpTree::build(rows.clone());
        let built: &EmbeddingMatrix = tree.data();
        let (mut pushed, mut moved) = (EmbeddingMatrix::default(), EmbeddingMatrix::default());
        for (i, r) in rows.iter().enumerate() {
            pushed.push(r).unwrap();
            moved.push_from(built, i);
            prop_assert_eq!(built.row(i), r.as_slice());
        }
        prop_assert_eq!(&pushed, built);
        prop_assert_eq!(&moved, built);
        prop_assert_eq!((built.len(), built.dim()), (rows.len(), rows.first().map_or(0, Vec::len)));
        let stranger = vec![0.5f32; DIMS[other]];
        if rows.is_empty() || stranger.len() == built.dim() {
            prop_assert_eq!(pushed.push(&stranger), Ok(()));
        } else {
            let refused = SearchError::InconsistentEmbeddings {
                position: rows.len(),
                expected: built.dim(),
                got: stranger.len(),
            };
            prop_assert_eq!(pushed.push(&stranger), Err(refused));
            prop_assert_eq!(&pushed, built);
        }
    }
}
