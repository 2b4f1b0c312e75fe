//! A plain scan oracle over codes the benchmark computed itself.
//!
//! The oracle holds the embedding and code of some set of live ids —
//! every id on the small workloads, a seeded sample where encoding the
//! database twice costs too much — and checks an answer against them
//! without trusting any index: every hit it knows must carry the
//! distance a direct computation gives, and no row it knows may be
//! closer than the answer's last hit yet missing from it. With every id
//! covered that is exactly top-k correctness, ties included.

use crate::api::{self, BinaryCode, Hit, Strategy};
use std::collections::{BTreeMap, BTreeSet};

struct Row {
    embedding: Vec<f32>,
    code: BinaryCode,
}

pub struct Oracle {
    rows: BTreeMap<u64, Row>,
    /// True while `rows` holds every live id of the engine.
    full: bool,
}

const EUCLID_TOL: f64 = 1e-5;
const TABLE_RADIUS: f64 = 2.0;

fn euclid(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

impl Oracle {
    pub fn new(ids: &[u64], embeddings: &[Vec<f32>], full: bool) -> Oracle {
        let mut o = Oracle {
            rows: BTreeMap::new(),
            full,
        };
        for (&id, e) in ids.iter().zip(embeddings) {
            o.insert(id, e.clone());
        }
        o
    }

    pub fn insert(&mut self, id: u64, embedding: Vec<f32>) {
        let code = api::pack(&embedding);
        self.rows.insert(id, Row { embedding, code });
    }

    pub fn remove(&mut self, id: u64) {
        self.rows.remove(&id);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Checks `hits`, the engine's answer to a query whose embedding the
    /// benchmark computed as `q`, against the rows the oracle knows.
    /// `live` is the engine's live count.
    pub fn check(
        &self,
        strategy: Strategy,
        q: &[f32],
        hits: &[Hit],
        k: usize,
        live: usize,
    ) -> Result<(), String> {
        let q_code = api::pack(q);
        let hamming = strategy != Strategy::EuclideanBf;
        let distance = |row: &Row| -> f64 {
            if hamming {
                row.code.hamming(&q_code) as f64
            } else {
                euclid(&row.embedding, q)
            }
        };
        let tol = |d: f64| {
            if hamming {
                0.0
            } else {
                EUCLID_TOL * d.abs().max(1.0)
            }
        };

        if hits.len() > k {
            return Err(format!("{} hits for k = {k}", hits.len()));
        }
        if strategy != Strategy::Table && hits.len() != k.min(live) {
            return Err(format!("{} hits, expected {}", hits.len(), k.min(live)));
        }
        if hits.windows(2).any(|w| w[0].distance > w[1].distance) {
            return Err("hits are not sorted by distance".into());
        }
        let returned: BTreeSet<u64> = hits.iter().map(|h| h.id).collect();
        if returned.len() != hits.len() {
            return Err("an id is returned twice".into());
        }
        for h in hits {
            match self.rows.get(&h.id) {
                Some(row) => {
                    let d = distance(row);
                    if (h.distance - d).abs() > tol(d) {
                        return Err(format!(
                            "id {} reported at {} but is at {d}",
                            h.id, h.distance
                        ));
                    }
                }
                None if self.full => return Err(format!("id {} is not live", h.id)),
                None => {}
            }
            if strategy == Strategy::Table && h.distance > TABLE_RADIUS {
                return Err(format!(
                    "table hit {} outside radius 2 at {}",
                    h.id, h.distance
                ));
            }
        }
        // The k-th distance bounds every row left out; a short answer
        // (Table only, given the length check above) may leave out
        // nothing inside the radius.
        let bound = if hits.len() == k {
            hits[k - 1].distance
        } else {
            f64::INFINITY
        };
        for (id, row) in &self.rows {
            if returned.contains(id) {
                continue;
            }
            let d = distance(row);
            let reachable = strategy != Strategy::Table || d <= TABLE_RADIUS;
            if reachable && d + tol(d) < bound {
                return Err(format!(
                    "id {id} at {d} is closer than the last hit at {bound}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u64, distance: f64) -> Hit {
        Hit { id, distance }
    }

    /// Four rows on a line; codes differ from the all-positive query in 0..3 bits.
    fn oracle() -> (Oracle, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..8)
                    .map(|c| if c < r { -1.0 - r as f32 } else { 1.0 })
                    .collect()
            })
            .collect();
        (Oracle::new(&[0, 1, 2, 3], &rows, true), vec![1.0; 8])
    }

    #[test]
    fn accepts_the_true_answer_and_rejects_each_kind_of_wrong_one() {
        let (o, q) = oracle();
        let ok = [hit(0, 0.0), hit(1, 1.0)];
        assert!(o.check(Strategy::HammingBf, &q, &ok, 2, 4).is_ok());
        assert!(o.check(Strategy::Mih, &q, &ok, 2, 4).is_ok());
        // wrong distance, missed closer row, short answer, dead id, duplicate
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0), hit(1, 2.0)], 2, 4)
            .is_err());
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0), hit(2, 2.0)], 2, 4)
            .is_err());
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0)], 2, 4)
            .is_err());
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0), hit(9, 1.0)], 2, 4)
            .is_err());
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0), hit(0, 0.0)], 2, 4)
            .is_err());
        // Table may be short, but only past radius 2 and never beyond it.
        let ball = [hit(0, 0.0), hit(1, 1.0), hit(2, 2.0)];
        assert!(o.check(Strategy::Table, &q, &ball, 4, 4).is_ok());
        assert!(o.check(Strategy::Table, &q, &ball[..2], 4, 4).is_err());
        let past = [hit(0, 0.0), hit(1, 1.0), hit(2, 2.0), hit(3, 3.0)];
        assert!(o.check(Strategy::Table, &q, &past, 4, 4).is_err());
        // Euclidean distances are compared with a tolerance.
        let d1 = euclid(&[-2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], &q);
        assert!(o
            .check(
                Strategy::EuclideanBf,
                &q,
                &[hit(0, 0.0), hit(1, d1 + 1e-9)],
                2,
                4
            )
            .is_ok());
        assert!(o
            .check(
                Strategy::EuclideanBf,
                &q,
                &[hit(0, 0.0), hit(1, d1 + 1e-2)],
                2,
                4
            )
            .is_err());
    }

    #[test]
    fn a_sampled_oracle_ignores_ids_it_does_not_know() {
        let (mut o, q) = oracle();
        o.full = false;
        o.remove(1);
        assert_eq!(o.len(), 3);
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(0, 0.0), hit(1, 1.0)], 2, 4)
            .is_ok());
        assert!(o
            .check(Strategy::HammingBf, &q, &[hit(1, 1.0), hit(2, 2.0)], 2, 4)
            .is_err());
    }
}
