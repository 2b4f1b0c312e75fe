//! A unified handle over all supported trajectory distance functions.

use crate::bounds::{bbox_bound, BoundProfile};
use crate::dtw::{cdtw, dtw};
use crate::edit::{edr, erp};
use crate::frechet::frechet;
use crate::hausdorff::hausdorff;
use std::fmt;
use traj_data::{Point, Trajectory};

/// The trajectory distance functions supported by this library.
///
/// The paper's evaluation covers [`Measure::Dtw`], [`Measure::Frechet`],
/// and [`Measure::Hausdorff`]; the rest are provided for downstream users
/// and for the related-work comparison (cDTW).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Dynamic Time Warping.
    Dtw,
    /// Discrete Fréchet distance.
    Frechet,
    /// Symmetric Hausdorff distance.
    Hausdorff,
    /// Constrained DTW with the given Sakoe–Chiba half band width.
    CDtw(usize),
    /// Edit distance with Real Penalty, with the given gap point.
    Erp(Point),
    /// Edit Distance on Real sequences, with the given match threshold.
    Edr(f64),
}

impl Measure {
    /// Computes the distance between two trajectories.
    pub fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        match *self {
            Measure::Dtw => dtw(a, b),
            Measure::Frechet => frechet(a, b),
            Measure::Hausdorff => hausdorff(a, b),
            Measure::CDtw(band) => cdtw(a, b, band),
            Measure::Erp(g) => erp(a, b, g),
            Measure::Edr(eps) => edr(a, b, eps),
        }
    }

    /// Whether the endpoint lower bound of Lemma 1 applies (DTW and
    /// Fréchet; also their constrained variants).
    pub fn has_endpoint_lower_bound(&self) -> bool {
        matches!(self, Measure::Dtw | Measure::Frechet | Measure::CDtw(_))
    }

    /// Whether the bounding-box lower bound ([`bbox_bound`]) applies.
    ///
    /// True for every measure dominating the symmetric Hausdorff
    /// distance: Hausdorff itself, discrete Fréchet (max over a warping
    /// path that touches every point), DTW (sum over such a path), and
    /// cDTW (DTW over a restricted path set). ERP and EDR are edit
    /// distances whose values are gap penalties / match counts rather
    /// than geometric distances, so no box-geometry bound applies.
    pub fn has_bbox_lower_bound(&self) -> bool {
        matches!(
            self,
            Measure::Dtw | Measure::Frechet | Measure::Hausdorff | Measure::CDtw(_)
        )
    }

    /// The tightest O(1) lower bound available for this measure from two
    /// precomputed [`BoundProfile`]s, combining every bound whose flag
    /// applies. Returns `0.0` (the trivial bound) when no bound applies,
    /// so callers can use it unconditionally: pruning on a zero bound
    /// simply never fires.
    pub fn lower_bound(&self, a: &BoundProfile, b: &BoundProfile) -> f64 {
        let mut lb = 0.0f64;
        if self.has_endpoint_lower_bound() {
            lb = lb.max(a.first.distance(&b.first)).max(a.last.distance(&b.last));
        }
        if self.has_bbox_lower_bound() {
            lb = lb.max(bbox_bound(&a.bbox, &b.bbox));
        }
        lb
    }

    /// Short human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Dtw => "DTW",
            Measure::Frechet => "Frechet",
            Measure::Hausdorff => "Hausdorff",
            Measure::CDtw(_) => "cDTW",
            Measure::Erp(_) => "ERP",
            Measure::Edr(_) => "EDR",
        }
    }

    /// The three measures of the paper's evaluation.
    pub fn paper_suite() -> [Measure; 3] {
        [Measure::Frechet, Measure::Hausdorff, Measure::Dtw]
    }

    /// Parses a measure from its [`Display`] form — the inverse of
    /// `format!("{measure}")`, so configs and CLIs can round-trip any
    /// measure through a string.
    ///
    /// Base names are case-insensitive (`dtw`, `Frechet`, `HAUSDORFF`).
    /// Parameterized measures carry their parameters in parentheses:
    /// `cDTW(16)`, `ERP(0,0)`, `EDR(120.5)`. Returns `None` on anything
    /// else, including a parameterized name without its parameters.
    pub fn from_name(s: &str) -> Option<Measure> {
        let s = s.trim();
        let (base, params) = match s.find('(') {
            Some(open) => {
                let close = s.rfind(')')?;
                if close != s.len() - 1 || close < open {
                    return None;
                }
                (&s[..open], Some(&s[open + 1..close]))
            }
            None => (s, None),
        };
        let base = base.trim().to_ascii_lowercase();
        match (base.as_str(), params) {
            ("dtw", None) => Some(Measure::Dtw),
            ("frechet", None) => Some(Measure::Frechet),
            ("hausdorff", None) => Some(Measure::Hausdorff),
            ("cdtw", Some(p)) => p.trim().parse::<usize>().ok().map(Measure::CDtw),
            ("erp", Some(p)) => {
                let (x, y) = p.split_once(',')?;
                let x = x.trim().parse::<f64>().ok()?;
                let y = y.trim().parse::<f64>().ok()?;
                Some(Measure::Erp(Point::new(x, y)))
            }
            ("edr", Some(p)) => p.trim().parse::<f64>().ok().map(Measure::Edr),
            _ => None,
        }
    }
}

impl fmt::Display for Measure {
    /// Round-trippable form: the [`Measure::name`] base, with parameters
    /// appended for `cDTW`/`ERP`/`EDR`. Rust's `f64` `Display` emits the
    /// shortest string that parses back to the same bits, so
    /// `Measure::from_name(&m.to_string()) == Some(m)` holds exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Measure::CDtw(band) => write!(f, "{}({band})", self.name()),
            Measure::Erp(g) => write!(f, "{}({},{})", self.name(), g.x, g.y),
            Measure::Edr(eps) => write!(f, "{}({eps})", self.name()),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_direct_calls() {
        let a = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        let b = Trajectory::from_xy(&[(0.5, 0.0), (1.5, 1.5)]);
        assert_eq!(Measure::Dtw.distance(&a, &b), dtw(&a, &b));
        assert_eq!(Measure::Frechet.distance(&a, &b), frechet(&a, &b));
        assert_eq!(Measure::Hausdorff.distance(&a, &b), hausdorff(&a, &b));
        assert_eq!(Measure::CDtw(1).distance(&a, &b), cdtw(&a, &b, 1));
    }

    #[test]
    fn lower_bound_flags() {
        assert!(Measure::Dtw.has_endpoint_lower_bound());
        assert!(Measure::Frechet.has_endpoint_lower_bound());
        assert!(!Measure::Hausdorff.has_endpoint_lower_bound());
    }

    #[test]
    fn bbox_bound_flags_cover_hausdorff_dominators_only() {
        assert!(Measure::Dtw.has_bbox_lower_bound());
        assert!(Measure::Frechet.has_bbox_lower_bound());
        assert!(Measure::Hausdorff.has_bbox_lower_bound());
        assert!(Measure::CDtw(4).has_bbox_lower_bound());
        assert!(!Measure::Erp(Point::new(0.0, 0.0)).has_bbox_lower_bound());
        assert!(!Measure::Edr(100.0).has_bbox_lower_bound());
    }

    #[test]
    fn lower_bound_respects_flags_and_distances() {
        use crate::bounds::BoundProfile;
        let a = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        let b = Trajectory::from_xy(&[(10.0, 0.0), (11.0, 1.5)]);
        let pa = BoundProfile::of(&a);
        let pb = BoundProfile::of(&b);
        for m in [
            Measure::Dtw,
            Measure::Frechet,
            Measure::Hausdorff,
            Measure::CDtw(8),
        ] {
            let lb = m.lower_bound(&pa, &pb);
            assert!(lb > 0.0, "{m} should have a non-trivial bound here");
            assert!(lb <= m.distance(&a, &b) + 1e-9, "{m} bound must hold");
        }
        // Edit distances have no geometric bound: trivial 0.
        assert_eq!(Measure::Erp(Point::new(0.0, 0.0)).lower_bound(&pa, &pb), 0.0);
        assert_eq!(Measure::Edr(1.0).lower_bound(&pa, &pb), 0.0);
    }

    #[test]
    fn name_round_trips_through_display_and_from_name() {
        let cases = [
            Measure::Dtw,
            Measure::Frechet,
            Measure::Hausdorff,
            Measure::CDtw(0),
            Measure::CDtw(16),
            Measure::Erp(Point::new(0.0, 0.0)),
            Measure::Erp(Point::new(-12.75, 3.5)),
            Measure::Erp(Point::new(0.1, 1e-9)),
            Measure::Edr(100.0),
            Measure::Edr(0.333),
        ];
        for m in cases {
            let s = m.to_string();
            assert_eq!(Measure::from_name(&s), Some(m), "round trip failed for {s}");
        }
    }

    #[test]
    fn from_name_accepts_case_and_whitespace() {
        assert_eq!(Measure::from_name("dtw"), Some(Measure::Dtw));
        assert_eq!(Measure::from_name(" HAUSDORFF "), Some(Measure::Hausdorff));
        assert_eq!(Measure::from_name("frechet"), Some(Measure::Frechet));
        assert_eq!(Measure::from_name("cdtw( 8 )"), Some(Measure::CDtw(8)));
        assert_eq!(
            Measure::from_name("erp(1.5, -2)"),
            Some(Measure::Erp(Point::new(1.5, -2.0)))
        );
        assert_eq!(Measure::from_name("edr(0.5)"), Some(Measure::Edr(0.5)));
    }

    #[test]
    fn from_name_rejects_malformed_inputs() {
        for bad in [
            "", "dt w", "cdtw", "cdtw()", "cdtw(-1)", "cdtw(1.5)", "erp", "erp(1)",
            "erp(1,2,3)", "edr", "edr(x)", "dtw(3)", "frechet()", "edr(1))", "edr((1)",
            "all",
        ] {
            assert_eq!(Measure::from_name(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn paper_suite_is_three_distinct_measures() {
        let suite = Measure::paper_suite();
        assert_eq!(suite.len(), 3);
        assert_ne!(suite[0], suite[1]);
        assert_ne!(suite[1], suite[2]);
    }
}
