//! Loader for the real Porto taxi dataset (ECML/PKDD 2015 challenge
//! format), so users who have the actual corpus can run every experiment
//! on it instead of the synthetic stand-in.
//!
//! The challenge CSV stores each trip's GPS track in a `POLYLINE` column
//! as a JSON-style nested array of `[longitude, latitude]` pairs:
//!
//! ```text
//! "[[-8.618643,41.141412],[-8.618499,41.141376],...]"
//! ```
//!
//! Coordinates are projected to local meters with an equirectangular
//! projection around the dataset's reference latitude — accurate to well
//! under a meter over a city-sized extent, and consistent with the
//! planar Euclidean geometry the distance kernels use.

use crate::types::{Point, Trajectory};

/// Porto's approximate center, used as the default projection origin.
pub const PORTO_ORIGIN: (f64, f64) = (-8.62, 41.16);

/// Meters per degree of latitude (WGS-84 mean).
const METERS_PER_DEG_LAT: f64 = 111_320.0;

/// Equirectangular projection of a lon/lat pair to local meters around
/// `origin` (`(lon0, lat0)` in degrees).
pub fn project_lonlat(lon: f64, lat: f64, origin: (f64, f64)) -> Point {
    let (lon0, lat0) = origin;
    let meters_per_deg_lon = METERS_PER_DEG_LAT * lat0.to_radians().cos();
    Point::new((lon - lon0) * meters_per_deg_lon, (lat - lat0) * METERS_PER_DEG_LAT)
}

/// Errors from polyline parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum PolylineError {
    /// The string is not a bracketed array of pairs.
    Malformed(String),
    /// A coordinate failed to parse as a float.
    BadNumber(String),
}

impl std::fmt::Display for PolylineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolylineError::Malformed(s) => write!(f, "malformed polyline: {s}"),
            PolylineError::BadNumber(s) => write!(f, "bad coordinate: {s}"),
        }
    }
}

impl std::error::Error for PolylineError {}

/// Parses one `POLYLINE` cell into lon/lat pairs.
///
/// Accepts optional surrounding double quotes (as in raw CSV cells) and
/// whitespace. An empty array `[]` yields an empty vector.
pub fn parse_polyline(cell: &str) -> Result<Vec<(f64, f64)>, PolylineError> {
    let s = cell.trim().trim_matches('"').trim();
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| PolylineError::Malformed(truncate(s)))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut rest = inner;
    loop {
        let start = rest
            .find('[')
            .ok_or_else(|| PolylineError::Malformed(truncate(rest)))?;
        let end = rest[start..]
            .find(']')
            .map(|e| start + e)
            .ok_or_else(|| PolylineError::Malformed(truncate(rest)))?;
        let pair = &rest[start + 1..end];
        let mut nums = pair.split(',').map(str::trim);
        let lon: f64 = nums
            .next()
            .ok_or_else(|| PolylineError::Malformed(truncate(pair)))?
            .parse()
            .map_err(|_| PolylineError::BadNumber(truncate(pair)))?;
        let lat: f64 = nums
            .next()
            .ok_or_else(|| PolylineError::Malformed(truncate(pair)))?
            .parse()
            .map_err(|_| PolylineError::BadNumber(truncate(pair)))?;
        if nums.next().is_some() {
            return Err(PolylineError::Malformed(truncate(pair)));
        }
        out.push((lon, lat));
        rest = &rest[end + 1..];
        if !rest.trim_start().starts_with(',') {
            break;
        }
    }
    Ok(out)
}

fn truncate(s: &str) -> String {
    s.chars().take(48).collect()
}

/// How `load_porto_csv` treats imperfect input. Real-world taxi dumps
/// always contain some corrupt rows; the policy says how many are
/// tolerable before the load as a whole is considered failed.
#[derive(Debug, Clone)]
pub struct LoadPolicy {
    /// Projection origin `(lon, lat)` in degrees.
    pub origin: (f64, f64),
    /// Minimum GPS points per trip (the paper's preprocessing filter,
    /// Section V-A1). Shorter trips are *filtered*, not corrupt.
    pub min_points: usize,
    /// Maximum tolerated fraction of corrupt rows (malformed, bad
    /// number, out-of-bounds) among all data rows. Exceeding it turns
    /// the whole load into [`LoadError::BudgetExceeded`].
    pub max_corrupt_fraction: f64,
    /// Plausible longitude range, degrees. Coordinates outside are
    /// classified as corrupt (`out_of_bounds`); `NaN` coordinates fail
    /// this check too.
    pub lon_range: (f64, f64),
    /// Plausible latitude range, degrees.
    pub lat_range: (f64, f64),
}

impl Default for LoadPolicy {
    fn default() -> Self {
        LoadPolicy {
            origin: PORTO_ORIGIN,
            min_points: 2,
            max_corrupt_fraction: 0.05,
            lon_range: (-180.0, 180.0),
            lat_range: (-90.0, 90.0),
        }
    }
}

impl LoadPolicy {
    fn in_bounds(&self, lon: f64, lat: f64) -> bool {
        // NaN fails every comparison, so non-finite coordinates are
        // out of bounds by construction.
        lon >= self.lon_range.0
            && lon <= self.lon_range.1
            && lat >= self.lat_range.0
            && lat <= self.lat_range.1
    }
}

/// Per-row accounting of a CSV load: what was kept, what was filtered,
/// and what was corrupt in which way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Non-empty data rows seen (excludes the header).
    pub rows: usize,
    /// Trajectories returned.
    pub loaded: usize,
    /// Rows whose polyline cell was structurally broken.
    pub malformed: usize,
    /// Rows with an unparseable coordinate.
    pub bad_number: usize,
    /// Rows with a coordinate outside the policy's plausible range.
    pub out_of_bounds: usize,
    /// Rows filtered by the `min_points` preprocessing rule (not
    /// counted against the corruption budget).
    pub too_short: usize,
}

impl LoadReport {
    /// Rows counted against the corruption budget.
    pub fn corrupt(&self) -> usize {
        self.malformed + self.bad_number + self.out_of_bounds
    }

    /// Corrupt fraction among all data rows (0 when the file is empty).
    pub fn corrupt_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.corrupt() as f64 / self.rows as f64
        }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rows: {} loaded, {} too short, {} corrupt \
             ({} malformed, {} bad number, {} out of bounds; {:.2}%)",
            self.rows,
            self.loaded,
            self.too_short,
            self.corrupt(),
            self.malformed,
            self.bad_number,
            self.out_of_bounds,
            100.0 * self.corrupt_fraction()
        )
    }
}

/// Why a CSV load failed as a whole (individual bad rows are skipped
/// and reported, not errors).
#[derive(Debug)]
pub enum LoadError {
    /// Reading the underlying stream failed.
    Io(std::io::Error),
    /// The header has no `POLYLINE` column — wrong file, not a
    /// partially corrupt one.
    NoPolylineColumn,
    /// More rows were corrupt than the policy tolerates. The report
    /// carries the full classification for diagnostics.
    BudgetExceeded {
        /// Accounting of the aborted load.
        report: LoadReport,
        /// The budget that was exceeded.
        budget: f64,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error reading CSV: {e}"),
            LoadError::NoPolylineColumn => write!(f, "no POLYLINE column in header"),
            LoadError::BudgetExceeded { report, budget } => write!(
                f,
                "corrupt fraction {:.2}% exceeds budget {:.2}% ({report})",
                100.0 * report.corrupt_fraction(),
                100.0 * budget
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Streams trajectories out of an ECML/PKDD-format CSV reader: finds the
/// `POLYLINE` column from the header, parses every row, projects around
/// the policy's origin, and applies the paper's preprocessing filter
/// (drop trips with fewer than `min_points` records, Section V-A1).
///
/// Corrupt rows (structurally broken polylines, unparseable numbers,
/// implausible coordinates) are skipped and classified in the returned
/// [`LoadReport`]; the load only fails — with
/// [`LoadError::BudgetExceeded`] — when their fraction exceeds
/// `policy.max_corrupt_fraction`, so a handful of bad rows in a
/// million-trip dump never aborts ingestion, while a systematically
/// broken file cannot masquerade as a small dataset.
pub fn load_porto_csv<R: std::io::BufRead>(
    reader: R,
    policy: &LoadPolicy,
) -> Result<(Vec<Trajectory>, LoadReport), LoadError> {
    let mut lines = reader.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Ok((Vec::new(), LoadReport::default())),
    };
    let polyline_col = split_csv(&header)
        .iter()
        .position(|c| c.trim_matches('"').eq_ignore_ascii_case("POLYLINE"))
        .ok_or(LoadError::NoPolylineColumn)?;
    let mut out = Vec::new();
    let mut report = LoadReport::default();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        report.rows += 1;
        let cells = split_csv(&line);
        let Some(cell) = cells.get(polyline_col) else {
            report.malformed += 1;
            continue;
        };
        match parse_polyline(cell) {
            Err(PolylineError::Malformed(_)) => report.malformed += 1,
            Err(PolylineError::BadNumber(_)) => report.bad_number += 1,
            Ok(pairs) => {
                if pairs.iter().any(|&(lon, lat)| !policy.in_bounds(lon, lat)) {
                    report.out_of_bounds += 1;
                } else if pairs.len() < policy.min_points {
                    report.too_short += 1;
                } else {
                    out.push(Trajectory::new(
                        pairs
                            .into_iter()
                            .map(|(lon, lat)| project_lonlat(lon, lat, policy.origin))
                            .collect(),
                    ));
                    report.loaded += 1;
                }
            }
        }
    }
    if traj_obs::enabled() {
        traj_obs::counter("data.load.rows", report.rows as u64);
        traj_obs::counter("data.load.loaded", report.loaded as u64);
        traj_obs::counter("data.load.malformed", report.malformed as u64);
        traj_obs::counter("data.load.bad_number", report.bad_number as u64);
        traj_obs::counter("data.load.out_of_bounds", report.out_of_bounds as u64);
        traj_obs::counter("data.load.too_short", report.too_short as u64);
        traj_obs::event(
            "data.load",
            &[
                ("rows", report.rows.into()),
                ("loaded", report.loaded.into()),
                ("corrupt", report.corrupt().into()),
                ("corrupt_fraction", report.corrupt_fraction().into()),
                ("too_short", report.too_short.into()),
                ("budget_exceeded", (report.corrupt_fraction() > policy.max_corrupt_fraction).into()),
            ],
        );
    }
    if report.corrupt_fraction() > policy.max_corrupt_fraction {
        traj_obs::counter("data.load.budget_exceeded", 1);
        return Err(LoadError::BudgetExceeded {
            report,
            budget: policy.max_corrupt_fraction,
        });
    }
    Ok((out, report))
}

/// Minimal CSV field splitter that respects double-quoted cells (the
/// polyline cell contains commas). Quotes are kept on the cell so
/// callers can strip them; escaped quotes (`""`) are not produced by the
/// challenge format and are treated literally.
fn split_csv(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                cur.push(ch);
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_looking_polyline() {
        let cell = r#""[[-8.618643,41.141412],[-8.618499,41.141376],[-8.620326,41.14251]]""#;
        let pairs = parse_polyline(cell).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!((pairs[0].0 + 8.618643).abs() < 1e-12);
        assert!((pairs[2].1 - 41.14251).abs() < 1e-12);
    }

    #[test]
    fn empty_polyline_is_empty_trajectory() {
        assert_eq!(parse_polyline("[]").unwrap(), Vec::new());
        assert_eq!(parse_polyline(r#""[]""#).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_malformed_cells() {
        assert!(parse_polyline("not a polyline").is_err());
        assert!(parse_polyline("[[1,2],[3]]").is_err());
        assert!(parse_polyline("[[1,2,3]]").is_err());
        assert!(parse_polyline("[[a,b]]").is_err());
    }

    #[test]
    fn projection_is_locally_accurate() {
        // one degree of latitude ~ 111.32 km; 0.001 deg ~ 111.3 m
        let origin = PORTO_ORIGIN;
        let a = project_lonlat(origin.0, origin.1, origin);
        assert!(a.x.abs() < 1e-9 && a.y.abs() < 1e-9);
        let b = project_lonlat(origin.0, origin.1 + 0.001, origin);
        assert!((b.y - 111.32).abs() < 0.1);
        // longitude meters shrink with cos(lat)
        let c = project_lonlat(origin.0 + 0.001, origin.1, origin);
        assert!((c.x - 111.32 * origin.1.to_radians().cos()).abs() < 0.1);
    }

    #[test]
    fn loads_csv_and_applies_min_points_filter() {
        let csv = concat!(
            "\"TRIP_ID\",\"CALL_TYPE\",\"POLYLINE\"\n",
            "\"1\",\"A\",\"[[-8.618,41.141],[-8.617,41.142],[-8.616,41.143]]\"\n",
            "\"2\",\"B\",\"[[-8.6,41.1]]\"\n",
            "\"3\",\"C\",\"garbage\"\n",
            "\"4\",\"A\",\"[[-8.62,41.16],[-8.621,41.161],[-8.622,41.162]]\"\n",
        );
        let policy = LoadPolicy { max_corrupt_fraction: 0.5, ..Default::default() };
        let (trajs, report) = load_porto_csv(csv.as_bytes(), &policy).unwrap();
        assert_eq!(trajs.len(), 2, "two trips survive the filter");
        assert_eq!(
            report,
            LoadReport { rows: 4, loaded: 2, malformed: 1, too_short: 1, ..Default::default() }
        );
        assert_eq!(trajs[0].len(), 3);
        // projected coordinates are in meters near the origin
        assert!(trajs[1].points.iter().all(|p| p.x.abs() < 10_000.0 && p.y.abs() < 10_000.0));
    }

    #[test]
    fn classifies_each_corruption_kind() {
        let csv = concat!(
            "\"TRIP_ID\",\"POLYLINE\"\n",
            "\"1\",\"[[-8.618,41.141],[-8.617,41.142]]\"\n", // good
            "\"2\",\"[[-8.6,41.1\"\n",                       // malformed (unclosed)
            "\"3\",\"[[abc,41.1],[-8.6,41.2]]\"\n",          // bad number
            "\"4\",\"[[-8.6,141.0],[-8.6,41.2]]\"\n",        // latitude out of range
            "\"5\",\"[[NaN,41.1],[-8.6,41.2]]\"\n",          // NaN parses, bounds catch it
            "\"6\",\"[[-8.6,41.1]]\"\n",                     // too short (filter, not corrupt)
        );
        let policy = LoadPolicy { max_corrupt_fraction: 1.0, ..Default::default() };
        let (trajs, report) = load_porto_csv(csv.as_bytes(), &policy).unwrap();
        assert_eq!(trajs.len(), 1);
        assert_eq!(
            report,
            LoadReport {
                rows: 6,
                loaded: 1,
                malformed: 1,
                bad_number: 1,
                out_of_bounds: 2,
                too_short: 1,
            }
        );
        assert_eq!(report.corrupt(), 4);
        assert!((report.corrupt_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn budget_decides_between_skip_and_fail() {
        // 1 corrupt row out of 10 = 10% corruption.
        let mut csv = String::from("\"TRIP_ID\",\"POLYLINE\"\n");
        for i in 0..9 {
            csv.push_str(&format!("\"{i}\",\"[[-8.618,41.141],[-8.617,41.142]]\"\n"));
        }
        csv.push_str("\"9\",\"garbage\"\n");

        // Under a 20% budget the load succeeds and the report is exact.
        let lenient = LoadPolicy { max_corrupt_fraction: 0.2, ..Default::default() };
        let (trajs, report) = load_porto_csv(csv.as_bytes(), &lenient).unwrap();
        assert_eq!(trajs.len(), 9);
        assert_eq!(report.corrupt(), 1);
        assert_eq!(report.rows, 10);

        // Under a 5% budget the same file fails with a typed error that
        // still carries the full classification.
        let strict = LoadPolicy { max_corrupt_fraction: 0.05, ..Default::default() };
        match load_porto_csv(csv.as_bytes(), &strict) {
            Err(LoadError::BudgetExceeded { report, budget }) => {
                assert_eq!(report.corrupt(), 1);
                assert_eq!(report.rows, 10);
                assert!((budget - 0.05).abs() < 1e-12);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn empty_file_loads_empty() {
        let (trajs, report) = load_porto_csv(&b""[..], &LoadPolicy::default()).unwrap();
        assert!(trajs.is_empty());
        assert_eq!(report, LoadReport::default());
    }

    #[test]
    fn row_with_missing_polyline_cell_is_malformed() {
        let csv = "\"TRIP_ID\",\"CALL_TYPE\",\"POLYLINE\"\n\"1\",\"A\"\n";
        let policy = LoadPolicy { max_corrupt_fraction: 1.0, ..Default::default() };
        let (trajs, report) = load_porto_csv(csv.as_bytes(), &policy).unwrap();
        assert!(trajs.is_empty());
        assert_eq!(report.malformed, 1);
    }

    #[test]
    fn csv_splitter_respects_quoted_commas() {
        let cells = split_csv(r#""a","[[1,2],[3,4]]","b""#);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1], r#""[[1,2],[3,4]]""#);
    }

    #[test]
    fn header_without_polyline_errors() {
        let csv = "\"A\",\"B\"\n1,2\n";
        assert!(matches!(
            load_porto_csv(csv.as_bytes(), &LoadPolicy::default()),
            Err(LoadError::NoPolylineColumn)
        ));
    }
}
