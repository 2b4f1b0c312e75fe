//! # traj-data — trajectory types and synthetic datasets
//!
//! Core data model for the Traj2Hash reproduction: [`Point`] and
//! [`Trajectory`] types, Gaussian [`NormStats`] normalization, trajectory
//! perturbations for contrastive baselines, and deterministic synthetic
//! city generators that stand in for the Porto/ChengDu taxi corpora (see
//! DESIGN.md for the substitution rationale).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod augment;
pub mod normalize;
pub mod porto_csv;
pub mod splits;
pub mod synthetic;
pub mod types;

pub use normalize::NormStats;
pub use porto_csv::{
    load_porto_csv, parse_polyline, project_lonlat, LoadError, LoadPolicy, LoadReport,
    PolylineError, PORTO_ORIGIN,
};
pub use splits::{Dataset, SplitSizes};
pub use synthetic::{CityGenerator, CityParams};
pub use types::{BoundingBox, Point, Trajectory};
