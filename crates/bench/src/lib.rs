//! # traj-bench — experiment harnesses
//!
//! Shared infrastructure for the binaries that regenerate every table and
//! figure of the paper (see DESIGN.md section 4 for the index). Each
//! binary accepts `--scale tiny|small|medium`, `--seed N`, and where
//! applicable `--city` / `--measure` filters; results print as aligned
//! text tables in the same layout as the paper's.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod gtbench;
pub mod harness;
pub mod methods;
pub mod scale;
pub mod searchbed;

pub use gtbench::*;
pub use harness::*;
pub use methods::*;
pub use scale::*;
pub use searchbed::{Pass, SearchBed};
