//! # tinynn — a minimal CPU neural-network substrate
//!
//! The Traj2Hash paper trains its models with PyTorch on a GPU; this
//! reproduction replaces that stack with a small, dependency-light,
//! pure-Rust library providing exactly what the paper's equations need:
//!
//! * [`Tensor`] — dense row-major `f32` matrices,
//! * [`Tape`] / [`Var`] — reverse-mode automatic differentiation,
//! * [`Param`] / [`ParamSet`] — shared trainable parameters with
//!   save/load,
//! * layers ([`Linear`], [`Mlp`], [`Embedding`],
//!   [`MultiHeadSelfAttention`], [`EncoderBlock`], [`GruCell`],
//!   [`positional_encoding`]),
//! * optimizers ([`Sgd`], [`Adam`]) and gradient clipping,
//! * [`gradcheck`] utilities used by the test-suite to validate every
//!   backward implementation numerically.
//!
//! The design keeps every tensor two-dimensional; sequence models process
//! one trajectory at a time, which is both simple and fast enough for the
//! scaled-down experiments this repository runs.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod optim;
pub mod param;
pub mod sync;
pub mod tape;
pub mod tensor;
pub mod verify;

pub use layers::{
    positional_encoding, Embedding, EncoderBlock, GruCell, Linear, Mlp, MultiHeadSelfAttention,
};
pub use optim::{clip_grad_norm, Adam, Sgd};
pub use param::{Param, ParamSet};
pub use tape::{NodeMeta, Op, Tape, Var};
pub use tensor::Tensor;
pub use verify::{verify_tape, GraphIssue, GraphReport};
