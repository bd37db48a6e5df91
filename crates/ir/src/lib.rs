//! # syno-ir — loop-nest IR, lowering, and the two code generators
//!
//! This crate implements §8 of the paper:
//!
//! * [`kernel`] — the TE-style loop-nest IR and its one executor,
//!   [`Kernel::execute`], an interpreter that walks every index expression
//!   per element;
//! * [`lower`] — pGraph → kernel lowering, naive and with the
//!   *materialized reduction* optimization (Fig. 4), which enumerates
//!   reduction orderings and splits stages to minimize FLOPs;
//! * [`eager`] — the PyTorch-style eager generator that lowers a pGraph
//!   once to an [`eager::Program`] of `syno-tensor` view ops and einsums,
//!   replayed on plain tensors or on an autodiff tape.
//!
//! The two backends implement the *same semantics* from the same pGraph; the
//! crate's tests (and the cross-crate property tests) assert they agree
//! element-wise, which is what makes the accuracy-side and latency-side
//! evaluations of the reproduction mutually consistent.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod eager;
pub mod kernel;
pub mod lower;

pub use kernel::{Kernel, Stage};
pub use lower::{lower_naive, lower_optimized, LowerError};
