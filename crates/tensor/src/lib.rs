//! # syno-tensor — the dense tensor runtime and autodiff substrate
//!
//! This crate substitutes for PyTorch/ATen in the Syno reproduction:
//!
//! * [`Tensor`] — contiguous row-major `f32` tensors;
//! * [`ops`] — structural operations mirroring the top-down semantics of the
//!   Syno primitives (reshape/permute/roll/unfold/strided/repeat/sum);
//! * [`einsum`](crate::einsum()) — general Einstein summation, the lowering
//!   target for `Share`/`Reduce` contractions (§8);
//! * [`Tape`] — reverse-mode autodiff over all of the above, powering the
//!   accuracy-proxy training loops.
//!
//! ## Example
//!
//! ```
//! use syno_tensor::{Tape, Tensor, einsum};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Eager einsum...
//! let x = Tensor::from_vec(vec![1.0, 2.0], &[2]);
//! let w = Tensor::from_vec(vec![3.0, 4.0], &[2]);
//! let dot = einsum("i,i->", &[&x, &w])?;
//! assert_eq!(dot.data(), &[11.0]);
//!
//! // ...and the same computation with gradients.
//! let mut tape = Tape::new();
//! let xv = tape.leaf(x);
//! let wv = tape.leaf(w);
//! let y = tape.einsum("i,i->", &[xv, wv]);
//! let grads = tape.backward(y);
//! assert_eq!(grads.get(xv).unwrap().data(), &[3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod autodiff;
mod einsum;
pub mod init;
pub mod ops;
mod pool;
mod tensor;

pub use autodiff::{Gradients, Tape, Var};
pub use einsum::{
    einsum, einsum_reference, einsum_spec, einsum_spec_reference, matmul, EinsumEngine,
    EinsumError, EinsumPlan, EinsumSpec, ExecPolicy,
};
pub use pool::ScratchPool;
pub use tensor::Tensor;
