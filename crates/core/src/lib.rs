//! # syno-core — structured synthesis for neural operators
//!
//! A from-scratch Rust implementation of the synthesis core of *Syno:
//! Structured Synthesis for Neural Operators* (ASPLOS 2025): fine-grained
//! primitives over tensor coordinate expressions, primitive graphs
//! (*pGraphs*), canonicalization, the shape-distance guidance metric, and the
//! bottom-up synthesis flow of Algorithm 1.
//!
//! ## Tour
//!
//! * [`var`] / [`size`] — symbolic shape variables and monomial sizes (§5.4);
//! * [`expr`] — hash-consed coordinate expressions (§5.1);
//! * [`primitive`] — the Table 1 primitive library and synthesis actions;
//! * [`graph`] — persistent pGraphs with frontier tracking and weight
//!   assembly (§5.1, Fig. 2);
//! * [`canon`] — the §6 canonicalization rules;
//! * [`simplify`] — the Halide-style term-rewrite system justifying them;
//! * [`distance`] — the §7.1 shape-distance metric;
//! * [`synth`] — the Algorithm 1 enumerator and random rollouts;
//! * [`analysis`] — FLOPs / parameter / memory analyses;
//! * [`stable`] / [`codec`] — the stable FNV-1a hashing chain and the
//!   versioned binary encoding behind the `syno-store` candidate store;
//! * [`ops`] — the Table 2 reference operators (conv2d, matmul, pooling,
//!   pixel shuffle, grouped/depthwise/pointwise convolutions).
//!
//! ## Example: synthesize pooling-like operators
//!
//! ```
//! use syno_core::prelude::*;
//!
//! // Declare symbolic shapes: map [H] -> [H/s].
//! let mut vars = VarTable::new();
//! let h = vars.declare("H", VarKind::Primary);
//! let s = vars.declare("s", VarKind::Coefficient);
//! vars.push_valuation(vec![(h, 16), (s, 2)]);
//! let vars = vars.into_shared();
//!
//! let spec = OperatorSpec::new(
//!     TensorShape::new(vec![Size::var(h)]),
//!     TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
//! );
//!
//! // Enumerate all canonical operators of at most 3 primitives.
//! let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
//! let mut synthesis = enumerator.synthesis(&vars, &spec);
//! let found: Vec<PGraph> = synthesis.by_ref().collect::<Result<_, _>>().unwrap();
//! assert!(!found.is_empty());
//! assert!(synthesis.stats().pruned_distance > 0); // shape distance pruned dead ends
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod canon;
pub mod codec;
pub mod distance;
pub mod error;
pub mod expr;
pub mod graph;
pub mod ops;
pub mod primitive;
pub mod simplify;
pub mod size;
pub mod spec;
pub mod stable;
pub mod synth;
pub mod var;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::analysis;
    pub use crate::canon::{CanonRules, CanonViolation};
    pub use crate::distance::shape_distance;
    pub use crate::error::{SynoError, SynthError};
    pub use crate::expr::{AtomId, AtomKind, ExprArena, ExprId, ExprNode};
    pub use crate::graph::{ApplyError, CoordId, NodeId, PGraph, WeightTensor};
    pub use crate::ops;
    pub use crate::primitive::{Action, PrimKind};
    pub use crate::size::Size;
    pub use crate::spec::{OperatorSpec, TensorShape};
    pub use crate::stable::{stable_hash_of, StableHasher};
    pub use crate::synth::{rollout, EnumStats, Enumerator, RolloutResult, SynthConfig, Synthesis};
    pub use crate::var::{VarId, VarKind, VarTable};
}
