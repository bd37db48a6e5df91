//! # syno-compiler — the tensor-compiler and hardware simulator
//!
//! The paper evaluates on TVM MetaSchedule and TorchInductor across a mobile
//! CPU, a mobile GPU, and an A100 (§9.1). None of that hardware (or either
//! compiler) is available to this reproduction, so this crate models the
//! *mechanisms* that produce the paper's performance results:
//!
//! * [`device`] — machine descriptors for the three platforms;
//! * [`profile`] — operator characterization (per-stage FLOPs/traffic from
//!   the lowered kernel, plus the eager ATen-fallback chain);
//! * [`cost`] — a cache-aware roofline model parameterized by schedules;
//! * [`mod@compile`] — the tuning (TVM-like) and template (TorchInductor-like)
//!   compilation flows, including TF32 tensor-core templates on big GPUs
//!   and ATen fallback on mobile (§9.2).
//!
//! Absolute latencies are estimates; the reproduction targets *speedup
//! ratios* and their orderings (the `fig5`–`fig10` binaries of `syno-bench`
//! print them).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod cost;
pub mod device;
pub mod profile;

pub use compile::{
    compile, compile_template, compile_tuned, profile_and_compile, Compiled, CompilerKind, DType,
};
pub use cost::{stage_latency, Schedule};
pub use device::{Device, DeviceKind};
pub use profile::{eager_chain, profile_graph, OperatorClass, OperatorProfile, StageProfile};
