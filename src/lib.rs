//! # syno — a Rust reproduction of *Syno: Structured Synthesis for Neural Operators* (ASPLOS 2025)
//!
//! The public API is the [`Session`] facade: declare symbolic shapes once,
//! then drive the two halves of the system —
//!
//! * [`Session::synthesis`] — the resumable Algorithm 1 enumerator
//!   ([`core::synth::Synthesis`]), yielding canonical operators one at a
//!   time with typed [`SynthError`]s;
//! * [`Session::search`] / [`Session::scenario`] — the streaming
//!   [`SearchBuilder`] → [`SearchRun`] pipeline (synthesize → proxy-train →
//!   latency-tune), which emits [`SearchEvent`]s over a channel, honors
//!   a step budget, cancels cooperatively through a
//!   [`CancelToken`], searches many specs concurrently, and evaluates a
//!   run's candidates on [`SearchBuilder::eval_workers`] threads without
//!   changing the discovered candidate set;
//! * [`SessionBuilder::store`] — persistence: a content-addressed on-disk
//!   [`Store`] that deduplicates candidates across runs, recalls cached
//!   evaluations as [`SearchEvent::CacheHit`]s instead of re-training, and
//!   journals [`Checkpoint`]s so [`Session::resume`] /
//!   [`SearchBuilder::resume_from`] continue an interrupted search.
//!
//! Failures everywhere are the workspace-wide [`SynoError`].
//!
//! The underlying crates remain re-exported for direct use:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | primitives, pGraphs, canonicalization, shape distance, synthesis (§5–§7) |
//! | [`tensor`] | dense f32 runtime, einsum, autodiff (PyTorch substitute) |
//! | [`ir`] | loop-nest IR, materialized reduction, eager + interpreter backends (§8) |
//! | [`compiler`] | device models and the TVM-/TorchInductor-style compiler simulators (§9.1) |
//! | [`nn`] | training substrate, synthetic datasets, accuracy/perplexity proxies |
//! | [`search`] | MCTS, and the streaming `SearchBuilder`/`SearchRun` orchestration (§7.2) |
//! | [`store`] | persistent content-addressed candidate store: cross-run dedup, evaluation caching, checkpoint/resume |
//! | [`serve`] | the `syno-serve` daemon: wire protocol, multi-tenant session manager, shared eval pool over one warm store |
//! | [`models`] | backbone layer tables, NAS-PTE baselines, Operators 1 & 2 (§9) |
//! | [`telemetry`] | dependency-free observability: tracing spans, metrics registry, Prometheus-style dumps |
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the API reference.

#![forbid(unsafe_code)]

pub use syno_compiler as compiler;
pub use syno_core as core;
pub use syno_ir as ir;
pub use syno_models as models;
pub use syno_nn as nn;
pub use syno_search as search;
pub use syno_serve as serve;
pub use syno_store as store;
pub use syno_telemetry as telemetry;
pub use syno_tensor as tensor;

mod session;

pub use session::{Session, SessionBuilder};
pub use syno_core::error::{SynoError, SynthError};
pub use syno_nn::ProxyFamilyId;
pub use syno_search::{
    CancelToken, Candidate, PhaseWall, SearchBuilder, SearchEvent, SearchReport,
    SearchRun, StopReason,
};
pub use syno_serve::{SearchRequest, ServeConfig, SessionMessage, SynoClient};
pub use syno_store::{
    CandidateSet, Checkpoint, DeriveOp, ScoreContract, Store, StoreBuilder, StoreError,
    StoreStats,
};
