//! # syno-search — MCTS-guided operator discovery and orchestration
//!
//! Implements §7.2 of the paper as a streaming, cancellable service layer:
//!
//! * [`mcts`] — UCT over the partial-pGraph MDP with shape-distance-feasible
//!   children and guided rollouts. [`Mcts::search_async_while`] hands each
//!   new candidate to its caller and searches on under a virtual loss;
//!   [`Mcts::search`] is the inline reference;
//! * [`discovered`] — discovered-operator records and Pareto-front
//!   extraction (Fig. 6);
//! * [`run`] — the `SearchBuilder → SearchRun` driver: Algorithm 1's outer
//!   loop (synthesize → proxy-train → latency-tune) streaming
//!   [`SearchEvent`]s over a channel, with [`CancelToken`] cancellation,
//!   a step budget, concurrent multi-spec scenarios, one
//!   evaluation path at every width, and optional persistence: attach a
//!   `syno-store` [`Store`](syno_store::Store) via [`SearchBuilder::store`]
//!   for cross-run evaluation caching (`SearchEvent::CacheHit`) or
//!   [`SearchBuilder::resume_from`] to continue an interrupted run from its
//!   journaled checkpoints;
//! * [`pool`] — the [`EvalPool`] candidate jobs run on: one per run
//!   ([`SearchBuilder::eval_workers`]) or one shared by many runs
//!   ([`SearchBuilder::eval_pool`]);
//! * [`coalesce`] — the in-flight single-flight table
//!   ([`CoalesceTable`]): concurrent runs that share one table (and one
//!   store) train each `(content_hash, contract)` exactly once, with
//!   followers replaying the leader's outcome bit-identically.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod coalesce;
pub mod discovered;
pub mod mcts;
pub mod pool;
pub mod run;

pub use coalesce::CoalesceTable;
pub use discovered::{pareto_front, Discovered, TradeoffPoint};
pub use mcts::{EvalOutcome, EvalRequest, Mcts, MctsConfig, MctsStats};
pub use pool::EvalPool;
pub use run::{
    CancelToken, Candidate, PhaseNanos, PhaseWall, RunProgress, ScenarioProgress,
    SearchBuilder, SearchEvent, SearchReport, SearchRun, StopReason,
};
// The per-scenario proxy-family selector threaded through
// `SearchBuilder::proxy_family` (defined by the registry in `syno-nn`).
pub use syno_nn::ProxyFamilyId;
