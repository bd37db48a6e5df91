//! What a run is given to stop by, what it streams, and what it reports.

use super::progress::PhaseWall;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use syno_core::error::SynoError;
use syno_core::graph::PGraph;

/// A cloneable cooperative-cancellation handle.
///
/// All clones share one flag; any of them can [`cancel`](CancelToken::cancel)
/// a run, which stops between pipeline steps and salvages partial results.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every scenario ran its configured iterations to completion.
    Completed,
    /// A [`CancelToken`] fired.
    Cancelled,
    /// The step budget was exhausted.
    StepBudget,
}

impl StopReason {
    /// Stable machine-readable name (used by the wire protocol and bench
    /// JSON).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Cancelled => "cancelled",
            StopReason::StepBudget => "step-budget",
        }
    }
}

/// A fully evaluated candidate (one row of the paper's result tables).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Index of the scenario (spec) this candidate substitutes.
    pub scenario: usize,
    /// The operator.
    pub graph: PGraph,
    /// Proxy accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Naive FLOPs under valuation 0.
    pub flops: u128,
    /// Parameter count under valuation 0.
    pub params: u128,
    /// Tuned latency per requested device, in input order.
    pub latencies: Vec<f64>,
}

/// One pipeline notification, streamed in emission order per scenario.
#[derive(Clone, Debug)]
pub enum SearchEvent {
    /// MCTS completed a rollout to a new distinct operator.
    CandidateFound {
        /// Scenario index.
        scenario: usize,
        /// Stable content hash identifying the candidate across events and
        /// store runs ([`PGraph::content_hash`]).
        id: u64,
        /// The operator.
        graph: PGraph,
    },
    /// The accuracy proxy finished training the candidate.
    ProxyScored {
        /// Scenario index.
        scenario: usize,
        /// Candidate id ([`PGraph::content_hash`]).
        id: u64,
        /// Proxy accuracy in `[0, 1]`.
        accuracy: f64,
    },
    /// The candidate's evaluation was recalled from the attached
    /// [`Store`](syno_store::Store) instead of recomputed: no proxy training ran, so no
    /// [`ProxyScored`](SearchEvent::ProxyScored) /
    /// [`LatencyTuned`](SearchEvent::LatencyTuned) follow — the carried
    /// [`Candidate`] is already final.
    CacheHit {
        /// Scenario index.
        scenario: usize,
        /// Candidate id ([`PGraph::content_hash`]).
        id: u64,
        /// The recalled, fully evaluated candidate record.
        candidate: Candidate,
    },
    /// The compiler simulator tuned the candidate on every device.
    LatencyTuned {
        /// Scenario index.
        scenario: usize,
        /// Candidate id ([`PGraph::content_hash`]).
        id: u64,
        /// The finished candidate record.
        candidate: Candidate,
    },
    /// A candidate could not be evaluated; carries the typed reason.
    CandidateSkipped {
        /// Scenario index.
        scenario: usize,
        /// Candidate id ([`PGraph::content_hash`]).
        id: u64,
        /// Why the candidate was dropped.
        error: SynoError,
    },
    /// The scenario's position was journaled to the attached
    /// [`Store`](syno_store::Store); a later
    /// [`SearchBuilder::resume_from`](super::SearchBuilder::resume_from)
    /// replays the evaluated prefix from the journal and continues past it.
    CheckpointWritten {
        /// Scenario index.
        scenario: usize,
        /// Iterations completed at the checkpoint.
        iterations: u64,
    },
    /// Periodic heartbeat per scenario.
    Progress {
        /// Scenario index.
        scenario: usize,
        /// Iterations finished in this scenario.
        iterations: u64,
        /// Iterations configured for this scenario.
        total_iterations: u64,
        /// Distinct candidates discovered so far in this scenario.
        discovered: u64,
    },
    /// A scenario finished (successfully or by early stop).
    ScenarioFinished {
        /// Scenario index.
        scenario: usize,
        /// Candidates this scenario contributed.
        candidates: usize,
    },
}

impl SearchEvent {
    /// The scenario this event belongs to.
    pub fn scenario(&self) -> usize {
        match *self {
            SearchEvent::CandidateFound { scenario, .. }
            | SearchEvent::ProxyScored { scenario, .. }
            | SearchEvent::CacheHit { scenario, .. }
            | SearchEvent::LatencyTuned { scenario, .. }
            | SearchEvent::CandidateSkipped { scenario, .. }
            | SearchEvent::CheckpointWritten { scenario, .. }
            | SearchEvent::Progress { scenario, .. }
            | SearchEvent::ScenarioFinished { scenario, .. } => scenario,
        }
    }
}

/// Final accounting of a run.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// All candidates, every scenario, sorted by descending accuracy.
    pub candidates: Vec<Candidate>,
    /// Why the run ended.
    pub stopped: StopReason,
    /// MCTS iterations executed across scenarios.
    pub steps: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Where the wall went, per phase (derived from the telemetry span
    /// timings; all zeros — pure `idle` — while telemetry is disabled).
    pub phases: PhaseWall,
}
