//! The streaming search driver: `SearchBuilder` → [`SearchRun`].
//!
//! Algorithm 1 is a long-running, interruptible pipeline (synthesize →
//! proxy-train → latency-tune). A builder-configured run
//!
//! * streams [`SearchEvent`]s over a channel as the pipeline advances, in
//!   per-candidate order `CandidateFound → ProxyScored → LatencyTuned`;
//! * supports cooperative cancellation through a [`CancelToken`] and
//!   step/FLOP/wall-clock [`Budget`]s, returning the candidates discovered
//!   so far when stopped early;
//! * searches multiple [`OperatorSpec`] *scenarios* concurrently, one thread
//!   each (the paper's parallelism across substitution sites);
//! * evaluates every candidate the same way, whatever the run's width.
//!
//! # One way to evaluate a candidate
//!
//! Each scenario drives [`Mcts::search_async_while`]. Its submit hook
//! announces the new distinct candidate (`CandidateFound`) and packages it
//! as one *job*: a clone of the scenario's evaluation context, a guard that
//! owes the engine exactly one outcome, and one panic wrapper around store
//! recall → proxy training → latency tuning. Where the job runs is the only
//! thing [`SearchBuilder::eval_workers`] and [`SearchBuilder::eval_pool`]
//! decide:
//!
//! * `eval_pool(pool)` — on the caller's shared [`EvalPool`];
//! * `eval_workers(n ≥ 2)` — on a pool of `n` threads the run creates for
//!   all its scenarios and joins before [`SearchRun::join`] returns;
//! * `eval_workers(1)` — called in place on the search thread: the outcome
//!   is on the channel when the hook returns and the engine applies it
//!   before the next iteration. (A one-thread pool would do the same work
//!   with a thread hand-off per candidate, which costs about 12 % of
//!   throughput when an evaluation takes under a millisecond.)
//!
//! # Determinism contract
//!
//! The tree search continues under a virtual loss while evaluations are in
//! flight, and tree reads that would observe a not-yet-applied reward block
//! until it drains. So for a fixed seed a run makes the same selection
//! decisions at every width, on a private or a shared pool: the discovered
//! candidate set (keyed by [`PGraph::content_hash`], rewards included) and
//! each candidate's event subsequence (`CandidateFound` →
//! `ProxyScored`/`CacheHit` → `LatencyTuned`/`CandidateSkipped`) are those
//! of [`Mcts::search`] driven with the same scores; only the interleaving
//! *across* candidates differs. (Wall-clock-dependent stop conditions —
//! cancellation, time/FLOP budgets — still cut runs at timing-dependent
//! points, exactly as they do across scenario threads.)

use crate::coalesce::{Claim, CoalesceTable, TrainOutcome};
use crate::mcts::{EvalOutcome, EvalRequest, Mcts, MctsConfig};
use crate::pool::{panic_message, EvalPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use syno_compiler::{CompilerKind, DType, Device, OperatorClass};
use syno_core::error::{SynoError, SynthError};
use syno_core::graph::PGraph;
use syno_core::spec::OperatorSpec;
use syno_core::synth::{Enumerator, SynthConfig};
use syno_core::var::VarTable;
use syno_nn::{resolve_family, ProxyConfig, ProxyFamilyId, ProxyScorer};
use syno_store::{CandidateSet, Checkpoint, OpKind, ScoreContract, Store};
use syno_telemetry::metrics::labeled;

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

/// Resource ceilings for one search run (all disabled by default).
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Maximum MCTS iterations summed across all scenarios.
    pub max_steps: Option<u64>,
    /// Maximum cumulative naive FLOPs of proxy-scored candidates.
    pub max_flops: Option<u128>,
    /// Maximum wall-clock time for the whole run.
    pub max_wall: Option<Duration>,
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
    /// The FLOP budget was exhausted.
    FlopBudget,
    /// The wall-clock budget was exhausted.
    WallClock,
}

impl StopReason {
    /// Stable machine-readable name (used by the wire protocol and bench
    /// JSON); round-trips through [`from_name`](StopReason::from_name).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Cancelled => "cancelled",
            StopReason::StepBudget => "step-budget",
            StopReason::FlopBudget => "flop-budget",
            StopReason::WallClock => "wall-clock",
        }
    }

    /// Parses a [`name`](StopReason::name) back into the reason.
    pub fn from_name(name: &str) -> Option<StopReason> {
        [
            StopReason::Completed,
            StopReason::Cancelled,
            StopReason::StepBudget,
            StopReason::FlopBudget,
            StopReason::WallClock,
        ]
        .into_iter()
        .find(|r| r.name() == name)
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
///
/// Marked `#[non_exhaustive]`: new pipeline stages (op-log events, derive
/// notifications) may add variants without a semver break, so downstream
/// matchers need a wildcard arm.
#[derive(Clone, Debug)]
#[non_exhaustive]
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
    /// [`Store`] instead of recomputed: no proxy training ran, so no
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
    /// The scenario's position was journaled to the attached [`Store`]; a
    /// later [`SearchBuilder::resume_from`] replays the evaluated prefix
    /// from the journal and continues past it.
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
    /// Cumulative naive FLOPs of scored candidates.
    pub flops: u128,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Where the wall went, per phase (derived from the telemetry span
    /// timings; all zeros — pure `idle` — while telemetry is disabled).
    pub phases: PhaseWall,
}

/// Per-phase breakdown of a run's wall clock, derived from the same
/// measurements that feed the `syno-telemetry` span log. Strictly
/// out-of-band: reading or printing it never influences the search.
///
/// Phase time is summed across scenario workers and evaluator threads, so
/// with `eval_workers > 1` the phases can legitimately sum to more than
/// [`SearchReport::wall`]; `idle` is clamped at zero in that case.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseWall {
    /// Tree search: UCB selection/expansion plus rollout synthesis.
    pub synth: Duration,
    /// Proxy training (the `proxy_train` span).
    pub eval: Duration,
    /// Store traffic issued by the search: journal lookups and appends.
    pub store: Duration,
    /// Latency tuning (lowering + per-device compilation).
    pub tune: Duration,
    /// Wall clock not attributed to any phase (queue waits, event
    /// plumbing, scheduling) — or the whole wall while telemetry is off.
    pub idle: Duration,
}

impl PhaseWall {
    /// Assembles a breakdown from cumulative phase durations and the run's
    /// total wall clock.
    fn from_parts(synth: Duration, eval: Duration, store: Duration, tune: Duration, wall: Duration) -> PhaseWall {
        let accounted = synth + eval + store + tune;
        PhaseWall {
            synth,
            eval,
            store,
            tune,
            idle: wall.saturating_sub(accounted),
        }
    }
}

impl std::fmt::Display for PhaseWall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "synth {:.1?} | proxy {:.1?} | store {:.1?} | tune {:.1?} | idle {:.1?}",
            self.synth, self.eval, self.store, self.tune, self.idle
        )
    }
}

/// Cumulative per-phase nanosecond counters, updated by the search as it
/// goes (relaxed atomics — reading never perturbs the run). Counters stay
/// 0 while telemetry is disabled.
#[derive(Debug, Default)]
pub struct PhaseNanos {
    synth: AtomicU64,
    eval: AtomicU64,
    store: AtomicU64,
    tune: AtomicU64,
}

impl PhaseNanos {
    pub(crate) fn add_synth_ns(&self, ns: u64) {
        self.synth.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn add_eval(&self, d: Duration) {
        self.eval.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_store(&self, d: Duration) {
        self.store.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_tune(&self, d: Duration) {
        self.tune.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Nanoseconds spent in tree search (selection + rollout synthesis).
    pub fn synth_ns(&self) -> u64 {
        self.synth.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in proxy training.
    pub fn eval_ns(&self) -> u64 {
        self.eval.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in store lookups and appends.
    pub fn store_ns(&self) -> u64 {
        self.store.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in latency tuning.
    pub fn tune_ns(&self) -> u64 {
        self.tune.load(Ordering::Relaxed)
    }

    /// Snapshot as a [`PhaseWall`] against a total wall duration.
    pub fn snapshot(&self, wall: Duration) -> PhaseWall {
        PhaseWall::from_parts(
            Duration::from_nanos(self.synth_ns()),
            Duration::from_nanos(self.eval_ns()),
            Duration::from_nanos(self.store_ns()),
            Duration::from_nanos(self.tune_ns()),
            wall,
        )
    }
}

/// Live progress counters for one scenario of a run.
///
/// All fields are atomics updated by the search as it goes; reading them
/// never locks or allocates, so a status endpoint can poll at any rate
/// without perturbing the run. Counters are monotonically non-decreasing
/// but individually relaxed: a snapshot taken mid-iteration may be one
/// event ahead on one counter and behind on another.
#[derive(Debug)]
pub struct ScenarioProgress {
    label: String,
    total_iterations: AtomicU64,
    iterations: AtomicU64,
    discovered: AtomicU64,
    candidates: AtomicU64,
    finished: AtomicBool,
}

impl ScenarioProgress {
    fn new(label: &str, total_iterations: u64) -> ScenarioProgress {
        ScenarioProgress {
            label: label.to_owned(),
            total_iterations: AtomicU64::new(total_iterations),
            iterations: AtomicU64::new(0),
            discovered: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        }
    }

    /// The scenario's label, as passed to [`SearchBuilder::scenario`].
    pub fn label(&self) -> &str {
        &self.label
    }

    /// MCTS iterations configured for this scenario.
    pub fn total_iterations(&self) -> u64 {
        self.total_iterations.load(Ordering::Relaxed)
    }

    /// MCTS iterations finished so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Distinct candidates discovered (scored or recalled) so far.
    pub fn discovered(&self) -> u64 {
        self.discovered.load(Ordering::Relaxed)
    }

    /// Fully evaluated candidate records kept so far.
    pub fn candidates(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }

    /// Has the scenario finished (successfully or by early stop)?
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }
}

/// Allocation-free live progress for a whole [`SearchRun`].
///
/// Obtained once from [`SearchRun::progress`] (an `Arc` the caller can
/// clone and poll from any thread); every accessor is a plain atomic load,
/// so high-frequency status polling — the serving daemon answers a status
/// frame per connected client — costs no locks, clones, or allocations.
#[derive(Debug)]
pub struct RunProgress {
    scenarios: Vec<ScenarioProgress>,
    steps: AtomicU64,
    phases: PhaseNanos,
}

impl RunProgress {
    /// Per-scenario counters, indexed like the events' `scenario` field.
    pub fn scenarios(&self) -> &[ScenarioProgress] {
        &self.scenarios
    }

    /// Total MCTS iterations executed across all scenarios.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Distinct candidates discovered across all scenarios.
    pub fn discovered(&self) -> u64 {
        self.scenarios.iter().map(ScenarioProgress::discovered).sum()
    }

    /// Have all scenarios finished?
    pub fn finished(&self) -> bool {
        self.scenarios.iter().all(ScenarioProgress::finished)
    }

    /// Live per-phase wall accounting (cumulative; zeros while telemetry
    /// is disabled). The daemon's status path reads this to report where a
    /// session's time is going without re-instrumenting anything.
    pub fn phases(&self) -> &PhaseNanos {
        &self.phases
    }
}

struct Scenario {
    label: String,
    vars: Arc<VarTable>,
    spec: OperatorSpec,
    /// The proxy family scoring this scenario's candidates. `None` until
    /// [`SearchBuilder::start`] resolves it (auto-detected from the spec,
    /// or the run-wide [`SearchBuilder::proxy_family`] override).
    family: Option<ProxyFamilyId>,
}

/// Configures and launches a streaming search run.
///
/// ```no_run
/// use std::sync::Arc;
/// use syno_core::prelude::*;
/// use syno_search::{SearchBuilder, SearchEvent};
/// # fn vars_and_spec() -> (Arc<VarTable>, OperatorSpec) { unimplemented!() }
///
/// let (vars, spec) = vars_and_spec();
/// let run = SearchBuilder::new()
///     .scenario("conv3x3", &vars, &spec)
///     .max_steps(100)
///     .start()
///     .unwrap();
/// for event in run.events() {
///     if let SearchEvent::LatencyTuned { candidate, .. } = event {
///         println!("{:.3} acc, {} flops", candidate.accuracy, candidate.flops);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct SearchBuilder {
    scenarios: Vec<Scenario>,
    synth: Option<SynthConfig>,
    mcts: MctsConfig,
    proxy: ProxyConfig,
    devices: Vec<Device>,
    compiler: CompilerKind,
    workers: usize,
    eval_workers: usize,
    eval_pool: Option<EvalPool>,
    budget: Budget,
    cancel: CancelToken,
    progress_every: u64,
    store: Option<Arc<Store>>,
    resume: bool,
    proxy_family: Option<ProxyFamilyId>,
    coalesce: Option<CoalesceTable>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl Default for SearchBuilder {
    fn default() -> Self {
        SearchBuilder {
            scenarios: Vec::new(),
            synth: None,
            mcts: MctsConfig::default(),
            proxy: ProxyConfig::default(),
            devices: vec![Device::mobile_cpu()],
            compiler: CompilerKind::Tvm,
            workers: 2,
            eval_workers: 1,
            eval_pool: None,
            budget: Budget::default(),
            cancel: CancelToken::new(),
            progress_every: 10,
            store: None,
            resume: false,
            proxy_family: None,
            coalesce: None,
        }
    }
}

impl SearchBuilder {
    /// A builder with default settings and no scenarios.
    pub fn new() -> Self {
        SearchBuilder::default()
    }

    /// Adds a search scenario (one operator specification to substitute).
    /// Scenarios run concurrently, up to [`workers`](SearchBuilder::workers)
    /// at a time.
    pub fn scenario(
        mut self,
        label: impl Into<String>,
        vars: &Arc<VarTable>,
        spec: &OperatorSpec,
    ) -> Self {
        self.scenarios.push(Scenario {
            label: label.into(),
            vars: Arc::clone(vars),
            spec: spec.clone(),
            family: None,
        });
        self
    }

    /// Run-wide synthesis budgets and parameter candidates (defaults to
    /// [`SynthConfig::auto`] with 4 steps per scenario).
    pub fn synth(mut self, config: SynthConfig) -> Self {
        self.synth = Some(config);
        self
    }

    /// MCTS settings (iterations here are per scenario).
    pub fn mcts(mut self, config: MctsConfig) -> Self {
        self.mcts = config;
        self
    }

    /// Accuracy-proxy settings.
    pub fn proxy(mut self, config: ProxyConfig) -> Self {
        self.proxy = config;
        self
    }

    /// Forces every scenario onto one proxy family instead of auto-detecting
    /// per spec (4-D specs → vision, rank-1/2/3 → sequence/LM).
    ///
    /// [`start`](SearchBuilder::start) still validates each scenario's spec
    /// against the forced family and rejects incompatible ones with a typed
    /// [`SynoError::Proxy`], so the override cannot silently zero rewards.
    pub fn proxy_family(mut self, family: ProxyFamilyId) -> Self {
        self.proxy_family = Some(family);
        self
    }

    /// Devices to tune every candidate for.
    pub fn devices(mut self, devices: Vec<Device>) -> Self {
        self.devices = devices;
        self
    }

    /// Compiler used for the latency column.
    pub fn compiler(mut self, kind: CompilerKind) -> Self {
        self.compiler = kind;
        self
    }

    /// Scenarios searched at once, one thread each (default 2; never more
    /// threads than scenarios).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Evaluator threads for the run (default 1).
    ///
    /// With `n > 1` the run creates one pool of `n` evaluator threads
    /// shared by all its scenarios: candidate evaluation (store lookup →
    /// proxy training → latency tuning) runs there while MCTS keeps
    /// searching under a virtual loss. With `n = 1` each candidate is
    /// evaluated in place on its scenario's search thread. Seeded runs
    /// discover the identical candidate set either way — see the [module
    /// docs](self) for the determinism contract.
    pub fn eval_workers(mut self, workers: usize) -> Self {
        self.eval_workers = workers.max(1);
        self
    }

    /// Evaluates candidates on a shared, long-lived [`EvalPool`] instead of
    /// a pool of the run's own.
    ///
    /// Many concurrent runs handed clones of one pool fan all their
    /// candidate evaluations into its single bounded queue and fixed worker
    /// set — the serving daemon's global evaluation queue. Each run keeps
    /// its own event stream and outcome channel, so the [module
    /// docs](self)' determinism contract holds per run. Overrides
    /// [`eval_workers`](SearchBuilder::eval_workers).
    ///
    /// If the pool is shut down while the run is going, each candidate it
    /// refuses surfaces as a [`SearchEvent::CandidateSkipped`] carrying a
    /// typed [`SynoError::Eval`] — a dead evaluator degrades loudly, never
    /// by silently scoring 0.0.
    pub fn eval_pool(mut self, pool: EvalPool) -> Self {
        self.eval_pool = Some(pool);
        self
    }

    /// Shares an in-flight training [`CoalesceTable`] with other runs.
    ///
    /// Concurrent runs holding clones of one table evaluate each
    /// `(content_hash, ScoreContract)` **once**: the first evaluator
    /// trains (the leader), concurrent duplicates park and replay the
    /// leader's outcome as their own bit-identical
    /// [`SearchEvent::ProxyScored`]/[`SearchEvent::LatencyTuned`] (or
    /// [`SearchEvent::CandidateSkipped`]) events, without journaling a
    /// second copy or accruing a second training's FLOPs. The serving
    /// daemon installs one table across all tenant sessions; in-process
    /// callers can do the same for runs sharing a store. See the
    /// [`coalesce`](crate::coalesce) module docs for the determinism
    /// contract.
    pub fn coalesce_table(mut self, table: CoalesceTable) -> Self {
        self.coalesce = Some(table);
        self
    }

    /// Replaces the whole budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps total MCTS iterations across scenarios.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.budget.max_steps = Some(steps);
        self
    }

    /// Caps cumulative naive FLOPs of scored candidates.
    pub fn max_flops(mut self, flops: u128) -> Self {
        self.budget.max_flops = Some(flops);
        self
    }

    /// Caps wall-clock time.
    pub fn max_wall(mut self, wall: Duration) -> Self {
        self.budget.max_wall = Some(wall);
        self
    }

    /// Uses an externally created token so callers can cancel from another
    /// thread; [`SearchRun::cancel_token`] returns the same token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Emits a [`SearchEvent::Progress`] every `n` iterations (default 10).
    pub fn progress_every(mut self, n: u64) -> Self {
        self.progress_every = n.max(1);
        self
    }

    /// Attaches a persistent candidate [`Store`].
    ///
    /// With a store attached the run (a) consults it before proxy-training
    /// each discovered candidate and emits [`SearchEvent::CacheHit`] with
    /// the recalled evaluation instead of recomputing, (b) journals every
    /// fresh candidate, proxy score, and tuned latency, and (c) journals a
    /// [`Checkpoint`] of each scenario's position every
    /// [`progress_every`](SearchBuilder::progress_every) iterations
    /// (emitting [`SearchEvent::CheckpointWritten`]).
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches `store` *and* resumes interrupted scenarios from their
    /// journaled [`Checkpoint`]s.
    ///
    /// A resumed scenario re-adopts the checkpointed MCTS seed (the
    /// binding field — it keeps the replay aligned even when scenario
    /// ordering, and hence the default per-index seed, changed), so its
    /// deterministic rollout stream replays the interrupted run exactly.
    /// The cheap MCTS iterations of the completed prefix are re-rolled to
    /// rebuild the (unserialized) tree, but **no evaluation is repeated**:
    /// successfully evaluated candidates come back as
    /// [`SearchEvent::CacheHit`]s and journaled proxy *failures* are
    /// skipped from their stored marker, so the prefix costs recall, not
    /// training. The run then continues past where it was killed, and the
    /// final candidate set matches an uninterrupted run of the same
    /// configuration. The checkpoint's `iterations`/`discovered` fields
    /// are informational (progress reporting).
    #[must_use = "resume_from only configures the builder; call .start() or .run() to launch"]
    pub fn resume_from(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self.resume = true;
        self
    }

    /// Validates the configuration and launches the run in the background.
    ///
    /// Each scenario is bound to a proxy family here: auto-detected from
    /// its spec ([`syno_nn::resolve_family`] — 4-D specs go to the vision
    /// family, rank-1/2/3 sequence specs to the sequence/LM family), or
    /// the run-wide [`proxy_family`](SearchBuilder::proxy_family) override
    /// re-validated against every spec.
    ///
    /// # Errors
    ///
    /// [`SynthError::InvalidConfig`] (as [`SynoError::Synth`]) when no
    /// scenario was added; [`SynthError::InvalidSpec`] when a scenario's
    /// shapes do not evaluate under its variable table;
    /// [`SynoError::Proxy`] when no registered proxy family can score a
    /// scenario's spec (the error names the scenario, the families tried,
    /// and the spec ranks seen) — such a search would burn its whole
    /// iteration budget backpropagating zero rewards, so it is rejected
    /// before it runs.
    pub fn start(mut self) -> Result<SearchRun, SynoError> {
        if self.scenarios.is_empty() {
            return Err(SynthError::InvalidConfig("no scenarios added".into()).into());
        }
        let forced = self.proxy_family;
        for s in &mut self.scenarios {
            s.spec.validate(&s.vars).map_err(|e| {
                SynthError::InvalidSpec(format!("scenario '{}': {e}", s.label))
            })?;
            // Bind the scenario to a proxy family up front. Every rollout's
            // reward would hit the same typed error per candidate, but only
            // after the search already spent its iterations — fail fast.
            let resolved = match forced {
                Some(family) => family
                    .family()
                    .validate(&s.spec, &s.vars, 0)
                    .map(|()| family),
                None => resolve_family(&s.spec, &s.vars, 0),
            };
            s.family = Some(resolved.map_err(|e| match e {
                SynoError::Proxy { reason } => {
                    SynoError::proxy(format!("scenario '{}': {reason}", s.label))
                }
                other => other,
            })?);
        }

        let (sender, receiver) = channel();
        let cancel = self.cancel.clone();
        let total = self.mcts.iterations as u64;
        let progress = Arc::new(RunProgress {
            scenarios: self
                .scenarios
                .iter()
                .map(|s| ScenarioProgress::new(&s.label, total))
                .collect(),
            steps: AtomicU64::new(0),
            phases: PhaseNanos::default(),
        });
        let run_progress = Arc::clone(&progress);
        let handle = thread::spawn(move || supervise(self, progress, sender));
        Ok(SearchRun {
            events: receiver,
            cancel,
            progress: run_progress,
            handle,
        })
    }

    /// Convenience: starts the run, drains (and drops) all events, and
    /// returns the final report.
    pub fn run(self) -> Result<SearchReport, SynoError> {
        let run = self.start()?;
        for _event in run.events() {}
        run.join()
    }
}

/// A live streaming search.
///
/// Obtain events through [`events`](SearchRun::events) (an iterator that
/// blocks until the next event and ends when the run finishes), cancel
/// through [`cancel`](SearchRun::cancel), and collect the final
/// [`SearchReport`] with [`join`](SearchRun::join).
#[derive(Debug)]
pub struct SearchRun {
    events: Receiver<SearchEvent>,
    cancel: CancelToken,
    progress: Arc<RunProgress>,
    handle: thread::JoinHandle<SearchReport>,
}

impl SearchRun {
    /// Blocking iterator over the run's events; ends when the run finishes.
    pub fn events(&self) -> impl Iterator<Item = SearchEvent> + '_ {
        self.events.iter()
    }

    /// The run's cancellation token (same token every call).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Live progress counters, shared with the run.
    ///
    /// Returns a borrow of the run's one [`RunProgress`]; every read is an
    /// atomic load, so polling this — even per status frame per client —
    /// neither locks nor allocates. Clone the `Arc` to keep polling after
    /// [`join`](SearchRun::join).
    pub fn progress(&self) -> &Arc<RunProgress> {
        &self.progress
    }

    /// Requests cooperative cancellation; the run stops between pipeline
    /// steps and [`join`](SearchRun::join) returns partial results.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Waits for the run to finish and returns the report.
    ///
    /// # Errors
    ///
    /// [`SynoError::Worker`] when the supervisor thread panicked.
    pub fn join(self) -> Result<SearchReport, SynoError> {
        drop(self.events); // unblock senders if the caller never drained
        self.handle
            .join()
            .map_err(|payload| SynoError::worker(panic_message(payload)))
    }
}

/// What every scenario thread and every candidate job of one run shares:
/// the configuration `start()` validated, and the run's live state.
struct Shared {
    synth: Option<SynthConfig>,
    mcts: MctsConfig,
    proxy: ProxyConfig,
    devices: Vec<Device>,
    compiler: CompilerKind,
    progress_every: u64,
    store: Option<Arc<Store>>,
    resume: bool,
    coalesce: Option<CoalesceTable>,
    /// Where candidate jobs run: the builder's shared pool, else the run's
    /// own (`eval_workers(n ≥ 2)`), else `None` — in place on the search
    /// thread.
    pool: Option<EvalPool>,
    events: Sender<SearchEvent>,
    budget: Budget,
    cancel: CancelToken,
    started: Instant,
    /// Live counters (steps, per-scenario progress) shared with the
    /// caller-facing [`RunProgress`] handle.
    progress: Arc<RunProgress>,
    flops: Mutex<u128>,
    stop: Mutex<Option<StopReason>>,
}

impl Shared {
    /// Records `reason` if the run is not already stopping.
    fn request_stop(&self, reason: StopReason) {
        let mut slot = self.stop.lock().expect("stop lock");
        if slot.is_none() {
            *slot = Some(reason);
        }
    }

    /// Checks cancellation and budgets; records and returns the stop reason.
    fn should_stop(&self) -> Option<StopReason> {
        if let Some(reason) = *self.stop.lock().expect("stop lock") {
            return Some(reason);
        }
        if self.cancel.is_cancelled() {
            self.request_stop(StopReason::Cancelled);
            return Some(StopReason::Cancelled);
        }
        if let Some(max) = self.budget.max_wall {
            if self.started.elapsed() >= max {
                self.request_stop(StopReason::WallClock);
                return Some(StopReason::WallClock);
            }
        }
        if let Some(max) = self.budget.max_steps {
            if self.progress.steps() >= max {
                self.request_stop(StopReason::StepBudget);
                return Some(StopReason::StepBudget);
            }
        }
        if let Some(max) = self.budget.max_flops {
            if *self.flops.lock().expect("flops lock") >= max {
                self.request_stop(StopReason::FlopBudget);
                return Some(StopReason::FlopBudget);
            }
        }
        None
    }

    /// Streams one event; a consumer that went away is not an error.
    fn emit(&self, event: SearchEvent) {
        let _ = self.events.send(event);
    }
}

/// Runs the whole search on the supervisor thread: scenario threads pull
/// scenarios off a shared queue until done or stopped.
fn supervise(
    builder: SearchBuilder,
    progress: Arc<RunProgress>,
    events: Sender<SearchEvent>,
) -> SearchReport {
    let SearchBuilder {
        scenarios,
        synth,
        mcts,
        proxy,
        devices,
        compiler,
        workers,
        eval_workers,
        eval_pool,
        budget,
        cancel,
        progress_every,
        store,
        resume,
        proxy_family: _, // already resolved into each scenario by start()
        coalesce,
    } = builder;

    let own_pool = (eval_pool.is_none() && eval_workers > 1).then(|| EvalPool::new(eval_workers));
    let shared = Arc::new(Shared {
        synth,
        mcts,
        proxy,
        devices,
        compiler,
        progress_every,
        store,
        resume,
        coalesce,
        pool: eval_pool.or_else(|| own_pool.clone()),
        events,
        budget,
        cancel,
        started: Instant::now(),
        progress,
        flops: Mutex::new(0),
        stop: Mutex::new(None),
    });
    let scenario_threads = workers.min(scenarios.len());
    let queue: Mutex<Vec<(usize, Scenario)>> = {
        let mut q: Vec<(usize, Scenario)> = scenarios.into_iter().enumerate().collect();
        q.reverse(); // pop() serves scenario 0 first
        Mutex::new(q)
    };
    let results: Mutex<Vec<Candidate>> = Mutex::new(Vec::new());

    thread::scope(|scope| {
        for _ in 0..scenario_threads {
            scope.spawn(|| loop {
                if shared.should_stop().is_some() {
                    break;
                }
                let next = queue.lock().expect("queue lock").pop();
                let Some((index, scenario)) = next else {
                    break;
                };
                let found = run_scenario(&shared, index, &scenario);
                shared.progress.scenarios[index]
                    .finished
                    .store(true, Ordering::Relaxed);
                let mut all = results.lock().expect("results lock");
                shared.emit(SearchEvent::ScenarioFinished {
                    scenario: index,
                    candidates: found.len(),
                });
                all.extend(found);
            });
        }
    });
    // Every scenario drained its in-flight evaluations before returning, so
    // the run's own evaluator threads are idle: join them.
    if let Some(pool) = own_pool {
        pool.shutdown()
            .expect("a candidate job catches its own panics");
    }

    let mut candidates = results.into_inner().expect("results lock");
    candidates.sort_by(|a, b| {
        b.accuracy
            .partial_cmp(&a.accuracy)
            .expect("accuracies are clamped and finite")
            .then_with(|| a.scenario.cmp(&b.scenario))
    });
    let stopped = shared
        .stop
        .lock()
        .expect("stop lock")
        .unwrap_or(StopReason::Completed);
    let steps = shared.progress.steps();
    let flops = *shared.flops.lock().expect("flops lock");
    let wall = shared.started.elapsed();
    SearchReport {
        candidates,
        stopped,
        steps,
        flops,
        phases: shared.progress.phases.snapshot(wall),
        wall,
    }
}

/// Where a candidate's accuracy came from, which decides how
/// [`EvalContext::deliver`] announces and journals it.
#[derive(PartialEq)]
enum Source {
    /// Recalled from the attached store: one `CacheHit`, no `ProxyScored`.
    Recalled,
    /// This evaluation trained the proxy.
    Trained,
    /// Replayed from another run's in-flight training. That run journals
    /// the evaluation, so this one journals nothing.
    Replayed,
}

/// Everything one candidate evaluation needs. A clone rides inside each
/// `'static` candidate job, so it owns or `Arc`-shares every field.
#[derive(Clone)]
struct EvalContext {
    index: usize,
    /// The proxy family start() bound this scenario to; tags journaled
    /// scores.
    family: ProxyFamilyId,
    /// The family prepared for this scenario's spec, once per run: every
    /// candidate trains on the batches it holds. An `Err` — which `start()`'s
    /// validation rules out — is every candidate's typed skip.
    scorer: Result<Arc<dyn ProxyScorer>, SynoError>,
    shared: Arc<Shared>,
    candidates: Arc<Mutex<Vec<Candidate>>>,
}

impl EvalContext {
    /// This scenario's live progress counters.
    fn progress(&self) -> &ScenarioProgress {
        &self.shared.progress.scenarios[self.index]
    }

    /// Evaluates one discovered candidate, emitting its
    /// `ProxyScored`/`CacheHit`/`LatencyTuned`/`CandidateSkipped` events
    /// (the `CandidateFound` announcement is the submit hook's job, so it
    /// always precedes these regardless of worker scheduling), and returns
    /// the reward to backpropagate.
    fn evaluate(&self, id: u64, graph: &PGraph) -> f64 {
        let _eval_span = syno_telemetry::span!("evaluate", candidate = id);
        syno_telemetry::counter!("syno_search_candidates_total").inc();
        let shared = &*self.shared;
        let contract =
            ScoreContract::new(self.family.name(), shared.proxy.train.exec.reduce_width as u32);
        // Single-flight first: with a shared coalescing table, the first
        // evaluator of this `(hash, contract)` becomes the leader and
        // proceeds (store probe, then training); concurrent duplicates
        // park here and replay the leader's freshly-trained outcome as
        // their own bit-identical events. A leader whose probe recalls a
        // journaled score `release`s the claim instead of publishing, so
        // followers re-probe the store and surface their own `CacheHit` —
        // warm-run semantics are untouched.
        let mut leader = match shared.coalesce.as_ref().map(|t| t.claim(id, &contract)) {
            // Training is deterministic, so the replayed accuracy — or the
            // replayed typed failure — is what a fresh training here would
            // have produced: one training, many observers.
            Some(Claim::Ready(TrainOutcome::Scored { accuracy })) => {
                return self.deliver(id, graph, accuracy, Source::Replayed);
            }
            Some(Claim::Ready(TrainOutcome::Failed(error))) => {
                return self.skip(id, "proxy", error);
            }
            Some(Claim::Leader(guard)) => Some(guard),
            None => None,
        };
        // Store second: a journaled evaluation makes proxy training (and
        // usually latency tuning) unnecessary — the cross-run analogue
        // of the paper's canonical-form dedup within a run. A score is
        // only served when its journaled family tag matches the
        // scenario's family (content hashes cover the spec, so a mismatch
        // cannot happen through the normal pipeline — this guards against
        // hand-edited or cross-version journals) *and* it was computed
        // under this run's reduction-tree width (the width fixes the FP
        // summation order, so a score from another width is a different
        // value — re-evaluated, not served).
        if let Some(store) = shared.store.as_deref() {
            let span = syno_telemetry::span!("store_lookup", candidate = id);
            let recalled = store.score_for_contract(id, &contract);
            shared.progress.phases.add_store(span.elapsed());
            drop(span);
            if let Some(accuracy) = recalled {
                if let Some(guard) = leader.take() {
                    guard.release();
                }
                // NaN is the journaled-failure marker: this candidate's
                // proxy training failed in a previous run, and it fails
                // deterministically — skip without re-training.
                if accuracy.is_nan() {
                    let error = SynoError::proxy("proxy failure recalled from store");
                    return self.skip(id, "recalled", error);
                }
                return self.deliver(id, graph, accuracy, Source::Recalled);
            }
        }

        // A proxy panic is this candidate's deterministic result, not an
        // accident of the run: catch it here, so that it is published and
        // journaled as the typed failure it is. (None is known to occur: a
        // candidate the tape cannot differentiate is `EagerError`'s typed
        // `DiagonalWeight`, an `Err` from `score`.)
        let scored = {
            let span = syno_telemetry::span!("proxy_train", candidate = id);
            // The acceptance counter for coalescing: incremented only when
            // a training actually runs, never on recalls or replays.
            syno_telemetry::counter!("syno_search_proxy_train_total").inc();
            let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.scorer.as_ref().map_err(SynoError::clone)?.score(graph)
            }))
            .unwrap_or_else(|payload| Err(SynoError::proxy(panic_message(payload))))
            .map(|accuracy| f64::from(accuracy).clamp(0.0, 1.0));
            shared.progress.phases.add_eval(span.elapsed());
            scored
        };
        // Publish before journaling: parked followers replay from the memo,
        // not the store, so they never wait on I/O. Failures train
        // deterministically too: followers replay the identical typed skip
        // instead of re-failing.
        if let Some(guard) = leader.take() {
            guard.publish(match &scored {
                Ok(accuracy) => TrainOutcome::Scored {
                    accuracy: *accuracy,
                },
                Err(error) => TrainOutcome::Failed(error.clone()),
            });
        }
        if let Some(store) = shared.store.as_deref() {
            // Journal best-effort: a full disk degrades the run to
            // cache-less, it does not kill it. A failure is journaled as
            // the NaN marker, so resumed runs skip this candidate instead
            // of re-training it.
            let span = syno_telemetry::span!("store_append", candidate = id);
            let _ = store.put_candidate(id, graph);
            let _ = store.put_score(id, *scored.as_ref().unwrap_or(&f64::NAN), &contract);
            shared.progress.phases.add_store(span.elapsed());
        }
        match scored {
            Ok(accuracy) => {
                if let Some(flops) = syno_core::analysis::naive_flops(graph, 0) {
                    let mut total = shared.flops.lock().expect("flops lock");
                    *total = total.saturating_add(flops);
                }
                self.deliver(id, graph, accuracy, Source::Trained)
            }
            Err(error) => self.skip(id, "proxy", error),
        }
    }

    /// Prices a candidate whose accuracy is known, streams and records it,
    /// and returns the accuracy as the reward.
    ///
    /// Latency tuning happens right here, not in a later pass: the
    /// candidate is complete in the stream, and a cancelled run keeps every
    /// candidate it has announced.
    fn deliver(&self, id: u64, graph: &PGraph, accuracy: f64, source: Source) -> f64 {
        let shared = &*self.shared;
        let scenario = self.index;
        let recalled = source == Source::Recalled;
        if !recalled {
            shared.emit(SearchEvent::ProxyScored {
                scenario,
                id,
                accuracy,
            });
        }
        self.progress().discovered.fetch_add(1, Ordering::Relaxed);
        let compiler = shared.compiler;
        let store = shared.store.as_deref();
        let stored = match store {
            Some(store) if recalled => {
                let device_names: Vec<&str> = shared.devices.iter().map(|d| d.name).collect();
                store.latencies(id, &device_names, compiler.name())
            }
            _ => None,
        };
        let latencies = match stored {
            Some(latencies) => latencies,
            // Not recalled — or scored in a previous run but tuned for
            // different devices: reuse the accuracy, tune the latency.
            None => {
                let span = syno_telemetry::span!("latency_tune", candidate = id);
                let tuned = tune_latencies(graph, &shared.devices, compiler);
                shared.progress.phases.add_tune(span.elapsed());
                drop(span);
                let latencies = match tuned {
                    Ok(latencies) => latencies,
                    Err(error) => {
                        self.skip(id, "tune", error);
                        return accuracy;
                    }
                };
                if let (Some(store), true) = (store, source != Source::Replayed) {
                    for (device, latency) in shared.devices.iter().zip(&latencies) {
                        let _ = store.put_latency(id, device.name, compiler.name(), *latency);
                    }
                }
                latencies
            }
        };
        let candidate = Candidate {
            scenario,
            graph: graph.clone(),
            accuracy,
            flops: syno_core::analysis::naive_flops(graph, 0).unwrap_or(u128::MAX),
            params: syno_core::analysis::parameter_count(graph, 0).unwrap_or(u128::MAX),
            latencies,
        };
        if let (Some(store), true) = (store, recalled) {
            // Counted only now, when the recall is actually served:
            // stats.cache_hits == CacheHit events.
            store.record_hit();
            syno_telemetry::counter!("syno_search_cache_hits_total").inc();
        }
        // Counters advance before the event is emitted, so a status poll
        // racing the stream never undercounts what the consumer already saw.
        self.progress().candidates.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .lock()
            .expect("candidates lock")
            .push(candidate.clone());
        shared.emit(if recalled {
            SearchEvent::CacheHit {
                scenario,
                id,
                candidate,
            }
        } else {
            SearchEvent::LatencyTuned {
                scenario,
                id,
                candidate,
            }
        });
        accuracy
    }

    /// The one way a candidate is dropped: counts it under
    /// `syno_search_skips_total{reason="…"}`, streams the typed
    /// `CandidateSkipped`, and returns the skip's reward, 0.0.
    ///
    /// Reasons: `recalled` (a journaled proxy failure), `proxy` (training
    /// failed or panicked, here or in the run this one coalesced with),
    /// `tune` (the compiler rejected it), `panic` (anything else in its job
    /// panicked), `lost` (the evaluator pool refused or dropped its job).
    fn skip(&self, id: u64, reason: &str, error: SynoError) -> f64 {
        let series = labeled("syno_search_skips_total", &[("reason", reason)]);
        syno_telemetry::metrics::global().counter(&series).inc();
        self.shared.emit(SearchEvent::CandidateSkipped {
            scenario: self.index,
            id,
            error,
        });
        0.0
    }
}

/// Synthesize → proxy-train → latency-tune for one scenario, streaming
/// events and pricing each distinct candidate as soon as it is scored.
///
/// With a store attached, every evaluation consults the journal first
/// (cache hits skip proxy training entirely) and the scenario's position is
/// checkpointed alongside each progress heartbeat. In resume mode the
/// journaled checkpoint's seed is re-adopted so the deterministic rollout
/// stream replays the interrupted run. The store keeps its single-writer
/// discipline at any width: every job shares the one process-locked
/// [`Store`], whose internal mutex serializes journal appends.
fn run_scenario(shared: &Arc<Shared>, index: usize, scenario: &Scenario) -> Vec<Candidate> {
    let config = shared
        .synth
        .clone()
        .unwrap_or_else(|| SynthConfig::auto(&scenario.vars, 4));
    let enumerator = Enumerator::new(config);
    let root = PGraph::new(Arc::clone(&scenario.vars), scenario.spec.clone());
    let fingerprint = scenario.spec.fingerprint(&scenario.vars);
    let store = shared.store.as_deref();
    // Distinct seeds keep concurrent scenarios on distinct rollout streams;
    // a resumed scenario re-adopts its journaled seed so the deterministic
    // replay matches the interrupted run.
    let base_seed = shared.mcts.seed.wrapping_add(index as u64);
    let resumed_from = store
        .filter(|_| shared.resume)
        .and_then(|s| s.checkpoint(&scenario.label, fingerprint));
    let seed = resumed_from.as_ref().map_or(base_seed, |cp| cp.seed);
    // Journal the run's lifecycle into the repository's operation log so
    // this scenario's candidate collection has lineage. On resume, the op
    // log tells the continuation what it is continuing from (the newest
    // prior operation for this scenario, if any).
    if let Some(store) = store {
        let op = match &resumed_from {
            Some(cp) => {
                let prior = store
                    .last_operation(&scenario.label, fingerprint)
                    .map_or_else(String::new, |op| format!(" after {op}"));
                store.log_operation(
                    OpKind::RunResumed,
                    &scenario.label,
                    fingerprint,
                    format!("seed {seed} from iteration {}{prior}", cp.iterations),
                )
            }
            None => store.log_operation(
                OpKind::RunStarted,
                &scenario.label,
                fingerprint,
                format!("seed {seed}"),
            ),
        };
        let _ = op; // best-effort, like every journal append on the hot path
    }
    let mut mcts = Mcts::new(enumerator, MctsConfig { seed, ..shared.mcts });

    let total_iterations = shared.mcts.iterations as u64;
    let progress = &shared.progress.scenarios[index];
    // A missing family is a programming error (an internal caller bypassed
    // start()); failing loudly beats silently burning the iteration budget
    // on a family that rejects every candidate.
    let family = scenario
        .family
        .expect("start() resolves a proxy family for every scenario");
    let eval = EvalContext {
        index,
        family,
        scorer: family
            .family()
            .prepare(&scenario.spec, &scenario.vars, 0, &shared.proxy),
        shared: Arc::clone(shared),
        candidates: Arc::default(),
    };

    // Journals the scenario's position, so `resume_from` knows where it got
    // to (and that a completed scenario replays as hits, not trainings).
    let checkpoint = |iterations: u64, note: &str| {
        let Some(store) = store else { return };
        let written = store.put_checkpoint(&Checkpoint {
            label: scenario.label.clone(),
            spec_fingerprint: fingerprint,
            seed,
            iterations,
            discovered: progress.discovered(),
        });
        if written.is_ok() {
            let _ = store.log_operation(
                OpKind::Checkpoint,
                &scenario.label,
                fingerprint,
                format!("iteration {iterations}{note}"),
            );
            shared.emit(SearchEvent::CheckpointWritten {
                scenario: index,
                iterations,
            });
        }
    };

    let keep_going = |iteration: u64| {
        if shared.should_stop().is_some() {
            return false;
        }
        shared.progress.steps.fetch_add(1, Ordering::Relaxed);
        progress.iterations.store(iteration + 1, Ordering::Relaxed);
        if iteration > 0 && iteration.is_multiple_of(shared.progress_every) {
            shared.emit(SearchEvent::Progress {
                scenario: index,
                iterations: iteration,
                total_iterations,
                discovered: progress.discovered(),
            });
            checkpoint(iteration, "");
        }
        true
    };

    let (outcome_tx, outcome_rx) = channel::<EvalOutcome>();
    mcts.search_async_while(
        &root,
        |EvalRequest { id, graph }| {
            // Announced from the search thread, so it precedes the
            // candidate's evaluation events however jobs are scheduled.
            shared.emit(SearchEvent::CandidateFound {
                scenario: index,
                id,
                graph: graph.clone(),
            });
            let guard = OutcomeGuard {
                eval: eval.clone(),
                id,
                outcome_tx: outcome_tx.clone(),
                done: false,
            };
            // One job owns the candidate end to end, keeping its event
            // subsequence in pipeline order. It MUST resolve to an outcome:
            // a panic that escaped the evaluation (e.g. from latency
            // tuning) would otherwise lose its reward and leave the
            // engine's drain waiting forever, so it is demoted to a typed
            // skip like any other per-candidate failure.
            let job = move || {
                let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    guard.eval.evaluate(id, &graph)
                }));
                let reward = evaluated.unwrap_or_else(|payload| {
                    let error = SynoError::worker(panic_message(payload));
                    guard.eval.skip(id, "panic", error)
                });
                guard.complete(reward);
            };
            match &shared.pool {
                // A refused submission drops the job, so the guard has
                // already sent the skip event and the 0.0 outcome (which
                // the engine discards as stale — it records the refusal
                // itself).
                Some(pool) => pool.submit(Box::new(job)),
                None => {
                    job();
                    true
                }
            }
        },
        &outcome_rx,
        keep_going,
    );

    // Fold the engine-side timings (selection + rollout synthesis, both
    // measured inside the engine loop) into the run's phase accounting.
    shared
        .progress
        .phases
        .add_synth_ns(mcts.stats.select_ns + mcts.stats.rollout_ns);

    checkpoint(progress.iterations(), " (final)");

    // Pool workers may still be tearing down their job closures (each
    // holds a clone of the Arc), but every evaluation that completed has
    // already pushed — the search does not return before its outcomes
    // drained — so taking the vector here loses nothing.
    let found = std::mem::take(&mut *eval.candidates.lock().expect("candidates lock"));

    // Journal the run's candidate collection as a named set, keyed by the
    // scenario label: the unit the derive algebra (union / intersection /
    // difference of two runs' discoveries) operates on. The set is
    // canonicalized (sorted + deduped hashes), so the same discoveries
    // always journal the same bytes regardless of evaluation order.
    if let Some(store) = store {
        let hashes: Vec<u64> = found.iter().map(|c| c.graph.content_hash()).collect();
        let set = CandidateSet::new(
            scenario.label.clone(),
            format!("run:{}", scenario.label),
            hashes,
        );
        let _ = store.put_set(&set);
    }
    found
}

/// Sends the one [`EvalOutcome`] its candidate is owed, no matter how the
/// job ends.
///
/// Armed at submission; [`complete`](OutcomeGuard::complete) reports a real
/// reward. If the job is instead *dropped* unrun — the pool was shut down
/// and refused the submission — `Drop` surfaces the loss as a typed
/// [`SynoError::Eval`] through the event stream and reports reward 0.0, so
/// the engine's drain never deadlocks and the tenant sees exactly which
/// candidates a dying evaluator took with it.
struct OutcomeGuard {
    eval: EvalContext,
    id: u64,
    outcome_tx: Sender<EvalOutcome>,
    done: bool,
}

impl OutcomeGuard {
    fn complete(mut self, reward: f64) {
        self.done = true;
        let _ = self.outcome_tx.send(EvalOutcome {
            id: self.id,
            reward,
        });
    }
}

impl Drop for OutcomeGuard {
    fn drop(&mut self) {
        if !self.done {
            let error = SynoError::eval(
                "candidate evaluation lost: the evaluator pool shut down before the \
                 candidate was evaluated",
            );
            let reward = self.eval.skip(self.id, "lost", error);
            let _ = self.outcome_tx.send(EvalOutcome {
                id: self.id,
                reward,
            });
        }
    }
}

/// Tunes one candidate on every device.
fn tune_latencies(
    graph: &PGraph,
    devices: &[Device],
    compiler: CompilerKind,
) -> Result<Vec<f64>, SynoError> {
    // Profile once (lowering enumerates materialization plans — the
    // expensive part), then compile the shared profile per device.
    let profile = syno_compiler::profile_graph(graph, 0, OperatorClass::Novel, "candidate")?;
    Ok(devices
        .iter()
        .map(|device| syno_compiler::compile(&profile, device, compiler, DType::F32).latency)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use syno_core::prelude::*;
    use syno_nn::TrainConfig;

    /// The 1-D pooling spec PR 3 rejected at `start()`; the sequence
    /// family now scores it.
    fn pool_scenario() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        (vars, spec)
    }

    /// A `[B, T, C] → [B, T, C]` sequence spec — the LM-workload analogue
    /// of [`conv_scenario`], scored by the sequence/LM proxy family.
    fn lm_scenario() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let b = vars.declare("B", VarKind::Primary);
        let t = vars.declare("T", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
            TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
        );
        (vars, spec)
    }

    /// No registered family scores rank 5.
    fn unscorable_scenario() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        vars.push_valuation(vec![(h, 4)]);
        let vars = vars.into_shared();
        let dims = vec![Size::var(h); 5];
        let spec = OperatorSpec::new(
            TensorShape::new(dims.clone()),
            TensorShape::new(dims),
        );
        (vars, spec)
    }

    /// A tiny 4-D conv-like scenario the vision proxy can actually score.
    fn conv_scenario() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![
                Size::var(n),
                Size::var(cin),
                Size::var(h),
                Size::var(w),
            ]),
            TensorShape::new(vec![
                Size::var(n),
                Size::var(cout),
                Size::var(h),
                Size::var(w),
            ]),
        );
        (vars, spec)
    }

    fn quick_proxy() -> ProxyConfig {
        ProxyConfig {
            train: TrainConfig {
                steps: 2,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        }
    }

    #[test]
    fn builder_without_scenarios_is_a_typed_error() {
        let err = SearchBuilder::new().start().expect_err("must fail");
        assert!(matches!(
            err,
            SynoError::Synth(SynthError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_scenario_spec_is_a_typed_error() {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let vars = vars.into_shared(); // no valuations pushed
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h)]),
        );
        let err = SearchBuilder::new()
            .scenario("bad", &vars, &spec)
            .start()
            .expect_err("must fail");
        assert!(matches!(err, SynoError::Synth(SynthError::InvalidSpec(_))));
    }

    #[test]
    fn events_stream_in_pipeline_order_per_candidate() {
        let (vars, spec) = conv_scenario();
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 25,
                seed: 2,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .progress_every(5)
            .start()
            .unwrap();

        let events: Vec<SearchEvent> = run.events().collect();
        let mut seen_found = std::collections::HashSet::new();
        let mut seen_scored = std::collections::HashSet::new();
        let mut tuned = 0usize;
        for event in &events {
            match event {
                SearchEvent::CandidateFound { id, .. } => {
                    assert!(seen_found.insert(*id), "duplicate CandidateFound for {id}");
                }
                SearchEvent::ProxyScored { id, .. } => {
                    assert!(seen_found.contains(id), "scored before found");
                    seen_scored.insert(*id);
                }
                SearchEvent::LatencyTuned { id, candidate, .. } => {
                    assert!(seen_scored.contains(id), "tuned before scored");
                    assert!(candidate.graph.is_complete());
                    tuned += 1;
                }
                _ => {}
            }
        }
        assert!(tuned > 0, "conv scenario must produce tuned candidates");

        let report = run.join().unwrap();
        assert_eq!(report.stopped, StopReason::Completed);
        assert_eq!(report.candidates.len(), tuned);
        assert!(report.steps > 0);
    }

    #[test]
    fn cancellation_stops_early_with_partial_results() {
        let (vars, spec) = conv_scenario();
        let token = CancelToken::new();
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 100_000,
                seed: 3,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .cancel_token(token.clone())
            .start()
            .unwrap();

        // Cancel as soon as the first candidate is fully through the
        // pipeline; the run must wind down and keep what it announced.
        let mut tuned_before_cancel = 0usize;
        for event in run.events() {
            if let SearchEvent::LatencyTuned { .. } = event {
                tuned_before_cancel += 1;
                if !token.is_cancelled() {
                    token.cancel();
                }
            }
        }
        let report = run.join().unwrap();
        assert_eq!(report.stopped, StopReason::Cancelled);
        assert!(tuned_before_cancel >= 1);
        assert_eq!(report.candidates.len(), tuned_before_cancel);
        assert!(
            report.steps < 100_000,
            "cancellation must cut the run short ({} steps)",
            report.steps
        );
    }

    #[test]
    fn step_budget_bounds_total_iterations() {
        let (vars, spec) = conv_scenario();
        let report = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 100_000,
                seed: 4,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .max_steps(30)
            .run()
            .unwrap();
        assert_eq!(report.stopped, StopReason::StepBudget);
        assert!(report.steps >= 30 && report.steps < 40, "{}", report.steps);
    }

    /// A spec no proxy family can score (here rank 5) must be rejected at
    /// `start()` with a typed error naming the scenario, every family
    /// tried, and the rank seen — instead of burning the whole iteration
    /// budget on zero rewards.
    #[test]
    fn unscorable_spec_is_rejected_at_start() {
        let (vars, spec) = unscorable_scenario();
        let err = SearchBuilder::new()
            .scenario("weird", &vars, &spec)
            .start()
            .expect_err("rank-5 specs are unscorable and must fail fast");
        match err {
            SynoError::Proxy { reason } => {
                assert!(reason.contains("weird"), "names the scenario: {reason}");
                assert!(reason.contains("vision"), "names the vision family: {reason}");
                assert!(reason.contains("sequence"), "names the sequence family: {reason}");
                assert!(reason.contains("rank 5"), "states the rank seen: {reason}");
            }
            other => panic!("expected SynoError::Proxy, got {other:?}"),
        }
    }

    /// The `proxy_family` override is re-validated per scenario: forcing
    /// the vision family onto a 1-D spec fails fast instead of zeroing
    /// every reward.
    #[test]
    fn family_override_is_validated_against_the_spec() {
        let (vars, spec) = pool_scenario();
        let err = SearchBuilder::new()
            .scenario("pool", &vars, &spec)
            .proxy_family(syno_nn::ProxyFamilyId::Vision)
            .start()
            .expect_err("vision cannot score a 1-D spec");
        assert!(matches!(err, SynoError::Proxy { .. }), "{err}");

        // The matching override works like auto-detection.
        let run = SearchBuilder::new()
            .scenario("pool", &vars, &spec)
            .proxy_family(syno_nn::ProxyFamilyId::Sequence)
            .mcts(MctsConfig {
                iterations: 3,
                seed: 1,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .start()
            .expect("sequence override accepts the 1-D spec");
        run.join().unwrap();
    }

    /// The headline of the family registry: the 1-D pooling spec that
    /// PR 3's `start()` rejected now runs search end-to-end and produces
    /// scored candidates through the sequence family.
    #[test]
    fn pool_scenario_now_searches_end_to_end() {
        let (vars, spec) = pool_scenario();
        let run = SearchBuilder::new()
            .scenario("pool", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 12,
                seed: 2,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .start()
            .expect("1-D specs are scorable now");
        let events: Vec<SearchEvent> = run.events().collect();
        let scored: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                SearchEvent::ProxyScored { accuracy, .. } => Some(*accuracy),
                _ => None,
            })
            .collect();
        assert!(!scored.is_empty(), "pool search must score candidates");
        assert!(
            scored.iter().any(|&a| a > 0.0),
            "sequence proxy must produce nonzero rewards: {scored:?}"
        );
        let report = run.join().unwrap();
        assert_eq!(report.stopped, StopReason::Completed);
        assert!(!report.candidates.is_empty());
    }

    /// Vision and LM scenarios run side by side in one multi-scenario
    /// search, each scored by its own family.
    #[test]
    fn mixed_vision_and_lm_scenarios_run_concurrently() {
        let (conv_vars, conv_spec) = conv_scenario();
        let (lm_vars, lm_spec) = lm_scenario();
        let report = SearchBuilder::new()
            .scenario("conv", &conv_vars, &conv_spec)
            .scenario("lm", &lm_vars, &lm_spec)
            .mcts(MctsConfig {
                iterations: 10,
                seed: 5,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .workers(2)
            .run()
            .unwrap();
        let scenarios: std::collections::HashSet<usize> =
            report.candidates.iter().map(|c| c.scenario).collect();
        assert!(
            scenarios.contains(&0) && scenarios.contains(&1),
            "both families must contribute candidates: {scenarios:?}"
        );
    }

    #[test]
    fn scenarios_run_concurrently_and_tag_results() {
        let (vars, spec) = conv_scenario();
        let report = SearchBuilder::new()
            .scenario("conv-a", &vars, &spec)
            .scenario("conv-b", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 20,
                seed: 5,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .workers(2)
            .run()
            .unwrap();
        let scenarios: std::collections::HashSet<usize> =
            report.candidates.iter().map(|c| c.scenario).collect();
        assert!(scenarios.contains(&0) && scenarios.contains(&1), "{scenarios:?}");
        for pair in report.candidates.windows(2) {
            assert!(pair[0].accuracy >= pair[1].accuracy);
        }
    }

    #[test]
    fn warm_store_serves_cache_hits_without_retraining() {
        let dir = std::env::temp_dir().join(format!("syno-run-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (vars, spec) = conv_scenario();
        let mcts = MctsConfig {
            iterations: 15,
            seed: 9,
            ..MctsConfig::default()
        };

        let store = Arc::new(syno_store::StoreBuilder::new(&dir).open().unwrap());
        let cold = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(mcts)
            .proxy(quick_proxy())
            .store(Arc::clone(&store))
            .start()
            .unwrap();
        let mut cold_scored = std::collections::HashSet::new();
        let mut cold_checkpoints = 0usize;
        for event in cold.events() {
            match event {
                SearchEvent::ProxyScored { id, .. } => {
                    cold_scored.insert(id);
                }
                SearchEvent::CacheHit { .. } => panic!("cold run cannot hit the cache"),
                SearchEvent::CheckpointWritten { .. } => cold_checkpoints += 1,
                _ => {}
            }
        }
        let cold_report = cold.join().unwrap();
        assert!(!cold_scored.is_empty());
        assert!(cold_checkpoints > 0, "store runs must journal checkpoints");

        // Same scenario, same store, fresh process state: every evaluation
        // must come back from the journal — zero duplicate proxy trainings.
        drop(store);
        let store = Arc::new(syno_store::StoreBuilder::new(&dir).open().unwrap());
        let warm = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(mcts)
            .proxy(quick_proxy())
            .store(Arc::clone(&store))
            .start()
            .unwrap();
        let mut hits = 0usize;
        for event in warm.events() {
            match event {
                SearchEvent::ProxyScored { id, .. } => {
                    assert!(
                        !cold_scored.contains(&id),
                        "candidate {id:#x} was re-trained despite a warm store"
                    );
                }
                SearchEvent::CacheHit { id, candidate, .. } => {
                    assert!(cold_scored.contains(&id), "hit for unknown candidate");
                    assert!(candidate.latencies.iter().all(|l| l.is_finite()));
                    hits += 1;
                }
                _ => {}
            }
        }
        let warm_report = warm.join().unwrap();
        assert!(hits >= 1, "warm run must recall from the store");
        assert_eq!(
            store.stats().cache_hits,
            hits as u64,
            "store hit counter and events agree"
        );
        // Deterministic replay: the warm run rediscovers the same set.
        let ids = |r: &SearchReport| {
            let mut v: Vec<u64> = r.candidates.iter().map(|c| c.graph.content_hash()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&cold_report), ids(&warm_report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_clock_budget_stops_the_run() {
        let (vars, spec) = conv_scenario();
        let report = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 1_000_000,
                seed: 6,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .max_wall(Duration::from_millis(200))
            .run()
            .unwrap();
        assert_eq!(report.stopped, StopReason::WallClock);
        assert!(report.wall < Duration::from_secs(30));
    }

    /// The event-kind subsequence each candidate produced, in stream order
    /// (pipeline heartbeats and scenario bookkeeping excluded).
    fn per_candidate_sequences(
        events: &[SearchEvent],
    ) -> std::collections::HashMap<u64, Vec<&'static str>> {
        let mut map: std::collections::HashMap<u64, Vec<&'static str>> =
            std::collections::HashMap::new();
        for event in events {
            let (id, kind) = match event {
                SearchEvent::CandidateFound { id, .. } => (*id, "found"),
                SearchEvent::ProxyScored { id, .. } => (*id, "scored"),
                SearchEvent::CacheHit { id, .. } => (*id, "hit"),
                SearchEvent::LatencyTuned { id, .. } => (*id, "tuned"),
                SearchEvent::CandidateSkipped { id, .. } => (*id, "skipped"),
                _ => continue,
            };
            map.entry(id).or_default().push(kind);
        }
        map
    }

    /// The determinism contract, checked against the reference outside
    /// this module: at every width, and for two concurrent runs on one
    /// shared pool, a seeded run reports exactly the `(content_hash,
    /// accuracy bits)` set that `Mcts::search` reaches when driven with the
    /// same family score, and every candidate streams the event
    /// subsequence that score implies — only cross-candidate interleaving
    /// may differ.
    #[test]
    fn every_width_and_a_shared_pool_match_the_reference_search() {
        let (vars, spec) = conv_scenario();
        let mcts = MctsConfig {
            iterations: 25,
            seed: 2,
            ..MctsConfig::default()
        };
        let proxy = quick_proxy();

        let family = resolve_family(&spec, &vars, 0).unwrap().family();
        let mut expected_set: Vec<(u64, u64)> = Vec::new();
        let mut expected_seq = std::collections::HashMap::new();
        let mut reference = Mcts::new(Enumerator::new(SynthConfig::auto(&vars, 4)), mcts);
        reference.search(&PGraph::new(Arc::clone(&vars), spec.clone()), |graph| {
            let id = graph.content_hash();
            match family.score(graph, 0, &proxy) {
                Ok(accuracy) => {
                    let accuracy = f64::from(accuracy).clamp(0.0, 1.0);
                    expected_set.push((id, accuracy.to_bits()));
                    expected_seq.insert(id, vec!["found", "scored", "tuned"]);
                    accuracy
                }
                Err(_) => {
                    expected_seq.insert(id, vec!["found", "skipped"]);
                    0.0
                }
            }
        });
        expected_set.sort_unstable();
        assert!(!expected_set.is_empty());

        let pool = EvalPool::new(3);
        let exec_threads = |threads| ProxyConfig {
            train: TrainConfig {
                exec: syno_nn::ExecPolicy::with_threads(threads),
                ..proxy.train
            },
            ..proxy
        };
        let start = |name: &str, place: &dyn Fn(SearchBuilder) -> SearchBuilder| {
            let builder = SearchBuilder::new()
                .scenario("conv", &vars, &spec)
                .mcts(mcts)
                .proxy(proxy);
            (name.to_owned(), place(builder).start().unwrap())
        };
        let runs = [
            start("eval_workers(1)", &|b| b.eval_workers(1)),
            start("eval_workers(2)", &|b| b.eval_workers(2)),
            start("eval_workers(4)", &|b| b.eval_workers(4)),
            // Two concurrent runs share the one pool — the daemon's shape.
            start("shared pool, first run", &|b| b.eval_pool(pool.clone())),
            start("shared pool, second run", &|b| b.eval_pool(pool.clone())),
            // `exec_threads` shards loops without ever moving a score bit.
            start("exec_threads(2)", &|b| b.proxy(exec_threads(2))),
            start("exec_threads(4)", &|b| b.proxy(exec_threads(4))),
        ];
        for (name, run) in runs {
            let events: Vec<SearchEvent> = run.events().collect();
            let report = run.join().unwrap();
            assert_eq!(report.stopped, StopReason::Completed, "{name}");
            assert_eq!(report.steps, 25, "{name}");
            let mut set: Vec<(u64, u64)> = report
                .candidates
                .iter()
                .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
                .collect();
            set.sort_unstable();
            assert_eq!(set, expected_set, "{name}");
            assert_eq!(per_candidate_sequences(&events), expected_seq, "{name}");
        }
        pool.shutdown().expect("no evaluation panicked");
    }

    /// Cancelling a pipelined run must drain in-flight evaluations
    /// cleanly: every announced candidate still reaches a terminal event
    /// (tuned or skipped) and the report keeps everything announced.
    #[test]
    fn eval_pipeline_cancellation_drains_in_flight() {
        let (vars, spec) = conv_scenario();
        let token = CancelToken::new();
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 100_000,
                seed: 3,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .eval_workers(3)
            .cancel_token(token.clone())
            .start()
            .unwrap();

        let mut events = Vec::new();
        for event in run.events() {
            if let SearchEvent::LatencyTuned { .. } = event {
                if !token.is_cancelled() {
                    token.cancel();
                }
            }
            events.push(event);
        }
        let report = run.join().unwrap();
        assert_eq!(report.stopped, StopReason::Cancelled);
        assert!(
            report.steps < 100_000,
            "cancellation must cut the run short ({} steps)",
            report.steps
        );

        let sequences = per_candidate_sequences(&events);
        assert!(!sequences.is_empty());
        let mut tuned = 0usize;
        for (id, seq) in &sequences {
            assert_eq!(seq[0], "found", "candidate {id:#x}: {seq:?}");
            let terminal = seq.last().unwrap();
            assert!(
                *terminal == "tuned" || *terminal == "skipped" || *terminal == "hit",
                "candidate {id:#x} was announced but never finished: {seq:?}"
            );
            if *terminal == "tuned" {
                tuned += 1;
            }
        }
        assert!(tuned >= 1);
        assert_eq!(
            report.candidates.len(),
            tuned,
            "a cancelled pipelined run keeps exactly what it finished"
        );
    }

    /// A pool shut down mid-run must degrade loudly: every candidate whose
    /// evaluation was lost surfaces a typed `SynoError::Eval` through the
    /// event stream instead of silently scoring 0.0.
    #[test]
    fn dead_pool_surfaces_typed_eval_errors() {
        let (vars, spec) = conv_scenario();
        let pool = EvalPool::new(1);
        pool.shutdown().expect("no evaluation panicked");
        // Every skip is counted by reason. Other tests of this binary run
        // while telemetry is on and may skip candidates too, but only a
        // dead pool loses them, so the `lost` series is this run's alone.
        let _telemetry = syno_telemetry::metrics::test_lock();
        let lost = syno_telemetry::metrics::global()
            .counter(&labeled("syno_search_skips_total", &[("reason", "lost")]));
        let lost_before = lost.get();
        syno_telemetry::set_enabled(true);
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 10,
                seed: 2,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .eval_pool(pool)
            .start()
            .unwrap();
        let events: Vec<SearchEvent> = run.events().collect();
        syno_telemetry::set_enabled(false);
        let skips: Vec<&SynoError> = events
            .iter()
            .filter_map(|e| match e {
                SearchEvent::CandidateSkipped { error, .. } => Some(error),
                _ => None,
            })
            .collect();
        assert!(!skips.is_empty(), "a dead pool must report lost candidates");
        assert_eq!(
            lost.get() - lost_before,
            skips.len() as u64,
            "every streamed skip is counted"
        );
        for error in &skips {
            assert!(
                matches!(error, SynoError::Eval { .. }),
                "lost evaluations carry SynoError::Eval, got {error:?}"
            );
        }
        // Every announced candidate still reaches a terminal event.
        for (id, seq) in per_candidate_sequences(&events) {
            assert_eq!(seq.first(), Some(&"found"), "candidate {id:#x}: {seq:?}");
            assert_eq!(seq.last(), Some(&"skipped"), "candidate {id:#x}: {seq:?}");
        }
        let report = run.join().unwrap();
        assert!(report.candidates.is_empty());
    }

    /// `SearchRun::progress` exposes live counters without cloning: the
    /// handle is the same `Arc` throughout, counters advance while the run
    /// streams, and the final values agree with the report.
    #[test]
    fn progress_counters_track_the_run_allocation_free() {
        let (vars, spec) = conv_scenario();
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 20,
                seed: 2,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .start()
            .unwrap();
        let progress = Arc::clone(run.progress());
        assert_eq!(progress.scenarios().len(), 1);
        assert_eq!(progress.scenarios()[0].label(), "conv");
        assert_eq!(progress.scenarios()[0].total_iterations(), 20);
        assert!(Arc::ptr_eq(&progress, run.progress()), "same Arc every poll");

        let mut tuned = 0u64;
        for event in run.events() {
            if let SearchEvent::LatencyTuned { .. } = event {
                tuned += 1;
                assert!(
                    progress.scenarios()[0].candidates() >= tuned,
                    "candidate counter advances with the stream"
                );
            }
        }
        let report = run.join().unwrap();
        assert!(progress.finished());
        assert_eq!(progress.steps(), report.steps);
        assert_eq!(
            progress.scenarios()[0].candidates() as usize,
            report.candidates.len()
        );
        assert!(progress.scenarios()[0].discovered() >= tuned);
    }
}
