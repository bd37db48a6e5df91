//! The streaming search driver: `SearchBuilder` → [`SearchRun`].
//!
//! Algorithm 1 is a long-running, interruptible pipeline (synthesize →
//! proxy-train → latency-tune). A builder-configured run
//!
//! * streams [`SearchEvent`]s over a channel as the pipeline advances, in
//!   per-candidate order `CandidateFound → ProxyScored → LatencyTuned`;
//! * supports cooperative cancellation through a [`CancelToken`] and a step
//!   budget, returning the candidates discovered so far when stopped early;
//! * searches multiple [`OperatorSpec`] *scenarios* concurrently, one thread
//!   each (the paper's parallelism across substitution sites), the first on
//!   the run's own thread;
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
//! *across* candidates differs. (Cancellation still cuts a run at a
//! timing-dependent point, exactly as it does across scenario threads.)
//!
//! [`Mcts::search`]: crate::mcts::Mcts::search
//! [`Mcts::search_async_while`]: crate::mcts::Mcts::search_async_while
//! [`PGraph::content_hash`]: syno_core::graph::PGraph::content_hash
//!
//! # Modules
//!
//! This file holds the builder and the run handle; `event` what a run
//! streams and reports; `progress` the live counters a caller may poll;
//! `driver` the run thread, the stop conditions and one scenario's search
//! loop; `evaluate` what happens to one candidate.

mod driver;
mod evaluate;
mod event;
mod progress;
#[cfg(test)]
mod tests;

pub use self::{
    event::{CancelToken, Candidate, SearchEvent, SearchReport, StopReason},
    progress::{PhaseNanos, PhaseWall, RunProgress, ScenarioProgress},
};
use crate::coalesce::CoalesceTable;
use crate::mcts::MctsConfig;
use crate::memo::SynthMemo;
use crate::pool::{panic_message, EvalPool};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread;
use syno_compiler::{CompilerKind, Device};
use syno_core::error::{SynoError, SynthError};
use syno_core::spec::OperatorSpec;
use syno_core::synth::SynthConfig;
use syno_core::var::VarTable;
use syno_nn::{resolve_family, ProxyConfig, ProxyFamilyId};
use syno_store::Store;

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
    config: RunConfig,
    eval_workers: usize,
    eval_pool: Option<EvalPool>,
    proxy_family: Option<ProxyFamilyId>,
}

/// What a run is configured with, beyond its scenarios and where they
/// execute: collected by the builder, then read — never written — by every
/// scenario thread and candidate job.
#[derive(Debug)]
struct RunConfig {
    synth: Option<SynthConfig>,
    mcts: MctsConfig,
    proxy: ProxyConfig,
    devices: Vec<Device>,
    compiler: CompilerKind,
    progress_every: u64,
    store: Option<Arc<Store>>,
    resume: bool,
    coalesce: Option<CoalesceTable>,
    /// Where scenarios find their feasible children: the run's own table
    /// unless [`SearchBuilder::synth_memo`] shares one.
    synth_memo: SynthMemo,
    /// Caps total MCTS iterations across scenarios.
    max_steps: Option<u64>,
    cancel: CancelToken,
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
            config: RunConfig {
                synth: None,
                mcts: MctsConfig::default(),
                proxy: ProxyConfig::default(),
                devices: vec![Device::mobile_cpu()],
                compiler: CompilerKind::Tvm,
                progress_every: 10,
                store: None,
                resume: false,
                coalesce: None,
                synth_memo: SynthMemo::new(),
                max_steps: None,
                cancel: CancelToken::new(),
            },
            eval_workers: 1,
            eval_pool: None,
            proxy_family: None,
        }
    }
}

impl SearchBuilder {
    /// A builder with default settings and no scenarios.
    pub fn new() -> Self {
        SearchBuilder::default()
    }

    /// Adds a search scenario (one operator specification to substitute).
    /// Scenarios run concurrently, one thread each.
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
        self.config.synth = Some(config);
        self
    }

    /// MCTS settings (iterations here are per scenario).
    pub fn mcts(mut self, config: MctsConfig) -> Self {
        self.config.mcts = config;
        self
    }

    /// Accuracy-proxy settings.
    pub fn proxy(mut self, config: ProxyConfig) -> Self {
        self.config.proxy = config;
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
        self.config.devices = devices;
        self
    }

    /// Compiler used for the latency column.
    pub fn compiler(mut self, kind: CompilerKind) -> Self {
        self.config.compiler = kind;
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
    /// second copy. The serving daemon installs one table across all
    /// tenant sessions; in-process callers can do the same for runs
    /// sharing a store. See the [`coalesce`](crate::coalesce) module docs
    /// for the determinism contract.
    pub fn coalesce_table(mut self, table: CoalesceTable) -> Self {
        self.config.coalesce = Some(table);
        self
    }

    /// Shares a feasible-children [`SynthMemo`] with other runs.
    ///
    /// Runs holding clones of one table filter each action path of a spec
    /// once between them: a scenario takes the lists another run (or
    /// another scenario of this run) already filtered for the same spec and
    /// `SynthConfig`. The lists are the filter's whoever computed them, so
    /// every decision, candidate and score bit is what the run reaches
    /// alone. A run without a shared table gets a private one. The serving
    /// daemon installs one table across all tenant sessions. See the
    /// [`memo`](crate::memo) module docs for the key and the retention
    /// rule.
    pub fn synth_memo(mut self, table: SynthMemo) -> Self {
        self.config.synth_memo = table;
        self
    }

    /// Caps total MCTS iterations across scenarios.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.config.max_steps = Some(steps);
        self
    }

    /// Uses an externally created token so callers can cancel from another
    /// thread; [`SearchRun::cancel_token`] returns the same token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.config.cancel = token;
        self
    }

    /// Emits a [`SearchEvent::Progress`] every `n` iterations (default 10).
    pub fn progress_every(mut self, n: u64) -> Self {
        self.config.progress_every = n.max(1);
        self
    }

    /// Attaches a persistent candidate [`Store`].
    ///
    /// With a store attached the run (a) consults it before proxy-training
    /// each discovered candidate and emits [`SearchEvent::CacheHit`] with
    /// the recalled evaluation instead of recomputing, (b) journals every
    /// fresh candidate, proxy score, and tuned latency, and (c) journals a
    /// [`Checkpoint`](syno_store::Checkpoint) of each scenario's position every
    /// [`progress_every`](SearchBuilder::progress_every) iterations
    /// (emitting [`SearchEvent::CheckpointWritten`]).
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.config.store = Some(store);
        self
    }

    /// Attaches `store` *and* resumes interrupted scenarios from their
    /// journaled [`Checkpoint`](syno_store::Checkpoint)s.
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
    /// configuration. The checkpoint's `iterations` field is
    /// informational (progress reporting).
    #[must_use = "resume_from only configures the builder; call .start() or .run() to launch"]
    pub fn resume_from(mut self, store: Arc<Store>) -> Self {
        self.config.store = Some(store);
        self.config.resume = true;
        self
    }

    /// Validates the configuration and launches the run in the background,
    /// on a thread named `syno-run` that searches the first scenario itself
    /// and gives every further scenario `i` a thread `syno-scenario-<i>`.
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
    /// scenario was added or the [`synth`](SearchBuilder::synth) config
    /// fails [`SynthConfig::validate`]; [`SynthError::InvalidSpec`] when a
    /// scenario's shapes do not evaluate under its variable table;
    /// [`SynoError::Proxy`] when no registered proxy family can score a
    /// scenario's spec (the error names the scenario, the families tried,
    /// and the spec ranks seen) — such a search would burn its whole
    /// iteration budget backpropagating zero rewards, so it is rejected
    /// before it runs.
    pub fn start(mut self) -> Result<SearchRun, SynoError> {
        if self.scenarios.is_empty() {
            return Err(SynthError::InvalidConfig("no scenarios added".into()).into());
        }
        if let Some(config) = &self.config.synth {
            config.validate()?;
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
        let cancel = self.config.cancel.clone();
        let total = self.config.mcts.iterations as u64;
        let labels = self.scenarios.iter().map(|s| s.label.as_str());
        let progress = Arc::new(RunProgress::new(labels, total));
        let run_progress = Arc::clone(&progress);
        let handle = thread::Builder::new()
            .name("syno-run".into())
            .spawn(move || driver::drive(self, progress, sender))
            .map_err(|e| SynoError::worker(format!("cannot spawn the run thread: {e}")))?;
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
    /// [`SynoError::Worker`] when the run thread panicked.
    pub fn join(self) -> Result<SearchReport, SynoError> {
        drop(self.events); // unblock senders if the caller never drained
        self.handle
            .join()
            .map_err(|payload| SynoError::worker(panic_message(payload)))
    }
}
