//! Where a run's wall clock went and how far it has got: counters the
//! search updates as it goes and any thread may read without a lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Per-phase breakdown of a run's wall clock, derived from the same
/// measurements that feed the `syno-telemetry` span log. Strictly
/// out-of-band: reading or printing it never influences the search.
///
/// Phase time is summed across scenario workers and evaluator threads, so
/// with `eval_workers > 1` the phases can legitimately sum to more than
/// [`SearchReport::wall`](super::SearchReport::wall); `idle` is clamped at zero in that case.
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
    pub(super) fn add_synth_ns(&self, ns: u64) {
        self.synth.fetch_add(ns, Ordering::Relaxed);
    }

    pub(super) fn add_eval(&self, d: Duration) {
        self.eval.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(super) fn add_store(&self, d: Duration) {
        self.store.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(super) fn add_tune(&self, d: Duration) {
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
    pub(super) iterations: AtomicU64,
    pub(super) discovered: AtomicU64,
    pub(super) candidates: AtomicU64,
    pub(super) finished: AtomicBool,
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

    /// The scenario's label, as passed to
    /// [`SearchBuilder::scenario`](super::SearchBuilder::scenario).
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

/// Allocation-free live progress for a whole [`SearchRun`](super::SearchRun).
///
/// Obtained once from [`SearchRun::progress`](super::SearchRun::progress)
/// (an `Arc` the caller can clone and poll from any thread); every accessor
/// is a plain atomic load,
/// so high-frequency status polling — the serving daemon answers a status
/// frame per connected client — costs no locks, clones, or allocations.
#[derive(Debug)]
pub struct RunProgress {
    pub(super) scenarios: Vec<ScenarioProgress>,
    pub(super) steps: AtomicU64,
    pub(super) phases: PhaseNanos,
}

impl RunProgress {
    /// Zeroed counters for scenarios of `total_iterations` each.
    pub(super) fn new<'a>(labels: impl Iterator<Item = &'a str>, total_iterations: u64) -> Self {
        RunProgress {
            scenarios: labels
                .map(|label| ScenarioProgress::new(label, total_iterations))
                .collect(),
            steps: AtomicU64::new(0),
            phases: PhaseNanos::default(),
        }
    }

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
