//! The run thread, the run's stop conditions, and one scenario's search
//! loop.

use super::evaluate::EvalContext;
use super::{
    Candidate, RunConfig, RunProgress, Scenario, SearchBuilder, SearchEvent, SearchReport,
    StopReason,
};
use crate::mcts::{EvalOutcome, EvalRequest, Mcts, MctsConfig};
use crate::pool::{panic_message, EvalPool};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;
use syno_core::error::SynoError;
use syno_core::graph::PGraph;
use syno_core::synth::{Enumerator, SynthConfig};
use syno_store::{CandidateSet, Checkpoint};

/// What every scenario thread and every candidate job of one run shares:
/// the configuration `start()` validated, and the run's live state.
pub(super) struct Shared {
    pub(super) config: RunConfig,
    /// Where candidate jobs run: the builder's shared pool, else the run's
    /// own (`eval_workers(n ≥ 2)`), else `None` — in place on the search
    /// thread.
    pool: Option<EvalPool>,
    events: Sender<SearchEvent>,
    started: Instant,
    /// Live counters (steps, per-scenario progress) shared with the
    /// caller-facing [`RunProgress`] handle.
    pub(super) progress: Arc<RunProgress>,
    /// Why the run is stopping; set once, by whichever thread saw it first.
    stop: OnceLock<StopReason>,
}

impl Shared {
    /// Checks cancellation, then the step budget; records the first reason
    /// to stop and returns it from then on.
    fn should_stop(&self) -> Option<StopReason> {
        if let Some(reason) = self.stop.get() {
            return Some(*reason);
        }
        let reason = if self.config.cancel.is_cancelled() {
            StopReason::Cancelled
        } else if self.config.max_steps.is_some_and(|max| self.progress.steps() >= max) {
            StopReason::StepBudget
        } else {
            return None;
        };
        Some(*self.stop.get_or_init(|| reason))
    }

    /// Streams one event; a consumer that went away is not an error.
    pub(super) fn emit(&self, event: SearchEvent) {
        let _ = self.events.send(event);
    }
}

/// Runs the whole search on the run thread: it searches scenario 0 itself
/// while scenario `i ≥ 1` runs on a scoped thread `syno-scenario-<i>`. A
/// scenario that sees the run already stopped is skipped.
pub(super) fn drive(
    builder: SearchBuilder,
    progress: Arc<RunProgress>,
    events: Sender<SearchEvent>,
) -> SearchReport {
    let own_pool = (builder.eval_pool.is_none() && builder.eval_workers > 1)
        .then(|| EvalPool::new(builder.eval_workers));
    let shared = Arc::new(Shared {
        config: builder.config,
        pool: builder.eval_pool.or_else(|| own_pool.clone()),
        events,
        started: Instant::now(),
        progress,
        stop: OnceLock::new(),
    });
    let results: Mutex<Vec<Candidate>> = Mutex::new(Vec::new());
    let search = |index: usize, scenario: &Scenario| {
        if shared.should_stop().is_some() {
            return;
        }
        let found = run_scenario(&shared, index, scenario);
        shared.progress.scenarios[index]
            .finished
            .store(true, Ordering::Relaxed);
        let mut all = results.lock().expect("results lock");
        shared.emit(SearchEvent::ScenarioFinished {
            scenario: index,
            candidates: found.len(),
        });
        all.extend(found);
    };

    thread::scope(|scope| {
        let search = &search;
        for (index, scenario) in builder.scenarios.iter().enumerate().skip(1) {
            thread::Builder::new()
                .name(format!("syno-scenario-{index}"))
                .spawn_scoped(scope, move || search(index, scenario))
                .expect("spawn a scenario thread");
        }
        search(0, &builder.scenarios[0]);
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
    let stopped = shared.stop.get().copied().unwrap_or(StopReason::Completed);
    let steps = shared.progress.steps();
    let wall = shared.started.elapsed();
    SearchReport {
        candidates,
        stopped,
        steps,
        phases: shared.progress.phases.snapshot(wall),
        wall,
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
        .config
        .synth
        .clone()
        .unwrap_or_else(|| SynthConfig::auto(&scenario.vars, 4));
    let memo = shared
        .config
        .synth_memo
        .memo(&scenario.vars, &scenario.spec, &config);
    let enumerator = Enumerator::new(config);
    let root = PGraph::new(Arc::clone(&scenario.vars), scenario.spec.clone());
    let fingerprint = scenario.spec.fingerprint(&scenario.vars);
    let store = shared.config.store.as_deref();
    // Distinct seeds keep concurrent scenarios on distinct rollout streams;
    // a resumed scenario re-adopts its journaled seed so the deterministic
    // replay matches the interrupted run.
    let base_seed = shared.config.mcts.seed.wrapping_add(index as u64);
    let seed = store
        .filter(|_| shared.config.resume)
        .and_then(|s| s.checkpoint(&scenario.label, fingerprint))
        .map_or(base_seed, |cp| cp.seed);
    let mcts_config = MctsConfig { seed, ..shared.config.mcts };
    let mut mcts = Mcts::with_memo(enumerator, mcts_config, memo);

    let total_iterations = shared.config.mcts.iterations as u64;
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
            .prepare(&scenario.spec, &scenario.vars, 0, &shared.config.proxy),
        shared: Arc::clone(shared),
        candidates: Arc::default(),
    };

    // Journals the scenario's position, so `resume_from` knows where it got
    // to (and that a completed scenario replays as hits, not trainings).
    let checkpoint = |iterations: u64| {
        let Some(store) = store else { return };
        let written = store.put_checkpoint(&Checkpoint {
            label: scenario.label.clone(),
            spec_fingerprint: fingerprint,
            seed,
            iterations,
        });
        if written.is_ok() {
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
        if iteration > 0 && iteration.is_multiple_of(shared.config.progress_every) {
            shared.emit(SearchEvent::Progress {
                scenario: index,
                iterations: iteration,
                total_iterations,
                discovered: progress.discovered(),
            });
            checkpoint(iteration);
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
            // a panic anywhere in the evaluation would otherwise lose its
            // reward and leave the engine's drain waiting forever — and at
            // width 1 it would unwind the search thread itself — so this,
            // the run's one panic boundary, demotes it to a typed skip like
            // any other per-candidate failure.
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

    checkpoint(progress.iterations());

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
