//! Monte Carlo Tree Search over partial pGraphs (§7.2).
//!
//! The search space is a Markov decision process: states are partial
//! pGraphs, actions are canonical primitive applications, and terminal
//! states are complete operators. Rewards come from the accuracy proxy
//! (FLOPs are a *hard* ceiling enforced by the synthesis budgets, per the
//! paper: "we set a hard upper limit for FLOPs and use accuracy as the
//! reward"). The implementation is UCT with shape-distance-feasible child
//! filtering and guided rollouts.
//!
//! # Feasible children, once per path
//!
//! A state is determined by its action path from the root (`apply` is
//! deterministic), so its feasible children are too. The searcher keeps
//! them in a memo keyed by that path, a trie: each entry holds a
//! state's children, filtered the first time anything asks, and the entry
//! of each child taken from it. Tree expansion and rollouts
//! ([`rollout_with`]) read the same entries, and a rollout draws what
//! [`rollout`](syno_core::synth::rollout) would from the same state.
//!
//! The trie belongs to the spec, not to the searcher: every search of one
//! spec under one `SynthConfig` that shares a [`SynthMemo`] reads and fills
//! the same trie, so a path is filtered at most once per table (twice when
//! two searches reach it at once; the first list stays), while each
//! searcher keeps its own tree statistics, RNG and pending rewards. The
//! lists are the filter's whoever filtered them, so every decision is the
//! one the searcher makes alone. [`Mcts::new`] gets a trie of its own,
//! dropped with the searcher. A trie is bounded by the spec's feasible
//! tree, every path of at most `max_steps` actions, not by a search's
//! iterations; the table's retention rule bounds how many tries it holds
//! (see [`crate::memo`]).
//!
//! [`SynthMemo`]: crate::SynthMemo
//!
//! # Evaluation
//!
//! The searcher does not train proxies itself — it asks its caller for
//! rewards. [`search_async_while`](Mcts::search_async_while) hands every
//! new distinct candidate to a `submit` hook as an [`EvalRequest`] and goes
//! on under a virtual loss; the matching [`EvalOutcome`]s are
//! backpropagated as they drain from a channel. The hook may evaluate in
//! place (the outcome is then on the channel when it returns and is applied
//! before the next iteration) or pass the candidate to other threads. Tree
//! reads that would observe a not-yet-applied reward block until it lands,
//! so a seeded run makes the same selection decisions and discovers the
//! same candidate set however its evaluations are scheduled (see the module
//! docs of [`crate::run`] for the determinism contract).
//!
//! [`search`](Mcts::search) is the reference those runs are compared with:
//! the same engine with a hook that computes the reward in place.
//! `tests/trajectory.expected` pins what it reaches.

use crate::discovered::Discovered;
use crate::memo::PathMemo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use syno_core::graph::PGraph;
use syno_core::primitive::Action;
use syno_core::synth::{rollout_with, ChildSource, Enumerator, RolloutResult};

/// MCTS tunables.
#[derive(Clone, Copy, Debug)]
pub struct MctsConfig {
    /// Search iterations (select → expand → rollout → backprop).
    pub iterations: usize,
    /// UCB exploration constant.
    pub exploration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            iterations: 200,
            exploration: 1.2,
            seed: 0,
        }
    }
}

/// A candidate handed to an external evaluator by
/// [`Mcts::search_async_while`].
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// Stable candidate identity ([`PGraph::content_hash`]) — the same key
    /// the event stream and the `syno-store` journal use.
    pub id: u64,
    /// The complete operator to evaluate.
    pub graph: PGraph,
}

/// The evaluator's answer to an [`EvalRequest`].
#[derive(Clone, Copy, Debug)]
pub struct EvalOutcome {
    /// The candidate identity echoed from the request.
    pub id: u64,
    /// Reward in `[0, 1]` (clamped on application; NaN counts as 0.0).
    pub reward: f64,
}

#[derive(Debug, Default)]
struct TreeNode {
    visits: u64,
    total_reward: f64,
    /// The node's entry in the [`PathMemo`].
    entry: usize,
    /// The node's feasible actions, once expanded.
    actions: Option<Arc<[Action]>>,
    /// The child node of each feasible action, once taken.
    children: Vec<Option<usize>>,
    /// Outstanding asynchronous evaluations whose reward has not been
    /// folded into `total_reward` yet. While non-zero, the node's visit
    /// count already includes those iterations (the *virtual loss*), so
    /// UCB reads must wait for the count to return to zero.
    pending: u32,
}

/// A rollout's position in the [`PathMemo`]: the children it samples are
/// the memo's, filtered at most once per path.
struct Walk<'a> {
    enumerator: &'a Enumerator,
    memo: &'a PathMemo,
    at: usize,
    /// The children at `at`, when the step here found them stored.
    list: Option<Arc<[Action]>>,
    /// Filter runs by this walk.
    filtered: u64,
}

impl ChildSource for Walk<'_> {
    fn children(&mut self, state: &PGraph) -> &[Action] {
        match self.list {
            Some(_) => syno_telemetry::counter!("syno_search_synth_memo_hits_total").inc(),
            None => {
                let (list, filtered) = self.memo.children(self.at, state, self.enumerator);
                self.filtered += u64::from(filtered);
                self.list = Some(list);
            }
        }
        self.list.as_deref().expect("set above")
    }

    fn take(&mut self, pick: usize) {
        (self.at, self.list) = self.memo.child(self.at, pick);
    }
}

/// A submitted evaluation the tree is still waiting on: the operator (for
/// the final [`Discovered`] record) and every selection path that reached
/// it, each owed one reward backpropagation.
struct PendingEval {
    graph: PGraph,
    paths: Vec<Vec<usize>>,
}

/// The tree searcher.
///
/// Nodes form a proper tree keyed by action path (coordinate identifiers
/// are history-dependent, so semantically-equal states from different
/// histories cannot share tree nodes; result deduplication uses the stable
/// content hash, the same key as the event stream and the store journal).
#[derive(Debug)]
pub struct Mcts {
    enumerator: Enumerator,
    config: MctsConfig,
    nodes: Vec<TreeNode>,
    memo: Arc<PathMemo>,
    /// Search statistics.
    pub stats: MctsStats,
}

/// Counters reported by a search run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MctsStats {
    /// Rollouts that reached a complete operator.
    pub completed_rollouts: u64,
    /// Rollouts that failed: the sum of the three counts below.
    pub failed_rollouts: u64,
    /// Rollouts that reached a state with no feasible child.
    pub dead_end_rollouts: u64,
    /// Rollouts that took `max_steps` primitives without completing.
    pub step_limit_rollouts: u64,
    /// Rollouts that completed outside the FLOPs/parameter budgets.
    pub over_budget_rollouts: u64,
    /// Times this searcher ran the child filter
    /// ([`Enumerator::feasible_children`]), by expansion or rollout alike:
    /// at most once per action path it reached, and not for the lists it
    /// took from the memo, whichever search filtered them.
    pub states_filtered: u64,
    /// Distinct complete operators discovered (keyed by
    /// [`PGraph::content_hash`], so this agrees with the per-candidate
    /// event stream and the store journal).
    pub distinct_operators: u64,
    /// Nanoseconds spent in UCB selection/expansion (excluding time parked
    /// waiting for evaluator outcomes). Telemetry-derived: stays 0 while
    /// telemetry is disabled (`syno_telemetry::set_enabled`), and is
    /// strictly out-of-band — it never influences the search.
    pub select_ns: u64,
    /// Nanoseconds spent in rollouts (synthesis proper). Telemetry-derived
    /// like [`select_ns`](MctsStats::select_ns).
    pub rollout_ns: u64,
}

impl Mcts {
    /// Creates a searcher around an enumerator (which carries the synthesis
    /// budgets and canonicalization rules).
    /// The searcher keeps its feasible children in a memo of its own.
    pub fn new(enumerator: Enumerator, config: MctsConfig) -> Self {
        Mcts::with_memo(enumerator, config, Arc::default())
    }

    /// A searcher that reads and fills `memo`, which must be the trie of
    /// the spec it searches under `enumerator`'s configuration
    /// ([`SynthMemo`](crate::SynthMemo) hands out one per key).
    pub(crate) fn with_memo(
        enumerator: Enumerator,
        config: MctsConfig,
        memo: Arc<PathMemo>,
    ) -> Self {
        Mcts {
            enumerator,
            config,
            nodes: vec![TreeNode::default()],
            memo,
            stats: MctsStats::default(),
        }
    }

    /// Runs the search from `root`, scoring complete operators with
    /// `reward` (in `[0, 1]`), and returns the distinct discoveries sorted
    /// by descending reward.
    ///
    /// This is [`search_async_while`](Mcts::search_async_while) with a
    /// submit hook that computes the reward in place, so every outcome is
    /// applied at the end of the iteration that submitted it.
    pub fn search(
        &mut self,
        root: &PGraph,
        mut reward: impl FnMut(&PGraph) -> f64,
    ) -> Vec<Discovered> {
        let (outcome_tx, outcome_rx) = channel();
        let submit = |EvalRequest { id, graph }| {
            let reward = reward(&graph);
            outcome_tx.send(EvalOutcome { id, reward }).is_ok()
        };
        self.search_async_while(root, submit, &outcome_rx, |_| true)
    }

    /// Every new distinct complete operator is handed to `submit` as an
    /// [`EvalRequest`] and the search continues under a virtual loss until
    /// the matching [`EvalOutcome`] arrives on `outcomes`, at which point the
    /// reward is backpropagated along every selection path that reached the
    /// candidate. Before every iteration `keep_going` is consulted with the
    /// upcoming iteration index; returning `false` stops the search early
    /// and yields the discoveries so far — the cancellation/budget hook of
    /// the streaming `SearchRun` driver.
    ///
    /// # Determinism
    ///
    /// A UCB comparison never reads a node with outstanding evaluations —
    /// the engine blocks on `outcomes` until the relevant rewards have been
    /// applied. Selection is otherwise reward-independent (untried children
    /// are taken first), so for a fixed seed the tree evolves exactly as in
    /// [`search`](Mcts::search) regardless of evaluator timing, and the
    /// discovered candidate set is identical to the reference's.
    ///
    /// `submit` returning `false`, or `outcomes` disconnecting while
    /// evaluations are outstanding, means the evaluator died; the
    /// search then scores the affected candidates 0.0 (the skip semantics)
    /// instead of deadlocking. Before returning — normally or through
    /// `keep_going` — the engine blocks until every in-flight evaluation
    /// has drained, so cancellation never abandons a submitted candidate.
    pub fn search_async_while(
        &mut self,
        root: &PGraph,
        mut submit: impl FnMut(EvalRequest) -> bool,
        outcomes: &Receiver<EvalOutcome>,
        mut keep_going: impl FnMut(u64) -> bool,
    ) -> Vec<Discovered> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut found: HashMap<u64, Discovered> = HashMap::new();
        let mut pending: HashMap<u64, PendingEval> = HashMap::new();

        for iteration in 0..self.config.iterations {
            if !keep_going(iteration as u64) {
                break;
            }
            // Selection: walk down by UCB until an unexpanded node. Time
            // parked in `settle_children` (waiting on evaluator outcomes)
            // is traced as its own nested span and excluded from the
            // selection phase accounting.
            let select_span = syno_telemetry::span!("ucb_select");
            let mut settled = std::time::Duration::ZERO;
            let mut path: Vec<usize> = vec![0];
            let mut state = root.clone();
            let mut current = 0usize;
            loop {
                let entry = self.nodes[current].entry;
                if self.nodes[current].actions.is_none() {
                    let (actions, filtered) = self.memo.children(entry, &state, &self.enumerator);
                    self.stats.states_filtered += u64::from(filtered);
                    let node = &mut self.nodes[current];
                    node.children = vec![None; actions.len()];
                    node.actions = Some(actions);
                    break;
                }
                if self.nodes[current].children.is_empty() {
                    break; // dead end or terminal
                }
                // Pick an untried child first (reward-independent), else
                // best UCB over fully-applied statistics.
                let untried = self.nodes[current]
                    .children
                    .iter()
                    .position(Option::is_none);
                let pick = match untried {
                    Some(idx) => idx,
                    None => {
                        let wait_span = syno_telemetry::span!("eval_wait");
                        self.settle_children(current, outcomes, &mut found, &mut pending);
                        settled += wait_span.elapsed();
                        drop(wait_span);
                        self.best_ucb_child(current)
                    }
                };
                let actions = self.nodes[current].actions.as_deref();
                let action = &actions.expect("expanded nodes are filtered")[pick];
                let child_state = state.apply(action).expect("feasible child applies");
                let child_id = match self.nodes[current].children[pick] {
                    Some(id) => id,
                    None => {
                        let id = self.nodes.len();
                        self.nodes.push(TreeNode {
                            entry: self.memo.child(entry, pick).0,
                            ..TreeNode::default()
                        });
                        self.nodes[current].children[pick] = Some(id);
                        id
                    }
                };
                let is_new = self.nodes[child_id].actions.is_none();
                state = child_state;
                current = child_id;
                path.push(current);
                if is_new && self.nodes[current].visits == 0 {
                    break;
                }
            }

            self.stats.select_ns += select_span
                .elapsed()
                .saturating_sub(settled)
                .as_nanos() as u64;
            drop(select_span);

            // Rollout from the reached state. A known reward (failure,
            // rediscovery) backpropagates immediately; a new candidate is
            // submitted for evaluation and leaves the path under a virtual
            // loss (the visit counts now, the reward lands on drain).
            let synth_span = syno_telemetry::span!("synthesis");
            let mut walk = Walk {
                enumerator: &self.enumerator,
                memo: &self.memo,
                at: self.nodes[current].entry,
                list: None,
                filtered: 0,
            };
            let rolled = rollout_with(&mut rng, &self.enumerator, state, &mut walk);
            self.stats.states_filtered += walk.filtered;
            self.stats.rollout_ns += synth_span.elapsed().as_nanos() as u64;
            drop(synth_span);
            let value: Option<f64> = match rolled {
                RolloutResult::Complete(graph) => {
                    self.stats.completed_rollouts += 1;
                    let id = graph.content_hash();
                    if let Some(existing) = found.get(&id) {
                        Some(existing.reward)
                    } else if let Some(p) = pending.get_mut(&id) {
                        // Rediscovered while in flight: this path is owed
                        // the same reward once the evaluation drains.
                        p.paths.push(path.clone());
                        None
                    } else {
                        self.stats.distinct_operators += 1;
                        if submit(EvalRequest {
                            id,
                            graph: (*graph).clone(),
                        }) {
                            pending.insert(
                                id,
                                PendingEval {
                                    graph: *graph,
                                    paths: vec![path.clone()],
                                },
                            );
                            None
                        } else {
                            // Evaluator gone: degrade to skip semantics.
                            found.insert(
                                id,
                                Discovered {
                                    graph: *graph,
                                    reward: 0.0,
                                },
                            );
                            Some(0.0)
                        }
                    }
                }
                failure => {
                    let stats = &mut self.stats;
                    *match failure {
                        RolloutResult::DeadEnd => &mut stats.dead_end_rollouts,
                        RolloutResult::StepLimit => &mut stats.step_limit_rollouts,
                        _ => &mut stats.over_budget_rollouts,
                    } += 1;
                    stats.failed_rollouts += 1;
                    Some(0.0)
                }
            };

            // Backpropagation. Visits always count now; the reward either
            // lands now (known) or when the outcome drains (pending).
            for &id in &path {
                let node = &mut self.nodes[id];
                node.visits += 1;
                match value {
                    Some(value) => node.total_reward += value,
                    None => node.pending += 1,
                }
            }
            // Small jitter to the seed stream keeps rollouts diverse even
            // from identical states.
            let _ = rng.random::<u32>();

            // Absorb whatever the evaluator finished in the meantime. An
            // evaluation that ran inside `submit` is ready here, so it is
            // applied before the next iteration.
            while let Ok(outcome) = outcomes.try_recv() {
                self.apply_outcome(outcome, &mut found, &mut pending);
            }
        }

        // Drain every in-flight evaluation before reporting: a stopped or
        // cancelled run still keeps (and scores) everything it submitted.
        let _drain_span = syno_telemetry::span!("eval_wait");
        while !pending.is_empty() {
            match outcomes.recv() {
                Ok(outcome) => self.apply_outcome(outcome, &mut found, &mut pending),
                Err(_) => {
                    self.abandon_pending(&mut found, &mut pending);
                    break;
                }
            }
        }

        let mut results: Vec<Discovered> = found.into_values().collect();
        results.sort_by(|a, b| b.reward.partial_cmp(&a.reward).expect("finite rewards"));
        results
    }

    /// Best child of `current` by UCB; callers must have settled pending
    /// rewards first so the comparison reads final statistics.
    fn best_ucb_child(&self, current: usize) -> usize {
        let node = &self.nodes[current];
        let parent_visits = node.visits.max(1) as f64;
        let exploration = self.config.exploration;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (idx, child) in node.children.iter().enumerate() {
            let child_id = child.expect("all tried");
            let c = &self.nodes[child_id];
            let (v, q) = (c.visits.max(1) as f64, c.total_reward);
            let ucb = q / v + exploration * (parent_visits.ln() / v).sqrt();
            if ucb > best_score {
                best_score = ucb;
                best = idx;
            }
        }
        best
    }

    /// Blocks until no child of `current` carries a pending reward, so the
    /// following UCB comparison observes exactly the statistics the serial
    /// search would.
    fn settle_children(
        &mut self,
        current: usize,
        outcomes: &Receiver<EvalOutcome>,
        found: &mut HashMap<u64, Discovered>,
        pending: &mut HashMap<u64, PendingEval>,
    ) {
        loop {
            let unsettled = self.nodes[current]
                .children
                .iter()
                .any(|c| c.is_some_and(|id| self.nodes[id].pending > 0));
            if !unsettled {
                return;
            }
            match outcomes.recv() {
                Ok(outcome) => self.apply_outcome(outcome, found, pending),
                Err(_) => {
                    self.abandon_pending(found, pending);
                    return;
                }
            }
        }
    }

    /// Folds a completed evaluation into the tree: the reward, clamped to
    /// `[0, 1]` with NaN read as the skip reward 0.0, is added along every
    /// path that reached the candidate (their visits were already counted
    /// at submission) and the discovery becomes final.
    fn apply_outcome(
        &mut self,
        outcome: EvalOutcome,
        found: &mut HashMap<u64, Discovered>,
        pending: &mut HashMap<u64, PendingEval>,
    ) {
        let Some(entry) = pending.remove(&outcome.id) else {
            return; // stale or duplicate outcome
        };
        let reward = if outcome.reward.is_nan() {
            0.0
        } else {
            outcome.reward.clamp(0.0, 1.0)
        };
        for path in &entry.paths {
            for &id in path {
                let node = &mut self.nodes[id];
                node.total_reward += reward;
                node.pending = node.pending.saturating_sub(1);
            }
        }
        found.insert(
            outcome.id,
            Discovered {
                graph: entry.graph,
                reward,
            },
        );
    }

    /// The evaluator died with evaluations outstanding: score them 0.0 so
    /// counters stay consistent and the search can report what it has.
    fn abandon_pending(
        &mut self,
        found: &mut HashMap<u64, Discovered>,
        pending: &mut HashMap<u64, PendingEval>,
    ) {
        let ids: Vec<u64> = pending.keys().copied().collect();
        for id in ids {
            self.apply_outcome(EvalOutcome { id, reward: 0.0 }, found, pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use syno_core::prelude::*;

    fn pool_root() -> (Enumerator, PGraph) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        let config = SynthConfig::auto(&vars, 3);
        (Enumerator::new(config), PGraph::new(vars, spec))
    }

    /// `[N, Cin, H, W] → [N, Cout, H, W]` at N=4, Cin=3, Cout=4, H=W=8, k=3:
    /// the toy vision spec of `tests/trajectory.rs`.
    fn toy_vision() -> (Enumerator, PGraph) {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
        let vars = vars.into_shared();
        let dims =
            |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
        let spec = OperatorSpec::new(dims(cin), dims(cout));
        (
            Enumerator::new(SynthConfig::auto(&vars, 4)),
            PGraph::new(vars, spec),
        )
    }

    fn searched_toy_vision() -> (Mcts, Enumerator, PGraph) {
        let (enumerator, root) = toy_vision();
        let config = MctsConfig {
            iterations: 300,
            seed: 7,
            ..MctsConfig::default()
        };
        let mut mcts = Mcts::new(Enumerator::new(enumerator.config().clone()), config);
        mcts.search(&root, |g| (g.content_hash() % 1024) as f64 / 1024.0);
        (mcts, enumerator, root)
    }

    /// Every remembered action list is the one the filter gives for the
    /// state its path builds, and no path was filtered twice.
    #[test]
    fn memo_holds_the_filtered_children_of_each_path() {
        let (mcts, enumerator, root) = searched_toy_vision();
        let entries = &mcts.memo.entries.lock().unwrap();
        let (mut reached, mut filtered) = (0, 0u64);
        let mut stack = vec![(0usize, root)];
        while let Some((entry, state)) = stack.pop() {
            reached += 1;
            let Some(children) = &entries[entry].children else {
                assert!(entries[entry].taken.is_empty(), "taken before filtered");
                continue;
            };
            filtered += 1;
            assert_eq!(**children, *enumerator.feasible_children(&state));
            for &(pick, child) in &entries[entry].taken {
                stack.push((child, state.apply(&children[pick]).expect("applies")));
            }
        }
        assert_eq!(reached, entries.len(), "every entry has one path");
        assert!(filtered > 1);
        assert_eq!(mcts.stats.states_filtered, filtered);
    }

    /// A list some walk filtered is read again by later walks: an entry
    /// from which two different children were taken was read at least
    /// twice, and filtered once.
    #[test]
    fn memo_reuses_action_lists() {
        let (mcts, _, _) = searched_toy_vision();
        let entries = &mcts.memo.entries.lock().unwrap();
        let reused = entries.iter().filter(|e| e.taken.len() >= 2).count();
        assert!(reused > 0 && entries[0].taken.len() >= 2);
        let stats = mcts.stats;
        assert_eq!(
            stats.failed_rollouts,
            stats.dead_end_rollouts + stats.step_limit_rollouts + stats.over_budget_rollouts
        );
    }

    /// A NaN reward is the skip reward, not a poisoned tree.
    #[test]
    fn nan_rewards_count_as_zero() {
        let (enumerator, root) = pool_root();
        let mut mcts = Mcts::new(
            enumerator,
            MctsConfig {
                iterations: 60,
                ..MctsConfig::default()
            },
        );
        let results = mcts.search(&root, |_| f64::NAN);
        assert!(!results.is_empty());
        assert!(results
            .iter()
            .all(|d| d.reward.to_bits() == 0.0f64.to_bits()));
        assert!(mcts.nodes.iter().all(|n| n.total_reward == 0.0));
    }

    #[test]
    fn mcts_discovers_operators() {
        let (enumerator, root) = pool_root();
        let mut mcts = Mcts::new(
            enumerator,
            MctsConfig {
                iterations: 60,
                ..MctsConfig::default()
            },
        );
        let results = mcts.search(&root, |_| 0.5);
        assert!(!results.is_empty(), "stats: {:?}", mcts.stats);
        assert!(results.iter().all(|d| d.graph.is_complete()));
        assert!(mcts.stats.completed_rollouts > 0);
    }

    #[test]
    fn rewards_guide_ranking() {
        let (enumerator, root) = pool_root();
        let mut mcts = Mcts::new(
            enumerator,
            MctsConfig {
                iterations: 80,
                seed: 3,
                ..MctsConfig::default()
            },
        );
        // Reward smaller graphs more.
        let results = mcts.search(&root, |g| 1.0 / (1.0 + g.len() as f64));
        assert!(!results.is_empty());
        for pair in results.windows(2) {
            assert!(pair[0].reward >= pair[1].reward);
        }
    }

    #[test]
    fn search_is_deterministic_under_seed() {
        let (enumerator, root) = pool_root();
        let run = |seed| {
            let mut mcts = Mcts::new(
                Enumerator::new(enumerator.config().clone()),
                MctsConfig {
                    iterations: 40,
                    seed,
                    ..MctsConfig::default()
                },
            );
            let mut r = mcts.search(&root, |g| 1.0 / (1.0 + g.len() as f64));
            r.sort_by_key(|d| d.graph.content_hash());
            r.iter().map(|d| d.graph.content_hash()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn distinct_operator_count_matches_results() {
        let (enumerator, root) = pool_root();
        let mut mcts = Mcts::new(
            enumerator,
            MctsConfig {
                iterations: 50,
                seed: 11,
                ..MctsConfig::default()
            },
        );
        let results = mcts.search(&root, |_| 0.1);
        assert_eq!(results.len() as u64, mcts.stats.distinct_operators);
    }

    /// The async engine against a threaded evaluator must discover the
    /// exact candidate set (and rewards) of the serial run, regardless of
    /// evaluator timing — the pipeline determinism contract at the tree
    /// level, exercised under pool-spec UCB pressure (few children, many
    /// iterations, so selection really does read rewards).
    #[test]
    fn async_search_matches_serial_candidate_set() {
        let (enumerator, root) = pool_root();
        let config = MctsConfig {
            iterations: 60,
            seed: 13,
            ..MctsConfig::default()
        };
        let reward_of = |g: &PGraph| 1.0 / (1.0 + g.len() as f64);

        let serial = {
            let mut mcts = Mcts::new(Enumerator::new(enumerator.config().clone()), config);
            let mut r = mcts.search(&root, reward_of);
            r.sort_by_key(|d| d.graph.content_hash());
            (r, mcts.stats)
        };

        let (request_tx, request_rx) = channel::<EvalRequest>();
        let (outcome_tx, outcome_rx) = channel::<EvalOutcome>();
        let evaluator = std::thread::spawn(move || {
            for request in request_rx {
                // Stagger replies so outcomes genuinely lag submissions —
                // a yield hands the core back to the engine thread without
                // the fixed wall-clock sleep the first cut used (which
                // cost 2ms per candidate and measured nothing).
                std::thread::yield_now();
                let reward = 1.0 / (1.0 + request.graph.len() as f64);
                if outcome_tx
                    .send(EvalOutcome {
                        id: request.id,
                        reward,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        let asynchronous = {
            let mut mcts = Mcts::new(Enumerator::new(enumerator.config().clone()), config);
            let mut r = mcts.search_async_while(
                &root,
                |request| request_tx.send(request).is_ok(),
                &outcome_rx,
                |_| true,
            );
            r.sort_by_key(|d| d.graph.content_hash());
            (r, mcts.stats)
        };
        drop(request_tx);
        evaluator.join().unwrap();

        let ids = |r: &[Discovered]| {
            r.iter()
                .map(|d| (d.graph.content_hash(), d.reward.to_bits()))
                .collect::<Vec<_>>()
        };
        assert!(!serial.0.is_empty());
        assert_eq!(ids(&serial.0), ids(&asynchronous.0));
        assert_eq!(
            serial.1.completed_rollouts,
            asynchronous.1.completed_rollouts
        );
        assert_eq!(
            serial.1.distinct_operators,
            asynchronous.1.distinct_operators
        );
    }

    /// A dead evaluator must not deadlock the search: outstanding
    /// candidates degrade to zero reward and the run still reports them.
    #[test]
    fn async_search_survives_evaluator_death() {
        let (enumerator, root) = pool_root();
        let mut mcts = Mcts::new(
            enumerator,
            MctsConfig {
                iterations: 40,
                seed: 5,
                ..MctsConfig::default()
            },
        );
        // The outcome channel's sender is dropped immediately and every
        // submission is refused.
        let (outcome_tx, outcome_rx) = channel::<EvalOutcome>();
        drop(outcome_tx);
        let results = mcts.search_async_while(&root, |_| false, &outcome_rx, |_| true);
        assert!(!results.is_empty());
        assert!(results.iter().all(|d| d.reward == 0.0));
        assert_eq!(results.len() as u64, mcts.stats.distinct_operators);
    }
}
