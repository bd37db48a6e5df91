//! Guided bottom-up synthesis (Algorithm 1 / §7.1).
//!
//! The synthesizer starts from the output iterators, repeatedly enumerates
//! the canonical children of the current partial pGraph
//! (`EnumerateChildren`), and backtracks as soon as the
//! [shape distance](crate::distance::shape_distance) exceeds the remaining
//! step budget. Complete graphs within the FLOPs budget are
//! collected, deduplicated by semantic state hash.
//!
//! Whether a candidate action is valid, and which frontier its child would
//! have, are functions of the parent graph and the action alone
//! ([`PGraph::peek`]), so one filter — [`Enumerator::feasible_children`]:
//! canonicalization, validity, shape distance, in enumeration order — decides
//! every candidate on the parent and only survivors are ever built. Two
//! drivers (and the MCTS memo in `syno-search`) share it:
//!
//! * [`Synthesis`] — a resumable, iterator-style DFS of Algorithm 1:
//!   [`Synthesis::next_operator`] yields one canonical operator at a time, so
//!   callers can interleave synthesis with evaluation, stop early, or stream
//!   discoveries;
//! * [`rollout`] — a random completion used by the §9.4 shape-distance
//!   ablation (`guided = false` reproduces the paper's "500M unguided trials
//!   find nothing" result); MCTS simulations run the same loop,
//!   [`rollout_with`], on children remembered per action path.

use crate::analysis;
use crate::error::SynthError;
use crate::canon::CanonRules;
use crate::distance::shape_distance;
use crate::graph::PGraph;
use crate::primitive::Action;
use crate::size::Size;
use crate::spec::OperatorSpec;
use crate::var::VarTable;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// Tunables for synthesis (budgets of §4 plus parameter-monomial choices of
/// §5.4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SynthConfig {
    /// Maximum number of primitives per operator (`d_max` in Algorithm 1).
    pub max_steps: usize,
    /// Candidate block sizes for `Merge` (coefficient monomials).
    pub merge_blocks: Vec<Size>,
    /// Candidate dilation factors for `Stride`.
    pub stride_factors: Vec<Size>,
    /// Candidate domains for `Reduce` (may contain primary variables).
    pub reduce_domains: Vec<Size>,
    /// Canonicalization rule set applied during enumeration.
    pub canon: CanonRules,
    /// Hard FLOPs ceiling (naive estimate, first valuation), §7.2.
    pub max_flops: Option<u128>,
    /// Stop after this many complete operators.
    pub max_results: usize,
    /// Safety valve on visited states.
    pub max_visits: usize,
}

impl SynthConfig {
    /// Derives a sensible configuration from a variable table: coefficient
    /// variables (and their pairwise products) parameterize `Merge`/`Stride`;
    /// `Reduce` domains additionally include primaries and `primary /
    /// coefficient` quotients (the `g⁻¹·C_out` shapes of Operator 1).
    pub fn auto(vars: &VarTable, max_steps: usize) -> Self {
        let coeffs: Vec<Size> = vars.coefficients().map(Size::var).collect();
        let mut merge_blocks = coeffs.clone();
        for (i, a) in coeffs.iter().enumerate() {
            for b in &coeffs[i..] {
                let p = a.mul(b);
                if p.is_at_least(vars, 2) && !merge_blocks.contains(&p) {
                    merge_blocks.push(p);
                }
            }
        }
        merge_blocks.retain(|b| b.is_at_least(vars, 2));

        let mut reduce_domains = merge_blocks.clone();
        for p in vars.primaries() {
            let pv = Size::var(p);
            if pv.is_at_least(vars, 2) {
                reduce_domains.push(pv.clone());
            }
            for c in &coeffs {
                let q = pv.div(c);
                if q.is_at_least(vars, 2) && !reduce_domains.contains(&q) {
                    reduce_domains.push(q);
                }
            }
        }

        SynthConfig {
            max_steps,
            stride_factors: merge_blocks.clone(),
            merge_blocks,
            reduce_domains,
            canon: CanonRules::default(),
            max_flops: None,
            max_results: 256,
            max_visits: 1_000_000,
        }
    }

    /// Rejects a configuration that cannot search: `max_steps`,
    /// `max_results` and `max_visits` must each be at least 1.
    pub fn validate(&self) -> Result<(), SynthError> {
        for (name, value) in [
            ("max_steps", self.max_steps),
            ("max_results", self.max_results),
            ("max_visits", self.max_visits),
        ] {
            if value == 0 {
                return Err(SynthError::InvalidConfig(format!("{name} must be at least 1")));
            }
        }
        Ok(())
    }
}

/// Statistics gathered by one enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Partial states expanded.
    pub expanded: u64,
    /// Canonical, valid children pruned by shape distance.
    pub pruned_distance: u64,
    /// Candidate actions rejected by canonicalization.
    pub pruned_canon: u64,
    /// Canonical candidate actions rejected by validity ([`PGraph::peek`]).
    pub invalid: u64,
    /// Complete operators found (pre-dedup).
    pub complete: u64,
    /// Complete operators rejected by budgets.
    pub over_budget: u64,
    /// Semantic duplicates dropped.
    pub duplicates: u64,
}

/// The exhaustive synthesizer of Algorithm 1.
#[derive(Clone, Debug)]
pub struct Enumerator {
    config: SynthConfig,
}

impl Enumerator {
    /// Creates an enumerator with the given configuration.
    pub fn new(config: SynthConfig) -> Self {
        Enumerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Every action the enumerator would try on `graph`, in enumeration
    /// order (the order children are reported, sampled and searched in).
    fn candidates(&self, graph: &PGraph, mut visit: impl FnMut(Action)) {
        let frontier = graph.frontier();
        for (i, &a) in frontier.iter().enumerate() {
            for (j, &b) in frontier.iter().enumerate() {
                if i == j {
                    continue;
                }
                visit(Action::Split { lhs: a, rhs: b });
                visit(Action::Unfold { base: a, window: b });
            }
            for block in &self.config.merge_blocks {
                let block = block.clone();
                visit(Action::Merge { coord: a, block });
            }
            for stride in &self.config.stride_factors {
                let stride = stride.clone();
                visit(Action::Stride { coord: a, stride });
            }
            visit(Action::Shift { coord: a });
            visit(Action::Expand { coord: a });
            for weight in 0..=graph.weight_count() {
                visit(Action::Share { coord: a, weight });
            }
            for weight in 0..graph.weight_count() {
                visit(Action::MatchWeight { coord: a, weight });
            }
        }
        for domain in &self.config.reduce_domains {
            let domain = domain.clone();
            visit(Action::Reduce { domain });
        }
    }

    /// The one child filter: canonicalization, then validity, then — when a
    /// step budget `remaining` is given — the shape distance of the child's
    /// frontier, all decided on `graph` itself ([`PGraph::peek`]); no child
    /// is built. Rejections are counted into `stats` by reason.
    fn filter(
        &self,
        graph: &PGraph,
        remaining: Option<usize>,
        stats: &mut EnumStats,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        // Every candidate's child frontier, one at a time.
        let mut frontier = Vec::with_capacity(graph.frontier().len() + 1);
        self.candidates(graph, |action| {
            if self.config.canon.allows(graph, &action).is_err() {
                stats.pruned_canon += 1;
                return;
            }
            if graph.peek_into(&action, &mut frontier).is_err() {
                stats.invalid += 1;
                return;
            }
            let fits = remaining.is_none_or(|steps| {
                shape_distance(&frontier, graph.spec().input.dims(), graph.vars()) as usize <= steps
            });
            if fits {
                out.push(action);
            } else {
                stats.pruned_distance += 1;
            }
        });
        out
    }

    /// Enumerates the canonical children of `graph`: every applicable action
    /// that passes validity and canonicalization (the unguided form).
    pub fn children(&self, graph: &PGraph) -> Vec<Action> {
        self.filter(graph, None, &mut EnumStats::default())
    }

    /// The children of `graph` guided synthesis may still take (Algorithm 1
    /// line 20): canonical, valid, and with a shape distance that fits the
    /// steps left after taking them. In [`children`](Enumerator::children)
    /// order; empty once `max_steps` primitives are applied. The MCTS memo,
    /// guided [`rollout`]s and the [`Synthesis`] DFS all filter through here.
    pub fn feasible_children(&self, graph: &PGraph) -> Vec<Action> {
        self.counted_feasible_children(graph, &mut EnumStats::default())
    }

    fn counted_feasible_children(&self, graph: &PGraph, stats: &mut EnumStats) -> Vec<Action> {
        match self.config.max_steps.checked_sub(graph.len() + 1) {
            Some(remaining) => self.filter(graph, Some(remaining), stats),
            None => Vec::new(),
        }
    }

    fn within_budgets(&self, graph: &PGraph) -> bool {
        self.config
            .max_flops
            .is_none_or(|limit| analysis::naive_flops(graph, 0).is_some_and(|f| f <= limit))
    }

    /// Starts a resumable synthesis run for `spec`.
    ///
    /// The returned [`Synthesis`] yields operators one at a time; dropping it
    /// abandons the rest of the space at zero cost.
    pub fn synthesis(&self, vars: &Arc<VarTable>, spec: &OperatorSpec) -> Synthesis {
        Synthesis::new(self.config.clone(), vars, spec)
    }
}

/// A resumable, iterator-style synthesis driver (Algorithm 1 as a machine).
///
/// Produced by [`Enumerator::synthesis`]. Each call to
/// [`next_operator`](Synthesis::next_operator) advances the depth-first
/// search just far enough to surface the next canonical, in-budget operator,
/// then suspends, in the order of the recursive DFS of Algorithm 1.
///
/// `Synthesis` also implements [`Iterator`], so the usual adapters work:
///
/// ```
/// use syno_core::prelude::*;
///
/// let mut vars = VarTable::new();
/// let h = vars.declare("H", VarKind::Primary);
/// let s = vars.declare("s", VarKind::Coefficient);
/// vars.push_valuation(vec![(h, 16), (s, 2)]);
/// let vars = vars.into_shared();
/// let spec = OperatorSpec::new(
///     TensorShape::new(vec![Size::var(h)]),
///     TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
/// );
/// let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
/// let first = enumerator.synthesis(&vars, &spec).next();
/// assert!(first.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Synthesis {
    enumerator: Enumerator,
    /// DFS frontier of partial graphs, top of stack next.
    stack: Vec<PGraph>,
    seen: HashSet<u64>,
    stats: EnumStats,
    found: usize,
    pending_error: Option<SynthError>,
    done: bool,
}

impl Synthesis {
    /// Builds a driver rooted at the empty pGraph for `spec`.
    pub fn new(config: SynthConfig, vars: &Arc<VarTable>, spec: &OperatorSpec) -> Synthesis {
        let pending_error = config.validate().and_then(|()| spec.validate(vars)).err();
        let root = PGraph::new(Arc::clone(vars), spec.clone());
        Synthesis {
            enumerator: Enumerator::new(config),
            stack: vec![root],
            seen: HashSet::new(),
            stats: EnumStats::default(),
            found: 0,
            pending_error,
            done: false,
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> EnumStats {
        self.stats
    }

    /// Number of operators yielded so far.
    pub fn found(&self) -> usize {
        self.found
    }

    /// Advances the search to the next canonical operator.
    ///
    /// Returns `Some(Ok(graph))` per discovery, `Some(Err(_))` exactly once
    /// if the run dies (invalid spec/config, or the `max_visits` safety
    /// valve), and `None` when the space is exhausted or `max_results` was
    /// reached. After an `Err` or `None` the driver is finished and keeps
    /// returning `None`.
    pub fn next_operator(&mut self) -> Option<Result<PGraph, SynthError>> {
        if self.done {
            return None;
        }
        if let Some(err) = self.pending_error.take() {
            self.done = true;
            return Some(Err(err));
        }
        let (max_results, max_visits) = {
            let config = self.enumerator.config();
            (config.max_results, config.max_visits as u64)
        };
        while let Some(graph) = self.stack.pop() {
            if self.found >= max_results {
                break;
            }
            if self.stats.expanded >= max_visits {
                self.done = true;
                return Some(Err(SynthError::VisitBudgetExhausted {
                    visited: self.stats.expanded,
                    found: self.found,
                }));
            }
            self.stats.expanded += 1;

            let mut fresh = false;
            if graph.is_complete() && !graph.is_empty() {
                self.stats.complete += 1;
                if !self.enumerator.within_budgets(&graph) {
                    self.stats.over_budget += 1;
                } else if self.seen.insert(graph.state_hash()) {
                    fresh = true;
                } else {
                    self.stats.duplicates += 1;
                }
            }

            // Push children before yielding so the suspended traversal
            // resumes exactly where the recursive DFS would have continued.
            let children = self
                .enumerator
                .counted_feasible_children(&graph, &mut self.stats);
            for action in children.iter().rev() {
                let child = graph.apply(action).expect("feasible child applies");
                self.stack.push(child);
            }

            if fresh {
                self.found += 1;
                return Some(Ok(graph));
            }
        }
        self.done = true;
        None
    }
}

impl Iterator for Synthesis {
    type Item = Result<PGraph, SynthError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_operator()
    }
}

/// Outcome of a random rollout.
#[derive(Clone, Debug)]
pub enum RolloutResult {
    /// A complete operator within budgets.
    Complete(Box<PGraph>),
    /// The trajectory reached a state with no child left to take.
    DeadEnd,
    /// The trajectory took `max_steps` primitives without completing.
    StepLimit,
    /// Completed but violated the FLOPs budget.
    OverBudget,
}

impl RolloutResult {
    /// Unwraps a completed graph.
    pub fn complete(self) -> Option<PGraph> {
        match self {
            RolloutResult::Complete(g) => Some(*g),
            _ => None,
        }
    }
}

/// Where a rollout takes each state's children from. [`rollout`] filters
/// every state it reaches; the MCTS in `syno-search` filters each action
/// path once per search and reads the list back after that.
pub trait ChildSource {
    /// The children of `state` to sample from, in enumeration order.
    fn children(&mut self, state: &PGraph) -> &[Action];
    /// The rollout moves to child `pick` of the list last returned.
    fn take(&mut self, _pick: usize) {}
}

/// [`rollout`]'s source: filters each state afresh.
struct Filter<'a> {
    enumerator: &'a Enumerator,
    guided: bool,
    children: Vec<Action>,
}

impl ChildSource for Filter<'_> {
    fn children(&mut self, state: &PGraph) -> &[Action] {
        self.children = if self.guided {
            self.enumerator.feasible_children(state)
        } else {
            self.enumerator.children(state)
        };
        &self.children
    }
}

/// Randomly extends `graph` by up to `max_steps − graph.len()` primitives.
///
/// With `guided = true`, children violating the shape-distance bound are
/// filtered before sampling (the paper's guided flow); with `guided = false`
/// the sampler picks uniformly from all canonical children — the §9.4
/// ablation setting.
pub fn rollout<R: Rng + ?Sized>(
    rng: &mut R,
    enumerator: &Enumerator,
    graph: &PGraph,
    guided: bool,
) -> RolloutResult {
    let mut filter = Filter {
        enumerator,
        guided,
        children: Vec::new(),
    };
    rollout_with(rng, enumerator, graph.clone(), &mut filter)
}

/// The rollout loop: from `current`, draws one child of each state
/// uniformly from `source` until the graph completes (judged against
/// `enumerator`'s budgets), `max_steps` primitives are taken, or a state has
/// no child. The same lists in the same order take the same draws, whatever
/// the source.
pub fn rollout_with<R: Rng + ?Sized>(
    rng: &mut R,
    enumerator: &Enumerator,
    mut current: PGraph,
    source: &mut impl ChildSource,
) -> RolloutResult {
    loop {
        if current.is_complete() && !current.is_empty() {
            return if enumerator.within_budgets(&current) {
                RolloutResult::Complete(Box::new(current))
            } else {
                RolloutResult::OverBudget
            };
        }
        if current.len() >= enumerator.config.max_steps {
            return RolloutResult::StepLimit;
        }
        let children = source.children(&current);
        if children.is_empty() {
            return RolloutResult::DeadEnd;
        }
        let pick = rng.random_range(0..children.len());
        current = current
            .apply(&children[pick])
            .expect("filtered child applies");
        source.take(pick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TensorShape;
    use crate::var::VarKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_setup() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        (vars.into_shared(), spec)
    }

    /// Drives a synthesis of `spec` to the end of the space.
    fn exhaust(
        enumerator: &Enumerator,
        vars: &Arc<VarTable>,
        spec: &OperatorSpec,
    ) -> (Vec<PGraph>, EnumStats) {
        let mut driver = enumerator.synthesis(vars, spec);
        let results = driver
            .by_ref()
            .collect::<Result<_, _>>()
            .expect("no budget errors in this space");
        (results, driver.stats())
    }

    #[test]
    fn enumerator_finds_average_pooling() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig::auto(&vars, 2);
        let enumerator = Enumerator::new(config);
        let (results, stats) = exhaust(&enumerator, &vars, &spec);
        assert!(stats.expanded > 0);
        // Reduce(s); Split  — the Table 2 average-pooling operator — must be
        // among the results.
        assert!(
            !results.is_empty(),
            "expected at least one valid operator, stats: {stats:?}"
        );
        assert!(results.iter().all(|g| g.is_complete()));
    }

    #[test]
    fn enumerator_respects_step_limit() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig::auto(&vars, 1);
        let enumerator = Enumerator::new(config);
        let (results, _) = exhaust(&enumerator, &vars, &spec);
        // One primitive cannot turn [H/s] into [H] (needs Reduce + Split).
        assert!(results.is_empty());
    }

    #[test]
    fn results_are_deduplicated() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig::auto(&vars, 3);
        let enumerator = Enumerator::new(config);
        let (results, _) = exhaust(&enumerator, &vars, &spec);
        let mut hashes: Vec<u64> = results.iter().map(|g| g.state_hash()).collect();
        hashes.sort_unstable();
        let before = hashes.len();
        hashes.dedup();
        assert_eq!(before, hashes.len());
    }

    #[test]
    fn guided_rollouts_succeed_where_unguided_struggle() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig::auto(&vars, 3);
        let enumerator = Enumerator::new(config);
        let root = PGraph::new(Arc::clone(&vars), spec);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 60;
        let guided_hits = (0..trials)
            .filter(|_| {
                matches!(
                    rollout(&mut rng, &enumerator, &root, true),
                    RolloutResult::Complete(_)
                )
            })
            .count();
        assert!(
            guided_hits > 0,
            "guided rollouts should find valid operators"
        );
    }

    #[test]
    fn flops_budget_filters_results() {
        let (vars, spec) = pool_setup();
        let mut config = SynthConfig::auto(&vars, 3);
        config.max_flops = Some(1); // nothing fits
        let enumerator = Enumerator::new(config);
        let (results, stats) = exhaust(&enumerator, &vars, &spec);
        assert!(results.is_empty());
        assert!(stats.over_budget > 0 || stats.complete == 0);
    }

    #[test]
    fn synthesis_streams_same_results_as_enumerate() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig::auto(&vars, 3);
        let enumerator = Enumerator::new(config);
        let (batch, batch_stats) = exhaust(&enumerator, &vars, &spec);

        // Suspending after every discovery changes nothing.
        let mut driver = enumerator.synthesis(&vars, &spec);
        let mut streamed = Vec::new();
        while let Some(item) = driver.next_operator() {
            streamed.push(item.expect("no budget errors in this space"));
        }
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.state_hash(), b.state_hash());
        }
        assert_eq!(batch_stats, driver.stats());
        assert!(driver.next_operator().is_none(), "finished drivers stay done");
    }

    #[test]
    fn filter_accounts_for_every_candidate() {
        let (vars, spec) = pool_setup();
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let s = Size::var(vars.find("s").unwrap());
        let state = PGraph::new(Arc::clone(&vars), spec.clone())
            .apply(&Action::Reduce { domain: s })
            .unwrap();
        let mut offered = 0u64;
        enumerator.candidates(&state, |_| offered += 1);
        let mut stats = EnumStats::default();
        let kept = enumerator.counted_feasible_children(&state, &mut stats);
        assert_eq!(kept, enumerator.feasible_children(&state));
        let rejected = stats.pruned_canon + stats.invalid + stats.pruned_distance;
        assert_eq!(offered, kept.len() as u64 + rejected, "{stats:?}");
        assert!(!kept.is_empty() && stats.pruned_canon > 0 && stats.invalid > 0);

        // The DFS reports the same three reasons over the whole space.
        let (_, total) = exhaust(&enumerator, &vars, &spec);
        assert!(total.pruned_canon > 0 && total.invalid > 0 && total.pruned_distance > 0);
    }

    #[test]
    fn synthesis_can_stop_after_first_discovery() {
        let (vars, spec) = pool_setup();
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let mut driver = enumerator.synthesis(&vars, &spec);
        let first = driver.next_operator().expect("space is nonempty");
        assert!(first.is_ok());
        // Suspended early: far fewer states expanded than a full enumeration.
        let (_, full) = exhaust(&enumerator, &vars, &spec);
        assert!(driver.stats().expanded < full.expanded);
        assert_eq!(driver.found(), 1);
    }

    #[test]
    fn synthesis_reports_visit_budget_as_typed_error() {
        let (vars, spec) = pool_setup();
        let config = SynthConfig {
            max_visits: 4,
            ..SynthConfig::auto(&vars, 3)
        };
        let mut driver = Enumerator::new(config).synthesis(&vars, &spec);
        let mut saw_budget_error = false;
        while let Some(item) = driver.next_operator() {
            if let Err(SynthError::VisitBudgetExhausted { visited, .. }) = item {
                assert!(visited >= 4);
                saw_budget_error = true;
            }
        }
        assert!(saw_budget_error, "tiny visit budget must trip the valve");
        assert!(driver.next_operator().is_none());
    }

    #[test]
    fn zero_budgets_are_typed_errors() {
        let (vars, spec) = pool_setup();
        let auto = SynthConfig::auto(&vars, 3);
        assert!(auto.validate().is_ok());
        let zeroed = [
            SynthConfig { max_steps: 0, ..auto.clone() },
            SynthConfig { max_results: 0, ..auto.clone() },
            SynthConfig { max_visits: 0, ..auto },
        ];
        for config in zeroed {
            assert!(
                matches!(config.validate(), Err(SynthError::InvalidConfig(_))),
                "{config:?}"
            );
            let mut driver = Synthesis::new(config, &vars, &spec);
            assert!(matches!(
                driver.next_operator(),
                Some(Err(SynthError::InvalidConfig(_)))
            ));
            assert!(driver.next_operator().is_none());
        }
    }

    #[test]
    fn invalid_spec_surfaces_through_next_operator() {
        // A variable table with no valuations cannot evaluate any shape.
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h)]),
        );
        let mut driver = Synthesis::new(SynthConfig::auto(&VarTable::new(), 2), &vars, &spec);
        match driver.next_operator() {
            Some(Err(SynthError::InvalidSpec(_))) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        assert!(driver.next_operator().is_none());
    }

    #[test]
    fn a_rank_24_spec_is_filtered_without_panicking() {
        // Longer than the shape distance's inline scratch: the daemon admits
        // specs of any rank.
        let mut vars = VarTable::new();
        let [a, b, c] = ["A", "B", "C"].map(|n| vars.declare(n, VarKind::Primary));
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(a, 4), (b, 6), (c, 8), (k, 2)]);
        let dims = |shift: usize| {
            let cycle = (0..24).map(|i| Size::var([a, b, c][(i + shift) % 3]));
            TensorShape::new(cycle.collect())
        };
        let spec = OperatorSpec::new(dims(1), dims(0));
        let vars = vars.into_shared();
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 1));
        let root = PGraph::new(vars, spec);
        let feasible = enumerator.feasible_children(&root);
        let children = enumerator.children(&root);
        assert!(!feasible.is_empty() && feasible.len() < children.len());
        assert!(feasible.iter().all(|action| children.contains(action)));
    }

    #[test]
    fn auto_config_generates_parameters() {
        let (vars, _) = pool_setup();
        let config = SynthConfig::auto(&vars, 4);
        assert!(config.merge_blocks.iter().any(|b| !b.is_one()));
        // H and H/s must be candidate reduce domains.
        let h = Size::var(vars.find("H").unwrap());
        let s = Size::var(vars.find("s").unwrap());
        assert!(config.reduce_domains.contains(&h));
        assert!(config.reduce_domains.contains(&h.div(&s)));
    }
}
