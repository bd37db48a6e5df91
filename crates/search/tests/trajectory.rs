//! Pins the search *trajectory* on the toy vision spec, not just its hashes:
//! which operator each of 200 seeded guided rollouts completes, in order, and
//! the `(content_hash, reward bits)` set of a 300-iteration seeded MCTS run.
//!
//! `trajectory.expected` was recorded before synthesis was made clone-free
//! (validity and shape distance decided on the parent pGraph). Any change to
//! the children a state offers, their order, or the RNG draws taken moves a
//! line here; `benchmark/expected/*.digest` checks the same thing end to
//! end, this test localises a break to `syno-core`/`syno-search`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use syno_core::prelude::*;
use syno_search::mcts::{Mcts, MctsConfig};

/// `[N, Cin, H, W] → [N, Cout, H, W]` at N=4, Cin=3, Cout=4, H=W=8, k=3 with
/// the configuration `SearchBuilder` synthesizes with by default.
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
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(dims(cin), dims(cout));
    let enumerator = Enumerator::new(SynthConfig::auto(&vars, 4));
    (enumerator, PGraph::new(Arc::clone(&vars), spec))
}

fn trajectory() -> Vec<String> {
    let (enumerator, root) = toy_vision();
    let mut lines = Vec::new();

    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..200 {
        let line = match rollout(&mut rng, &enumerator, &root, true) {
            RolloutResult::Complete(g) => format!("rollout {i} {:016x}", g.content_hash()),
            RolloutResult::DeadEnd | RolloutResult::StepLimit => format!("rollout {i} incomplete"),
            RolloutResult::OverBudget => format!("rollout {i} over-budget"),
        };
        lines.push(line);
    }

    let config = MctsConfig {
        iterations: 300,
        seed: 7,
        ..MctsConfig::default()
    };
    let mut mcts = Mcts::new(enumerator, config);
    // Hash-derived rewards spread over [0, 1), so UCB selection reads them.
    let found = mcts.search(&root, |g| (g.content_hash() % 1024) as f64 / 1024.0);
    let mut set: Vec<(u64, u64)> = found
        .iter()
        .map(|d| (d.graph.content_hash(), d.reward.to_bits()))
        .collect();
    set.sort_unstable();
    lines.extend(
        set.iter()
            .map(|(hash, bits)| format!("mcts {hash:016x} {bits:016x}")),
    );
    lines.push(format!(
        "mcts-stats completed={} failed={} distinct={}",
        mcts.stats.completed_rollouts, mcts.stats.failed_rollouts, mcts.stats.distinct_operators
    ));
    lines
}

/// The comment lines a regenerated `trajectory.expected` starts with.
const HEADER: &str = "\
# Blessed at commit <fill in when moving this pin> by crates/search/tests/trajectory.rs:
# 200 guided rollouts (StdRng seed 7) from the empty toy-vision graph, then the
# sorted (content_hash, reward bits) set of a 300-iteration Mcts::search (seed 7).
";

#[test]
fn seeded_search_trajectory_is_pinned() {
    let expected: Vec<&str> = include_str!("trajectory.expected")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let actual = trajectory();
    if expected != actual {
        // The regeneration path: the whole actual trajectory, header
        // included, ready to review and copy over `trajectory.expected`.
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trajectory.actual");
        let body: String = actual.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, format!("{HEADER}{body}")).expect("write trajectory.actual");
        let at = (0..).find(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str));
        let at = at.expect("the trajectories differ");
        panic!(
            "trajectory diverges at line {at}: want {:?}, got {:?} ({} vs {} lines). \
             The full actual trajectory is in {}; if the move is intended, copy it \
             over crates/search/tests/trajectory.expected and record the move in \
             CHANGES.md's \"Pins moved\" table",
            expected.get(at),
            actual.get(at),
            expected.len(),
            actual.len(),
            path.display()
        );
    }
    assert!(
        actual.iter().any(|l| l.starts_with("mcts ")),
        "the pinned search must discover something"
    );
}
