//! A brute-force census of the feasible tree: a ratchet on the redundancy
//! canonicalization leaves behind.
//!
//! Each walk starts at the empty graph of a toy spec (vision, and a
//! sequence spec with another variable table and rank) and follows
//! [`Enumerator::feasible_children`] depth first; a complete, non-empty
//! state is a leaf and is not expanded. Every path to a state is visited, so
//! the census counts how many paths reach the same state and whether states
//! that hash alike offer the same children.
//!
//! The redundancy counts are upper bounds: a change to `CanonRules` may
//! lower them and must not raise them. The number of distinct operators is
//! exact: a change that moves it changes what synthesis can find, and must
//! say why.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use syno_core::prelude::*;

/// `[N, Cin, H, W] → [N, Cout, H, W]` at N=4, Cin=3, Cout=4, H=W=8, k=3
/// (the toy vision spec of `syno-search`'s trajectory pin).
fn toy_vision(steps: usize) -> (Enumerator, PGraph) {
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
    let enumerator = Enumerator::new(SynthConfig::auto(&vars, steps));
    (enumerator, PGraph::new(Arc::clone(&vars), spec))
}

/// `[B, T, C] → [B, T, C]` at B=4, T=4, C=8, k=2 (the toy sequence spec of
/// `syno-ir`'s eager schedule test).
fn toy_sequence(steps: usize) -> (Enumerator, PGraph) {
    let mut vars = VarTable::new();
    let [b, t, c] = ["B", "T", "C"].map(|v| vars.declare(v, VarKind::Primary));
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let vars = vars.into_shared();
    let dims = TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]);
    let spec = OperatorSpec::new(dims.clone(), dims);
    let enumerator = Enumerator::new(SynthConfig::auto(&vars, steps));
    (enumerator, PGraph::new(Arc::clone(&vars), spec))
}

#[derive(Debug)]
struct Census {
    /// Every state the walk visits, one per path.
    states: usize,
    /// Distinct `(state_hash, depth)` pairs.
    distinct_states: usize,
    /// Complete, non-empty states (one per path).
    complete_leaves: usize,
    /// Distinct complete operators by `state_hash`.
    operators_by_state_hash: usize,
    /// Distinct complete operators by `content_hash`.
    operators_by_content_hash: usize,
    /// `(state_hash, depth)` groups reached by more than one path.
    multi_path_groups: usize,
    /// Those of the groups whose members offer different numbers of
    /// feasible children.
    groups_differing_in_children: usize,
    /// The most paths that reach one operator (by `state_hash`).
    max_paths_per_operator: usize,
}

fn census((enumerator, root): (Enumerator, PGraph)) -> Census {
    // Per `(state_hash, depth)`: the feasible-children count of each member,
    // leaves included (the walk does not expand them, a search may).
    let mut groups: HashMap<(u64, usize), Vec<usize>> = HashMap::new();
    let mut content: HashSet<u64> = HashSet::new();
    let mut paths: HashMap<u64, usize> = HashMap::new();
    let mut states = 0;
    let mut leaves = 0;
    let mut stack = vec![root];
    while let Some(state) = stack.pop() {
        states += 1;
        let key = (state.state_hash(), state.len());
        let children = enumerator.feasible_children(&state);
        groups.entry(key).or_default().push(children.len());
        if state.is_complete() && !state.is_empty() {
            leaves += 1;
            content.insert(state.content_hash());
            *paths.entry(key.0).or_default() += 1;
            continue;
        }
        for action in &children {
            stack.push(state.apply(action).expect("feasible child applies"));
        }
    }
    let multi: Vec<&Vec<usize>> = groups.values().filter(|m| m.len() > 1).collect();
    Census {
        states,
        distinct_states: groups.len(),
        complete_leaves: leaves,
        operators_by_state_hash: paths.len(),
        operators_by_content_hash: content.len(),
        multi_path_groups: multi.len(),
        groups_differing_in_children: multi
            .iter()
            .filter(|m| m.iter().any(|&c| c != m[0]))
            .count(),
        max_paths_per_operator: paths.values().copied().max().unwrap_or(0),
    }
}

/// Asserts `==` on the operator counts and `<=` on every redundancy count
/// against `bound`, printing the whole census on failure.
fn assert_within(actual: &Census, bound: &Census) {
    let exact = actual.operators_by_state_hash == bound.operators_by_state_hash
        && actual.operators_by_content_hash == bound.operators_by_content_hash;
    let within = actual.states <= bound.states
        && actual.distinct_states <= bound.distinct_states
        && actual.complete_leaves <= bound.complete_leaves
        && actual.multi_path_groups <= bound.multi_path_groups
        && actual.groups_differing_in_children <= bound.groups_differing_in_children
        && actual.max_paths_per_operator <= bound.max_paths_per_operator;
    assert!(
        exact && within,
        "census moved (operator counts must match exactly, the rest may only fall)\n\
         actual: {actual:#?}\nbound:  {bound:#?}"
    );
}

#[test]
fn four_step_census_is_within_its_bound() {
    assert_within(
        &census(toy_vision(4)),
        &Census {
            states: 1_209,
            distinct_states: 893,
            complete_leaves: 347,
            operators_by_state_hash: 217,
            operators_by_content_hash: 217,
            multi_path_groups: 192,
            groups_differing_in_children: 65,
            max_paths_per_operator: 17,
        },
    );
}

/// Ignored by default: the walk takes seconds in debug. CI runs it in release.
#[test]
#[ignore]
fn five_step_census_is_within_its_bound() {
    assert_within(
        &census(toy_vision(5)),
        &Census {
            states: 13_614,
            distinct_states: 7_677,
            complete_leaves: 3_313,
            operators_by_state_hash: 1_527,
            operators_by_content_hash: 1_527,
            multi_path_groups: 2_698,
            groups_differing_in_children: 796,
            max_paths_per_operator: 51,
        },
    );
}

#[test]
fn four_step_sequence_census_is_within_its_bound() {
    assert_within(
        &census(toy_sequence(4)),
        &Census {
            states: 4_458,
            distinct_states: 3_353,
            complete_leaves: 1_443,
            operators_by_state_hash: 1_232,
            operators_by_content_hash: 1_232,
            multi_path_groups: 386,
            groups_differing_in_children: 161,
            max_paths_per_operator: 23,
        },
    );
}

/// Ignored by default, as the 5-step vision walk is. CI runs it in release.
#[test]
#[ignore]
fn five_step_sequence_census_is_within_its_bound() {
    assert_within(
        &census(toy_sequence(5)),
        &Census {
            states: 47_003,
            distinct_states: 30_788,
            complete_leaves: 11_961,
            operators_by_state_hash: 8_526,
            operators_by_content_hash: 8_526,
            multi_path_groups: 6_295,
            groups_differing_in_children: 1_960,
            max_paths_per_operator: 48,
        },
    );
}
