//! One scorer prepared per search, shared by its evaluator workers: scoring a
//! candidate through it — from two threads racing to fill its batch slots, in
//! two different orders — equals the one-shot `ProxyFamily::score`, which
//! prepares for that candidate alone, bit for bit and typed error for typed
//! error. On rollout-sampled operators of the searches' toy vision and toy
//! sequence specs; `PROPTEST_CASES` sets how many per family (at least 16).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use syno_core::error::SynoError;
use syno_core::prelude::*;
use syno_nn::{OperatorLayer, ProxyConfig, ProxyFamilyId, TrainConfig};

fn toy_specs() -> [(ProxyFamilyId, Arc<VarTable>, OperatorSpec); 2] {
    let shape = |dims: &[VarId]| TensorShape::new(dims.iter().map(|&d| Size::var(d)).collect());
    let mut vars = VarTable::new();
    let [n, cin, cout, h, w] = ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let vision = OperatorSpec::new(shape(&[n, cin, h, w]), shape(&[n, cout, h, w]));
    let mut seq_vars = VarTable::new();
    let [b, t, c] = ["B", "T", "C"].map(|v| seq_vars.declare(v, VarKind::Primary));
    let k = seq_vars.declare("k", VarKind::Coefficient);
    seq_vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let sequence = OperatorSpec::new(shape(&[b, t, c]), shape(&[b, t, c]));
    [
        (ProxyFamilyId::Vision, vars.into_shared(), vision),
        (ProxyFamilyId::Sequence, seq_vars.into_shared(), sequence),
    ]
}

/// Distinct rollout-sampled operators of `spec`: the first `trainable` that
/// can be realized and the first few that cannot (each a typed skip), with
/// how many of the latter.
fn sample(vars: &Arc<VarTable>, spec: &OperatorSpec, trainable: usize) -> (Vec<PGraph>, usize) {
    let enumerator = Enumerator::new(SynthConfig::auto(vars, 5));
    let root = PGraph::new(Arc::clone(vars), spec.clone());
    let mut rng = StdRng::seed_from_u64(19);
    let (mut graphs, mut seen, mut kept) = (Vec::new(), BTreeSet::new(), [0usize; 2]);
    for _ in 0..4_000 {
        let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) else {
            continue;
        };
        let realizable = OperatorLayer::new(&*g, 0).is_ok();
        let wanted = if realizable { trainable } else { 4 };
        if kept[usize::from(realizable)] < wanted && seen.insert(g.content_hash()) {
            kept[usize::from(realizable)] += 1;
            graphs.push(*g);
        }
    }
    assert_eq!(kept[1], trainable, "the rollout reaches enough distinct operators");
    (graphs, kept[0])
}

/// A vision operator whose weight the eager lowering cannot place
/// (`EagerError::WeightNotRealizable`, which the rollout rarely reaches): its
/// two dims — `H` before the shift, the reduced `Cin` after it — are never
/// live together.
fn unplaceable_weight(vars: &Arc<VarTable>, spec: &OperatorSpec) -> PGraph {
    let g = PGraph::new(Arc::clone(vars), spec.clone());
    let (co, h) = (g.frontier()[1], g.frontier()[2]);
    let g = g.apply(&Action::Share { coord: h, weight: 0 }).unwrap();
    let shared = g.last_node().unwrap().produced()[0];
    let g = g.apply(&Action::Shift { coord: shared }).unwrap();
    let g = g.apply(&Action::Expand { coord: co }).unwrap();
    let cin = spec.input.dims()[1].clone();
    let g = g.apply(&Action::Reduce { domain: cin }).unwrap();
    let reduced = g.last_node().unwrap().produced()[0];
    let g = g.apply(&Action::Share { coord: reduced, weight: 0 }).unwrap();
    assert!(g.is_complete());
    g
}

/// A score as its bits, a failure as its message.
fn outcome(scored: Result<f32, SynoError>) -> Result<u32, String> {
    scored.map(f32::to_bits).map_err(|e| e.to_string())
}

#[test]
fn a_shared_scorer_scores_as_the_one_shot_score_does() {
    let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
    let trainable = cases.unwrap_or(48).max(16);
    let config = ProxyConfig {
        train: TrainConfig {
            steps: 3,
            eval_batches: 2,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    };
    for (id, vars, spec) in toy_specs() {
        let family = id.family();
        let (mut graphs, mut unrealizable) = sample(&vars, &spec, trainable);
        if id == ProxyFamilyId::Vision {
            graphs.push(unplaceable_weight(&vars, &spec));
            unrealizable += 1;
        }
        let one_shot: Vec<_> = graphs.iter().map(|g| outcome(family.score(g, 0, &config))).collect();
        let failed = one_shot.iter().filter(|o| o.is_err()).count();
        assert_eq!(failed, unrealizable, "{id}: only unrealizable operators fail");
        // The typed skips being compared: `DiagonalWeight` from the rollout,
        // `WeightNotRealizable` from the hand-built operator.
        let skips = ["binds two dims to one axis", "no point where all dims are live"];
        for reason in &skips[..if id == ProxyFamilyId::Vision { 2 } else { 1 }] {
            let met = one_shot.iter().any(|o| o.as_ref().is_err_and(|e| e.contains(reason)));
            assert!(met, "{id}: no sampled operator fails because its weight {reason}");
        }

        let scorer = family.prepare(&spec, &vars, 0, &config).unwrap();
        // Both workers start together, so they race for the same slots.
        let start = Barrier::new(2);
        let (forward, mut backward) = std::thread::scope(|s| {
            let forward = s.spawn(|| {
                start.wait();
                graphs.iter().map(|g| outcome(scorer.score(g))).collect::<Vec<_>>()
            });
            let backward = s.spawn(|| {
                start.wait();
                graphs.iter().rev().map(|g| outcome(scorer.score(g))).collect::<Vec<_>>()
            });
            (forward.join().unwrap(), backward.join().unwrap())
        });
        backward.reverse();
        assert_eq!(forward, one_shot, "{id}: shared scorer, sampling order");
        assert_eq!(backward, one_shot, "{id}: shared scorer, reverse order");
    }
}
