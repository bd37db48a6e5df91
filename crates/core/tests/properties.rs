//! Property-based tests over the synthesis core: size algebra laws, shape
//! distance axioms, invariants of randomly sampled operators, and the
//! clone-free synthesis path held to the code it replaced (`peek` against
//! `apply`, the one feasibility filter against apply-then-measure, the shape
//! distance against its previous implementation in `oracle`).

mod oracle;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use syno_core::prelude::*;

fn small_sizes() -> impl Strategy<Value = (u64, u64, u64)> {
    (1u64..=8, 1u64..=8, 1u64..=8)
}

proptest! {
    /// Size multiplication is commutative and associative, division is the
    /// inverse of multiplication, and evaluation is a homomorphism.
    #[test]
    fn size_algebra_laws((a, b, c) in small_sizes()) {
        let mut vars = VarTable::new();
        let x = vars.declare("x", VarKind::Primary);
        let y = vars.declare("y", VarKind::Coefficient);
        let z = vars.declare("z", VarKind::Coefficient);
        vars.push_valuation(vec![(x, a), (y, b), (z, c)]);
        let (sx, sy, sz) = (Size::var(x), Size::var(y), Size::var(z));

        prop_assert_eq!(sx.mul(&sy), sy.mul(&sx));
        prop_assert_eq!(sx.mul(&sy).mul(&sz), sx.mul(&sy.mul(&sz)));
        prop_assert_eq!(sx.mul(&sy).div(&sy), sx.clone());
        prop_assert_eq!(
            sx.mul(&sy).eval(&vars, 0),
            Some(a * b)
        );
        // pow/recip consistency.
        prop_assert_eq!(sx.pow(2), sx.mul(&sx));
        prop_assert_eq!(sx.recip().recip(), sx.clone());
    }
}

/// The layout `Size` replaced, built from what `powers()` yields.
type MapSize = (u64, u64, std::collections::BTreeMap<VarId, i32>);

fn as_map(size: &Size) -> MapSize {
    let (num, den) = size.constant_factor();
    (num, den, size.powers().collect())
}

proptest! {
    /// The inline `Size` hashes to the bytes its former `(num, den,
    /// BTreeMap<VarId, i32>)` layout derived, and `cmp_key` orders as that
    /// tuple did, over all sixteen variable slots and the whole `i8` range —
    /// so `state_hash`, `content_hash` and every pin are layout-independent.
    #[test]
    fn size_hash_and_order_match_the_map_layout(seed in 0u64..u64::MAX) {
        let mut table = VarTable::new();
        let ids: Vec<VarId> = (0..syno_core::size::MAX_VARS)
            .map(|i| table.declare(&format!("v{i}"), VarKind::Primary))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sample = || {
            let mut size = Size::constant(rng.random_range(1..=12u64))
                .div(&Size::constant(rng.random_range(1..=12u64)));
            for _ in 0..rng.random_range(0..5) {
                let var = ids[rng.random_range(0..ids.len())];
                let exp = rng.random_range(-128..=127i32);
                if let Some(next) = size.checked_mul(&Size::var_pow(var, exp)) {
                    size = next;
                }
            }
            size
        };
        let sizes: Vec<Size> = (0..8).map(|_| sample()).collect();
        for a in &sizes {
            prop_assert_eq!(stable_hash_of(a), stable_hash_of(&as_map(a)));
            for b in &sizes {
                prop_assert_eq!(a.cmp_key(b), as_map(a).cmp(&as_map(b)));
                prop_assert_eq!(a == b, as_map(a) == as_map(b));
            }
        }
    }
}

proptest! {
    /// Shape distance is zero exactly on permutations of identical shapes,
    /// and positive otherwise for disjoint primary shapes.
    #[test]
    fn shape_distance_axioms(perm in 0usize..6) {
        let mut vars = VarTable::new();
        let a = vars.declare("A", VarKind::Primary);
        let b = vars.declare("B", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        vars.push_valuation(vec![(a, 4), (b, 8), (c, 16)]);
        let dims = [Size::var(a), Size::var(b), Size::var(c)];
        let orders = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let permuted: Vec<Size> = orders[perm].iter().map(|&i| dims[i].clone()).collect();
        prop_assert_eq!(shape_distance(&permuted, &dims, &vars), 0);
        // Dropping a dim costs at least one step.
        prop_assert!(shape_distance(&permuted[..2], &dims, &vars) >= 1);
    }
}

proptest! {
    /// Every operator the guided sampler completes is structurally sound:
    /// complete, positive FLOPs, consistent parameter accounting, and a
    /// stable semantic hash under re-render.
    #[test]
    fn sampled_operators_are_sound(seed in 0u64..40) {
        let mut vars = VarTable::new();
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(cin, 8), (cout, 16), (h, 16), (k, 3)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(cin), Size::var(h)]),
            TensorShape::new(vec![Size::var(cout), Size::var(h)]),
        );
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 4));
        let root = PGraph::new(Arc::clone(&vars), spec);
        let mut rng = StdRng::seed_from_u64(seed);
        if let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) {
            prop_assert!(g.is_complete());
            let flops = analysis::naive_flops(&g, 0).expect("flops evaluate");
            prop_assert!(flops > 0);
            let params = analysis::parameter_count(&g, 0).expect("params evaluate");
            let weight_sum: u128 = g
                .weights()
                .iter()
                .map(|w| w.numel().unwrap().eval(g.vars(), 0).unwrap() as u128)
                .sum();
            prop_assert_eq!(params, weight_sum);
            prop_assert_eq!(g.state_hash(), g.clone().state_hash());
        }
    }
}

proptest! {
    /// Canonical replays stay canonical: a graph built from the enumerator's
    /// own children never violates the rules it was filtered by.
    #[test]
    fn enumerator_children_are_self_consistent(seed in 0u64..25) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h)]),
        );
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let rules = CanonRules::default();
        let mut state = PGraph::new(Arc::clone(&vars), spec);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let children = enumerator.children(&state);
            if children.is_empty() { break; }
            let action = &children[rng.random_range(0..children.len())];
            prop_assert!(rules.allows(&state, action).is_ok());
            state = state.apply(action).expect("child applies");
        }
    }
}

/// `[N, Cin, H, W] → [N, Cout, H, W]`, small enough to walk, rich enough to
/// reach every primitive and every `ApplyError`.
fn vision() -> (Arc<VarTable>, OperatorSpec, Enumerator) {
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
    (vars, spec, enumerator)
}

/// Every action worth offering `state`, valid or not: the enumerator's own
/// candidates plus the malformed ones it never generates (repeated and stale
/// operands, out-of-range weight slots, primary or non-dividing parameters).
fn every_action(state: &PGraph, config: &SynthConfig) -> Vec<Action> {
    let vars = state.vars();
    let primary = Size::var(vars.primaries().next().expect("a primary"));
    let mut coords = state.frontier().to_vec();
    coords.extend(
        state
            .nodes()
            .iter()
            .flat_map(|n| n.action.operands())
            .take(2),
    );
    let with_bad = |good: &[Size]| -> Vec<Size> {
        let bad = [
            primary.clone(),
            primary.recip(),
            Size::constant(5),
            Size::one(),
        ];
        good.iter().cloned().chain(bad).collect()
    };
    let mut out = Vec::new();
    for &a in &coords {
        for &b in &coords {
            out.push(Action::Split { lhs: a, rhs: b });
            out.push(Action::Unfold { base: a, window: b });
        }
        for block in with_bad(&config.merge_blocks) {
            out.push(Action::Merge { coord: a, block });
        }
        for stride in with_bad(&config.stride_factors) {
            out.push(Action::Stride { coord: a, stride });
        }
        out.push(Action::Shift { coord: a });
        out.push(Action::Expand { coord: a });
        for weight in 0..=state.weight_count() + 1 {
            out.push(Action::Share { coord: a, weight });
            out.push(Action::MatchWeight { coord: a, weight });
        }
    }
    for domain in with_bad(&config.reduce_domains) {
        out.push(Action::Reduce { domain });
    }
    out
}

proptest! {
    /// `peek` is `apply` without the child: along seeded walks, for every
    /// action, both accept or both reject with the same `ApplyError`, and the
    /// peeked domains are the child's frontier sizes.
    #[test]
    fn peek_agrees_with_apply(seed in 0u64..1000) {
        let (vars, spec, enumerator) = vision();
        let config = enumerator.config();
        let mut state = PGraph::new(vars, spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rejected = 0;
        for _ in 0..config.max_steps {
            for action in every_action(&state, config) {
                match (state.peek(&action), state.apply(&action)) {
                    (Ok(sizes), Ok(child)) => prop_assert_eq!(sizes, child.frontier_sizes()),
                    (Err(peeked), Err(applied)) => {
                        rejected += 1;
                        prop_assert_eq!(peeked, applied);
                    }
                    (peeked, applied) => prop_assert!(
                        false,
                        "{action:?}: peek {peeked:?} but apply {:?}",
                        applied.map(|g| g.frontier_sizes())
                    ),
                }
            }
            let children = enumerator.children(&state);
            if children.is_empty() { break; }
            state = state.apply(&children[rng.random_range(0..children.len())]).expect("child applies");
        }
        prop_assert!(rejected > 0, "the walk must offer invalid actions too");
    }
}

proptest! {
    /// The one feasibility filter keeps exactly what the three hand-copied
    /// ones kept, in the same order: canonical children whose *built* child
    /// is within the remaining steps under the previous shape distance.
    #[test]
    fn feasible_children_match_apply_then_measure(seed in 0u64..1000) {
        let (vars, spec, enumerator) = vision();
        let max_steps = enumerator.config().max_steps;
        let mut state = PGraph::new(vars, spec);
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let children = enumerator.children(&state);
            let remaining = max_steps.checked_sub(state.len() + 1);
            let expected: Vec<Action> = children
                .iter()
                .filter(|action| {
                    let child = state.apply(action).expect("child applies");
                    let d = oracle::shape_distance(
                        &child.frontier_sizes(),
                        child.spec().input.dims(),
                        child.vars(),
                    );
                    remaining.is_some_and(|steps| d as usize <= steps)
                })
                .cloned()
                .collect();
            prop_assert_eq!(enumerator.feasible_children(&state), expected);
            if children.is_empty() { break; }
            // Walk through unguided children too, so infeasible states (and
            // the exhausted step budget) are visited.
            state = state.apply(&children[rng.random_range(0..children.len())]).expect("child applies");
        }
        prop_assert_eq!(enumerator.feasible_children(&state), Vec::new());
    }
}

/// A random monomial over `vars`, whose first half are primaries and the
/// rest coefficients; most mention one or two variables, some none, a few
/// carry a constant factor.
fn random_size(rng: &mut StdRng, vars: &[VarId], coefficient_only: bool) -> Size {
    let mut size = Size::one();
    let half = vars.len() as i32 / 2;
    for (i, &v) in (0..).zip(vars) {
        let is_primary = i < half;
        if (is_primary && coefficient_only) || rng.random_range(0..half) != 0 {
            continue;
        }
        size = size.mul(&Size::var_pow(
            v,
            [-1, 1, 1, 2][rng.random_range(0..4usize)],
        ));
    }
    match rng.random_range(0..8) {
        0 => size.mul(&Size::constant(2)),
        1 => size.div(&Size::constant(3)),
        _ => size,
    }
}

proptest! {
    /// The allocation-free shape distance is the previous one, on random
    /// shapes with shared, cancelling and missing primaries, constant
    /// factors, and more coefficient-only dims than the enumeration cap (4).
    #[test]
    fn shape_distance_matches_previous_implementation(seed in 0u64..100_000) {
        let mut table = VarTable::new();
        let kinds = [VarKind::Primary, VarKind::Coefficient];
        let names = [("A", 0), ("B", 0), ("C", 0), ("s", 1), ("k", 1), ("g", 1)];
        let ids: Vec<VarId> = names.iter().map(|&(n, kind)| table.declare(n, kinds[kind])).collect();
        table.push_valuation(ids.iter().map(|&v| (v, 2 + v.index() as u64)).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            let mut current: Vec<Size> = (0..rng.random_range(0..6))
                .map(|_| random_size(&mut rng, &ids, false))
                .collect();
            let mut desired: Vec<Size> = (0..rng.random_range(0..5))
                .map(|_| random_size(&mut rng, &ids, false))
                .collect();
            // Shared dims exercise the exact-match cancellation, extra
            // coefficient-only ones the grouping enumeration and its cap.
            for d in desired.clone() {
                if rng.random_range(0..3) == 0 { current.insert(rng.random_range(0..=current.len()), d); }
            }
            for _ in 0..[0, 0, 1, 2, 5, 6][rng.random_range(0..6usize)] {
                current.push(random_size(&mut rng, &ids, true));
            }
            if rng.random_range(0..4) == 0 { desired.push(random_size(&mut rng, &ids, true)); }
            let (new, old) = (
                shape_distance(&current, &desired, &table),
                oracle::shape_distance(&current, &desired, &table),
            );
            prop_assert!(new == old, "{new} != {old} for {current:?} -> {desired:?}");
        }

        // Shapes longer than the inline scratch (16 desired dims), up to 40
        // dims a side over a full table: 8 primaries and 8 coefficients.
        let mut table = VarTable::new();
        let ids: Vec<VarId> = (0..syno_core::size::MAX_VARS)
            .map(|i| {
                let kind = if i < 8 { VarKind::Primary } else { VarKind::Coefficient };
                table.declare(&format!("v{i}"), kind)
            })
            .collect();
        table.push_valuation(ids.iter().map(|&v| (v, 2 + v.index() as u64)).collect());
        for _ in 0..2 {
            let draw = |rng: &mut StdRng| {
                let coefficient_only = rng.random_range(0..4) == 0;
                random_size(rng, &ids, coefficient_only)
            };
            let mut desired: Vec<Size> = (0..rng.random_range(0..=40)).map(|_| draw(&mut rng)).collect();
            let mut current: Vec<Size> = (0..rng.random_range(0..=40)).map(|_| draw(&mut rng)).collect();
            for d in desired.clone() {
                if rng.random_range(0..2) == 0 {
                    current.insert(rng.random_range(0..=current.len()), d);
                }
            }
            current.truncate(40);
            desired.truncate(40);
            let (new, old) = (
                shape_distance(&current, &desired, &table),
                oracle::shape_distance(&current, &desired, &table),
            );
            prop_assert!(new == old, "{new} != {old} for {current:?} -> {desired:?}");
        }
    }
}

proptest! {
    /// The budgeted distance answers `shape_distance(..) <= budget` at every
    /// budget, on random shapes with cancelling dims, coefficient-only dims
    /// (up to six loose ones, past the enumeration cap of four) and primaries
    /// with negative exponents, on which neither refusal bound holds.
    #[test]
    fn shape_distance_within_answers_the_full_distance(seed in 0u64..100_000) {
        let mut table = VarTable::new();
        let kinds = [VarKind::Primary, VarKind::Coefficient];
        let names = [("A", 0), ("B", 0), ("C", 0), ("s", 1), ("k", 1), ("g", 1)];
        let ids: Vec<VarId> = names.iter().map(|&(n, kind)| table.declare(n, kinds[kind])).collect();
        table.push_valuation(ids.iter().map(|&v| (v, 2 + v.index() as u64)).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            let mut current: Vec<Size> = (0..rng.random_range(0..6))
                .map(|_| random_size(&mut rng, &ids, false))
                .collect();
            let desired: Vec<Size> = (0..rng.random_range(0..5))
                .map(|_| random_size(&mut rng, &ids, false))
                .collect();
            for d in desired.clone() {
                if rng.random_range(0..2) == 0 {
                    current.insert(rng.random_range(0..=current.len()), d);
                }
            }
            for _ in 0..[0, 1, 2, 5, 6][rng.random_range(0..5usize)] {
                current.push(random_size(&mut rng, &ids, true));
            }
            // Or a regroup: the desired shape with two dims multiplied into
            // one, where few dims are left and they cost little.
            if desired.len() >= 2 && rng.random_range(0..4) == 0 {
                current = desired.clone();
                let (a, b) = (current.remove(0), current.remove(0));
                current.insert(rng.random_range(0..=current.len()), a.mul(&b));
            }
            let distance = shape_distance(&current, &desired, &table);
            for budget in 0..=8 {
                let within = shape_distance_within(&current, &desired, &table, budget);
                prop_assert!(
                    within == (distance <= budget),
                    "distance {distance}, budget {budget}: {current:?} -> {desired:?}"
                );
            }
        }
    }
}

/// The §7.1 worked example, `[C_in, s⁻¹H, sW, k] → [C_in, H, W]`, is 3 under
/// both implementations.
#[test]
fn paper_example_is_three_under_both_implementations() {
    let mut vars = VarTable::new();
    let [cin, h, w] = ["Cin", "H", "W"].map(|n| vars.declare(n, VarKind::Primary));
    let [s, k] = ["s", "k"].map(|n| vars.declare(n, VarKind::Coefficient));
    vars.push_valuation(vec![(cin, 16), (h, 32), (w, 32), (s, 2), (k, 3)]);
    let current = [
        Size::var(cin),
        Size::var(h).div(&Size::var(s)),
        Size::var(w).mul(&Size::var(s)),
        Size::var(k),
    ];
    let desired = [Size::var(cin), Size::var(h), Size::var(w)];
    assert_eq!(shape_distance(&current, &desired, &vars), 3);
    assert_eq!(oracle::shape_distance(&current, &desired, &vars), 3);
}

proptest! {
    /// The record envelope, for the journal, the wire and the trace log at
    /// once: a strict prefix of a frame asks for more bytes, the whole frame
    /// comes back exactly (and consumes no byte of what follows it), and no
    /// single flipped bit is ever read as a frame.
    #[test]
    fn envelope_splits_exactly_and_survives_no_bit_flip(seed in 0u64..u64::MAX) {
        use syno_core::codec::{put_frame, split_frame};
        const CAP: u32 = 4096;
        let mut rng = StdRng::seed_from_u64(seed);
        let tag: u8 = rng.random_range(0..=255u32) as u8;
        let mut bytes = |max: usize| -> Vec<u8> {
            let len = rng.random_range(0..=max);
            (0..len).map(|_| rng.random_range(0..=255u32) as u8).collect()
        };
        let (payload, trailing) = (bytes(96), bytes(16));
        let mut stream = Vec::new();
        put_frame(&mut stream, tag, &payload);
        let frame_len = stream.len();
        prop_assert_eq!(frame_len, payload.len() + 9);
        stream.extend_from_slice(&trailing);

        for cut in 0..frame_len {
            prop_assert!(
                matches!(split_frame(&stream[..cut], CAP), Ok(None)),
                "prefix of {cut} bytes"
            );
        }
        let (got_tag, got_payload, consumed) = split_frame(&stream, CAP)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .expect("whole frame present");
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(got_payload, &payload[..]);
        prop_assert_eq!(consumed, frame_len);

        for bit in 0..frame_len * 8 {
            let mut flipped = stream.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                !matches!(split_frame(&flipped, CAP), Ok(Some(_))),
                "bit {bit} flipped and a frame still came back"
            );
        }
    }
}

/// The envelope of a fixed `(tag, payload)`, byte for byte: journals on disk
/// and peers on the wire depend on it.
#[test]
fn envelope_bytes_are_pinned() {
    use syno_core::codec::{put_frame, split_frame};
    let mut frame = Vec::new();
    put_frame(&mut frame, 5, b"payload");
    let golden = [
        5, 7, 0, 0, 0, b'p', b'a', b'y', b'l', b'o', b'a', b'd', 0x8e, 0xb4, 0x23, 0xd0,
    ];
    assert_eq!(frame, golden);
    let (tag, payload, consumed) = split_frame(&golden, 7).unwrap().unwrap();
    assert_eq!((tag, payload, consumed), (5, &b"payload"[..], golden.len()));
}

/// A length prefix above the reader's cap is refused from the header alone —
/// nothing is sized by it — on the buffer path and the blocking one.
#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    use syno_core::codec::{read_frame, split_frame, FrameError};
    let mut header = vec![5u8];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        split_frame(&header, u32::MAX - 1),
        Err(FrameError::TooLarge { len: u32::MAX })
    ));
    // Were the prefix believed, this would allocate 4 GiB and then report a
    // truncated stream.
    assert!(matches!(
        read_frame(&mut &header[..], 8),
        Err(FrameError::TooLarge { len: u32::MAX })
    ));
    // At the cap exactly, the reader waits for the payload instead.
    header[1..].copy_from_slice(&8u32.to_le_bytes());
    assert!(matches!(split_frame(&header, 8), Ok(None)));
    assert!(matches!(
        read_frame(&mut &header[..], 8),
        Err(FrameError::Truncated)
    ));
}

/// Every structure-aware mutation of `bytes`: each 4-byte window overwritten
/// with all ones, with zero and with a random word, then every truncation.
fn mutations(bytes: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for at in 0..bytes.len().saturating_sub(3) {
        for word in [u32::MAX, 0, rng.random()] {
            let mut mutated = bytes.to_vec();
            mutated[at..at + 4].copy_from_slice(&word.to_le_bytes());
            out.push(mutated);
        }
    }
    out.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
    out
}

proptest! {
    /// No mutation of a valid spec or graph encoding panics the decoder or
    /// makes it allocate from a count: it returns `Ok` or a typed
    /// `CodecError` (a panic or an abort fails the test, and the binary).
    #[test]
    fn mutated_encodings_decode_or_fail_typed(seed in 0u64..u64::MAX) {
        use syno_core::codec::{decode_graph, decode_spec, encode_graph, encode_spec};
        let (vars, spec, enumerator) = vision();
        let mut rng = StdRng::seed_from_u64(seed);
        let root = PGraph::new(Arc::clone(&vars), spec.clone());
        let graph = match rollout(&mut rng, &enumerator, &root, true) {
            RolloutResult::Complete(graph) => *graph,
            _ => root,
        };
        for mutated in mutations(&encode_spec(&vars, &spec), &mut rng) {
            let _ = decode_spec(&mutated);
        }
        for mutated in mutations(&encode_graph(&graph), &mut rng) {
            let _ = decode_graph(&mutated);
        }
    }
}

/// The five sequences of a graph recipe, each at its boundary: a count one
/// above what the remaining bytes could hold at the item's least width is
/// refused *at the count* (`UnexpectedEof` there, nothing reserved, no item
/// read); the largest count that could fit gets past that check.
#[test]
fn every_sequence_count_is_bounded_by_the_bytes_behind_it() {
    use syno_core::codec::{decode_graph, CodecError, Encoder, FORMAT_VERSION};
    let mut e = Encoder::new();
    let mut sites = Vec::new(); // (offset of the count, least bytes per item)
    let mut seq = |e: &mut Encoder, count: u32, min_item_bytes: usize| {
        sites.push((e.len(), min_item_bytes));
        e.put_u32(count);
    };
    e.put_u32(FORMAT_VERSION);
    seq(&mut e, 1, 5); // variable table: name + kind
    e.put_str("H");
    e.put_u8(0);
    seq(&mut e, 1, 8); // valuation rows: one u64 per variable
    e.put_u64(16);
    for _shape in 0..2 {
        seq(&mut e, 1, 20); // rank: a `Size` each
        e.put_u64(1);
        e.put_u64(1);
        seq(&mut e, 1, 8); // powers: (variable, exponent)
        e.put_u32(0);
        e.put_i32(1);
    }
    seq(&mut e, 0, 1); // graph steps: at least a tag byte
    let bytes = e.into_bytes();
    assert!(decode_graph(&bytes).is_ok(), "the exact counts decode");
    assert_eq!(sites.len(), 7);
    for (at, min_item_bytes) in sites {
        let fits = (bytes.len() - (at + 4)) / min_item_bytes;
        let with_count = |count: usize| {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&(count as u32).to_le_bytes());
            decode_graph(&patched).map(drop)
        };
        assert_eq!(with_count(fits + 1), Err(CodecError::UnexpectedEof { at }), "site {at}");
        assert_ne!(with_count(fits), Err(CodecError::UnexpectedEof { at }), "site {at}");
    }
}

proptest! {
    /// `syno_core::simplify` as canon's oracle, on the paper-scale conv spec
    /// (N=8, 8→16 channels, 16×16, k=3), along seeded walks through
    /// `feasible_children`. Within 5 steps every child `CanonRules` admits
    /// holds only frontier and weight expressions the rewrite system would
    /// keep. Within 8 the two still disagree on one class, which this pins:
    /// the first unsimplified child of a walk is always a `Merge` whose block
    /// is its operand's whole domain (`merge(r:k, k)` straight after the
    /// `Reduce`, leaving `(r/k):1`) — see ROADMAP, "Fail typed" (e).
    #[test]
    fn canon_admits_only_simplified_expressions(seed in 0u64..u64::MAX) {
        use syno_core::simplify::is_simplified;
        let mut vars = VarTable::new();
        let [n, cin, cout, h, w] =
            ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 8), (cin, 8), (cout, 16), (h, 16), (w, 16), (k, 3)]);
        let vars = vars.into_shared();
        let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
        let spec = OperatorSpec::new(dims(cin), dims(cout));
        let simplified = |g: &PGraph| {
            let frontier = g.frontier().iter().map(|&c| g.coord_expr(c));
            let weights = g.weights().iter().flat_map(|w| w.dims.iter().map(|d| d.expr));
            frontier.chain(weights).all(|e| is_simplified(g.arena(), e, g.vars()))
        };
        for max_steps in [5, 8] {
            let enumerator = Enumerator::new(SynthConfig::auto(&vars, max_steps));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = PGraph::new(Arc::clone(&vars), spec.clone());
            // A walk ends at its first unsimplified state: what descends from
            // it inherits the expression, whatever canon does next.
            while simplified(&state) {
                let children = enumerator.feasible_children(&state);
                if children.is_empty() { break; }
                for action in &children {
                    let child = state.apply(action).expect("child applies");
                    let full_block_merge = matches!(action, Action::Merge { coord, block }
                        if block == state.coord_domain(*coord));
                    prop_assert!(
                        simplified(&child) || (max_steps > 5 && full_block_merge),
                        "max_steps {max_steps}: {action:?} on {} leaves an unsimplified expression",
                        state.render()
                    );
                }
                let pick = rng.random_range(0..children.len());
                state = state.apply(&children[pick]).expect("child applies");
            }
        }
    }
}
