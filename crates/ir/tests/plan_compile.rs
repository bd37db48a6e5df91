//! Pins that the stride-compiled engine's optimization actually *fires* —
//! not just that it is bit-identical when it does.
//!
//! * **Innermost specialization** must engage on every stage of the named
//!   operators and of the staged (materialized-reduction) lowering: their
//!   innermost dimensions are dense affine walks, which is the entire point
//!   of the tight-loop pass.
//! * **View stages** — pure maps that another stage reads — must execute
//!   right even though pGraph lowering never emits one (reduction groups
//!   always reduce; `properties.rs` pins that): [`Kernel`]'s fields are
//!   `pub`, so the fixtures build one directly, a shift view chained under
//!   an unfold view under a reducing consumer. Compiled execution is
//!   asserted bit-identical to the reference interpreter, including the
//!   clip cases where the view buffer holds `+0.0` and the consumer
//!   multiplies by that zero (rather than skipping the term).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno_core::expr::{AtomKind, ExprArena};
use syno_core::prelude::*;
use syno_ir::kernel::{LoopDef, Operand, OperandRef};
use syno_ir::{lower_naive, lower_optimized, Kernel, Stage};
use syno_tensor::{init, Tensor};

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// The named operators' innermost dimensions are dense affine walks, so
/// every stage of every lowering must take the specialized tight-loop path
/// (conv windows included — their moving clips are endpoint-checked).
#[test]
fn named_operators_specialize_every_stage() {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 2), (cin, 4), (cout, 4), (h, 8), (w, 8), (k, 3), (s, 2)]);
    let vars = vars.into_shared();
    for (name, graph) in [
        ("conv2d", ops::conv2d(&vars, n, cin, cout, h, w, k).unwrap()),
        ("matmul", ops::matmul(&vars, cin, cout, h).unwrap()),
        ("avg_pool1d", ops::avg_pool1d(&vars, h, s).unwrap()),
        ("depthwise", ops::depthwise_conv2d(&vars, n, cin, h, w, k).unwrap()),
    ] {
        for (mode, kernel) in [
            ("naive", lower_naive(&graph, 0).unwrap()),
            ("optimized", lower_optimized(&graph, 0).unwrap()),
        ] {
            let compiled = kernel.compile();
            assert!(compiled.is_compiled(), "{name}/{mode} compiles");
            assert_eq!(
                compiled.specialized_stages(),
                kernel.stages.len(),
                "{name}/{mode}: every stage specializes"
            );
        }
    }
}

/// The Fig. 4 staged kernel: both materialized stages specialize.
#[test]
fn staged_lowering_specializes_both_stages() {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 64), (k, 5), (s, 4)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
    );
    let g = PGraph::new(Arc::clone(&vars), spec);
    let i = g.frontier()[0];
    let g = g
        .apply(&Action::Reduce {
            domain: Size::var(vars.find("k").unwrap()),
        })
        .unwrap();
    let rk = g.last_node().unwrap().produced[0];
    let g = g.apply(&Action::Unfold { base: i, window: rk }).unwrap();
    let u = g.last_node().unwrap().produced[0];
    let g = g
        .apply(&Action::Reduce {
            domain: Size::var(vars.find("s").unwrap()),
        })
        .unwrap();
    let rs = g.last_node().unwrap().produced[0];
    let g = g.apply(&Action::Split { lhs: u, rhs: rs }).unwrap();
    assert!(g.is_complete());

    let kernel = lower_optimized(&g, 0).unwrap();
    assert!(kernel.stages.len() > 1, "fixture is staged");
    let compiled = kernel.compile();
    assert!(compiled.is_compiled());
    assert_eq!(compiled.specialized_stages(), kernel.stages.len());
}

/// Builds the view-chain fixture:
///
/// ```text
/// b0[i]    = input[view0(i)]          (pure view, 1 consumer)
/// b1[j, w] = b0[unfold(j, w)]         (pure view, clips at the edges)
/// out[o]   = Σ_r b1[o, r] · wt0[r]    (reducing consumer)
/// ```
///
/// with `view0` either a total `Shift` (whose slope defeats specialization
/// of its stage, which then runs the general path) or the identity (every
/// stage stays affine and specializes).
fn view_chain_kernel(shifted: bool) -> Kernel {
    const N: u64 = 16;
    const K: u64 = 3;
    let mut vars = VarTable::new();
    vars.push_valuation(vec![]);
    let mut arena = ExprArena::new();

    let i = arena.atom(AtomKind::Output, Size::constant(N));
    let e_i = arena.expr_atom(i);
    let view0 = if shifted { arena.shift(e_i) } else { e_i };
    let stage0 = Stage {
        loops: vec![LoopDef { atom: i, extent: N }],
        reduce: vec![],
        operands: vec![Operand {
            source: OperandRef::Input,
            indices: vec![view0],
        }],
        guards: vec![],
        output_key: vec![e_i],
    };

    let j = arena.atom(AtomKind::Output, Size::constant(N));
    let w = arena.atom(AtomKind::Output, Size::constant(K));
    let e_j = arena.expr_atom(j);
    let e_w = arena.expr_atom(w);
    let unfold = arena.unfold(e_j, e_w);
    let stage1 = Stage {
        loops: vec![
            LoopDef { atom: j, extent: N },
            LoopDef { atom: w, extent: K },
        ],
        reduce: vec![],
        operands: vec![Operand {
            source: OperandRef::Buffer(0),
            indices: vec![unfold],
        }],
        guards: vec![],
        output_key: vec![e_j, e_w],
    };

    let o = arena.atom(AtomKind::Output, Size::constant(N));
    let r = arena.atom(AtomKind::Reduce, Size::constant(K));
    let e_o = arena.expr_atom(o);
    let e_r = arena.expr_atom(r);
    let stage2 = Stage {
        loops: vec![LoopDef { atom: o, extent: N }],
        reduce: vec![LoopDef { atom: r, extent: K }],
        operands: vec![
            Operand {
                source: OperandRef::Buffer(1),
                indices: vec![e_o, e_r],
            },
            Operand {
                source: OperandRef::Weight(0),
                indices: vec![e_r],
            },
        ],
        guards: vec![],
        output_key: vec![e_o],
    };

    Kernel {
        arena,
        vars: vars.into_shared(),
        valuation: 0,
        input_shape: vec![N as usize],
        weight_shapes: vec![vec![K as usize]],
        output_shape: vec![N as usize],
        stages: vec![stage0, stage1, stage2],
        output_perm: vec![0],
    }
}

fn assert_compiled_matches_reference(kernel: &Kernel, seed: u64, what: &str) {
    let compiled = kernel.compile();
    assert!(compiled.is_compiled(), "{what}: compiles");
    let mut rng = StdRng::seed_from_u64(seed);
    let input = init::uniform(&mut rng, &kernel.input_shape, -1.0, 1.0);
    let weights: Vec<Tensor> = kernel
        .weight_shapes
        .iter()
        .map(|s| init::uniform(&mut rng, s, -1.0, 1.0))
        .collect();
    let fast = compiled.execute(&input, &weights);
    let reference = kernel.execute_reference(&input, &weights);
    assert_bits_equal(&fast, &reference, what);
}

/// A shift view under an unfold view: the shifted index defeats slope
/// analysis, so the first view runs the general per-point path while the
/// unfold view and the consumer specialize — bit-identical to the reference.
#[test]
fn shifted_view_chain_fuses_on_the_general_path() {
    let kernel = view_chain_kernel(true);
    assert_eq!(
        kernel.compile().specialized_stages(),
        2,
        "a shift of the innermost counter must defeat specialization of its stage"
    );
    assert_compiled_matches_reference(&kernel, 11, "shifted view chain");
}

/// An identity view under an unfold view: every stage stays affine and
/// specializes (the unfold view's edge rows fall back per-iteration via
/// unfold endpoint checks; interior rows run the constant-stride loop).
#[test]
fn affine_view_chain_fuses_and_specializes() {
    let kernel = view_chain_kernel(false);
    assert_eq!(kernel.compile().specialized_stages(), kernel.stages.len());
    assert_compiled_matches_reference(&kernel, 13, "affine view chain");
}

/// Clip semantics through a view, pinned on exact values: where the unfold
/// clips, the view buffer holds `+0.0`, and the consumer multiplies by that
/// zero *factor* (it does not skip the term).
#[test]
fn fused_clip_substitutes_zero_like_a_materialized_view() {
    let kernel = view_chain_kernel(false);
    let compiled = kernel.compile();
    let input = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[16]);
    // A negative weight so a skipped term (acc + nothing = +0.0 stays) and a
    // zero factor (0.0 · -1.0 = -0.0 enters the sum) would differ bitwise if
    // the whole row clipped; here interior taps dominate, so we pin values.
    let wt = Tensor::from_vec(vec![-1.0, 2.0, -1.0], &[3]);
    let fast = compiled.execute(&input, std::slice::from_ref(&wt));
    let reference = kernel.execute_reference(&input, std::slice::from_ref(&wt));
    assert_bits_equal(&fast, &reference, "clip semantics");
    // out[o] = -in[o-1] + 2·in[o] - in[o+1], clipped taps contributing 0.
    assert_eq!(fast.get(&[0]), 2.0 * 1.0 - 2.0);
    assert_eq!(fast.get(&[5]), -5.0 + 2.0 * 6.0 - 7.0);
    assert_eq!(fast.get(&[15]), -15.0 + 2.0 * 16.0);
}
