//! The executors against closed-form answers instead of against each other,
//! in the manner of manufactured solutions: each operator's operands are
//! chosen so its output has a formula, and every value in play is a small
//! dyadic rational, so each engine must reproduce the formula exactly.
//!
//! Every named operator runs on [`Kernel::execute`] under both lowerings, on
//! [`eager::execute`] and on a forward [`eager::record`] tape. Each maps
//! every input element to exactly one output element with factor 1, so the
//! gradient of the output's mean is `1 / numel(output)` at every input
//! element — a closed form for the tape's backward pass too.
//!
//! A hand-built view-stage kernel (a shift view under an unfold view under a
//! reducing consumer), which lowering never emits, keeps the interpreter's
//! clip semantics pinned on written-out values.

use std::sync::Arc;
use syno_core::expr::{AtomKind, ExprArena};
use syno_core::prelude::*;
use syno_ir::kernel::{LoopDef, Operand, OperandRef};
use syno_ir::{eager, lower_naive, lower_optimized, Kernel, Stage};
use syno_tensor::{Tape, Tensor};

/// `H = 12`, `s = 3`, and a square `M = 2`, `N = K = 4` matmul.
fn vars() -> (Arc<VarTable>, [VarId; 5]) {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let s = vars.declare("s", VarKind::Coefficient);
    let m = vars.declare("M", VarKind::Primary);
    let n = vars.declare("N", VarKind::Primary);
    let k = vars.declare("K", VarKind::Primary);
    vars.push_valuation(vec![(h, 12), (s, 3), (m, 2), (n, 4), (k, 4)]);
    (vars.into_shared(), [h, s, m, n, k])
}

/// Asserts that every engine computes `want` from `input` and `weights`,
/// and that the tape's input gradient of the output's mean is
/// `1 / numel(want)` everywhere.
fn assert_every_engine_gives(graph: &PGraph, input: &Tensor, weights: &[Tensor], want: &Tensor) {
    let exact = |got: &Tensor, what: &str| {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        assert_eq!(got.data(), want.data(), "{what}: values");
    };
    exact(
        &lower_naive(graph, 0).unwrap().execute(input, weights),
        "naive kernel",
    );
    exact(
        &lower_optimized(graph, 0).unwrap().execute(input, weights),
        "optimized kernel",
    );
    exact(&eager::execute(graph, 0, input, weights).unwrap(), "eager");

    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let ws: Vec<_> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
    let out = eager::record(&mut tape, graph, 0, x, &ws).unwrap();
    exact(tape.value(out), "tape");
    let loss = tape.mean_all(out);
    let grads = tape.backward(loss);
    let gx = grads.get(x).expect("the input is differentiated");
    let per_element = 1.0 / want.numel() as f32;
    assert_eq!(gx.shape(), input.shape(), "input gradient: shape");
    assert!(
        gx.data().iter().all(|&g| g == per_element),
        "input gradient: want {per_element} everywhere, got {:?}",
        gx.data()
    );
}

/// Summing windows of `s` over the ramp `x[i] = a·i + b` gives
/// `out[j] = s·(a·s·j + b) + a·s·(s − 1)/2`.
#[test]
fn avg_pool_of_an_affine_ramp_is_affine() {
    let (vars, [h, s, ..]) = vars();
    let (a, b, s_len) = (0.5f32, -3.0f32, 3usize);
    let input = Tensor::from_vec((0..12).map(|i| a * i as f32 + b).collect(), &[12]);
    let want: Vec<f32> = (0..12 / s_len)
        .map(|j| {
            let s_f = s_len as f32;
            s_f * (a * s_f * j as f32 + b) + a * s_f * (s_f - 1.0) / 2.0
        })
        .collect();
    assert_eq!(want, [-7.5, -3.0, 1.5, 6.0], "the formula itself");
    let pool = ops::avg_pool1d(&vars, h, s).unwrap();
    assert_every_engine_gives(&pool, &input, &[], &Tensor::from_vec(want, &[4]));
}

/// Pixel shuffle moves every element and computes nothing: on `x[i] = i` it
/// writes `out[i] = (H/s)·(i mod s) + i div s`, a permutation of `0..H`.
#[test]
fn pixel_shuffle_is_an_index_permutation() {
    let (vars, [h, s, ..]) = vars();
    let input = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[12]);
    let want: Vec<f32> = (0..12).map(|i| (4 * (i % 3) + i / 3) as f32).collect();
    let mut sorted = want.clone();
    sorted.sort_by(f32::total_cmp);
    assert_eq!(sorted, input.data(), "the formula is a permutation");
    assert_ne!(want, input.data(), "and not the identity");
    let shuffle = ops::pixel_shuffle(&vars, h, s).unwrap();
    assert_every_engine_gives(&shuffle, &input, &[], &Tensor::from_vec(want, &[12]));
}

/// `x · I = x` for a square identity weight.
#[test]
fn matmul_by_the_identity_returns_its_input() {
    let (vars, [_, _, m, n, k]) = vars();
    let mm = ops::matmul(&vars, m, n, k).unwrap();
    let input = Tensor::from_vec((1..=8).map(|v| v as f32 * 0.25).collect(), &[2, 4]);
    let shapes = eager::weight_shapes(&mm, 0).unwrap();
    assert_eq!(shapes, [vec![4, 4]], "one square weight");
    let identity = (0..16)
        .map(|i| if i / 4 == i % 4 { 1.0 } else { 0.0 })
        .collect();
    let identity = Tensor::from_vec(identity, &[4, 4]);
    assert_every_engine_gives(&mm, &input, &[identity], &input);
}

/// Builds the view-chain kernel over `N = 16` with a `K = 3` window:
///
/// ```text
/// b0[i]    = input[view0(i)]          (pure view)
/// b1[j, w] = b0[unfold(j, w)]         (pure view, clips at the edges)
/// out[o]   = Σ_r b1[o, r] · wt0[r]    (reducing consumer)
/// ```
///
/// with `view0` the cyclic `Shift` `(i + 1) mod N` or the identity. Where
/// the unfold clips, `b1` holds `+0.0` and the consumer multiplies by it.
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
    let (e_j, e_w) = (arena.expr_atom(j), arena.expr_atom(w));
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
    let (e_o, e_r) = (arena.expr_atom(o), arena.expr_atom(r));
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

/// Runs the view chain on the ramp `input[i] = i + 2` with the
/// second-difference weight `[-1, 2, -1]`: `out[o] = -b0[o-1] + 2·b0[o] -
/// b0[o+1]`, a clipped tap contributing zero.
fn second_difference(shifted: bool) -> Vec<f32> {
    let input = Tensor::from_vec((0..16).map(|i| i as f32 + 2.0).collect(), &[16]);
    let wt = Tensor::from_vec(vec![-1.0, 2.0, -1.0], &[3]);
    view_chain_kernel(shifted)
        .execute(&input, &[wt])
        .data()
        .to_vec()
}

/// The second difference of a ramp is zero inside; each edge keeps only the
/// taps the unfold does not clip: `2·2 − 3` and `−16 + 2·17`.
#[test]
fn unfold_view_clips_the_edges_of_a_ramp() {
    let mut want = vec![0.0; 16];
    want[0] = 1.0;
    want[15] = 18.0;
    assert_eq!(second_difference(false), want);
}

/// Under the shift, `b0 = [3, 4, …, 17, 2]`: zero inside, `2·3 − 4` at the
/// left edge, `−16 + 2·17 − 2` where the wrapped element enters, and
/// `−17 + 2·2` at the clipped right edge.
#[test]
fn shifted_view_wraps_before_the_unfold_clips() {
    let mut want = vec![0.0; 16];
    want[0] = 2.0;
    want[14] = 16.0;
    want[15] = -13.0;
    assert_eq!(second_difference(true), want);
}
