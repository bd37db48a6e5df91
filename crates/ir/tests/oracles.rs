//! The executors against closed-form answers instead of against each other,
//! in the manner of manufactured solutions: each operator's operands are
//! chosen so its output has a formula, and every value in play is a small
//! dyadic rational, so each engine must reproduce the formula exactly.
//!
//! Every named operator runs on [`Kernel::execute`] under both lowerings, on
//! [`eager::execute`] and on a forward [`eager::record`] tape, whose
//! gradients of the output's mean have closed forms too. Avg-pool, pixel
//! shuffle, the identity matmul and a `Shift` (a roll by one, the last
//! element wrapping to the first) map every input element to exactly one
//! output element with factor 1, so that gradient is `1 / numel(output)` at
//! every input element. A convolution with a delta weight gives its input
//! back, and with a box weight a clipped window sum; there the input
//! gradient counts the windows covering each element, and each weight tap's
//! gradient sums the input elements it reads in range.
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

fn assert_exact(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(got.data(), want.data(), "{what}: values");
}

/// Asserts that every engine computes `want` from `input` and `weights`,
/// and that the tape's gradient of the output's mean at the input is
/// `want_gx`; returns that gradient at each weight.
fn assert_every_engine_gives(
    graph: &PGraph,
    input: &Tensor,
    weights: &[Tensor],
    want: &Tensor,
    want_gx: &Tensor,
) -> Vec<Tensor> {
    let naive = lower_naive(graph, 0).unwrap().execute(input, weights);
    assert_exact(&naive, want, "naive kernel");
    let optimized = lower_optimized(graph, 0).unwrap().execute(input, weights);
    assert_exact(&optimized, want, "optimized kernel");
    assert_exact(&eager::execute(graph, 0, input, weights).unwrap(), want, "eager");

    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let ws: Vec<_> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
    let out = eager::record(&mut tape, graph, 0, x, &ws).unwrap();
    assert_exact(tape.value(out), want, "tape");
    let loss = tape.mean_all(out);
    let grads = tape.backward(loss);
    assert_exact(grads.get(x).expect("the input is differentiated"), want_gx, "input gradient");
    ws.iter()
        .map(|&w| grads.get(w).expect("a weight is differentiated").clone())
        .collect()
}

/// The input gradient of an operator that maps every input element to
/// exactly one of `want`'s elements with factor 1.
fn one_to_one(input: &Tensor, want: &Tensor) -> Tensor {
    Tensor::full(input.shape(), 1.0 / want.numel() as f32)
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
    let want = Tensor::from_vec(want, &[4]);
    assert_every_engine_gives(&pool, &input, &[], &want, &one_to_one(&input, &want));
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
    let want = Tensor::from_vec(want, &[12]);
    assert_every_engine_gives(&shuffle, &input, &[], &want, &one_to_one(&input, &want));
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
    assert_every_engine_gives(&mm, &input, &[identity], &input, &one_to_one(&input, &input));
}

/// `Shift` rolls its axis by one: on `x[i] = 3i − 7` it writes
/// `out[i] = x[(i + 1) mod H]`, so the last element wraps to the first.
/// Every input element reaches exactly one output element.
#[test]
fn shift_rolls_its_axis_by_one() {
    let (vars, [h, ..]) = vars();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h)]),
    );
    let graph = PGraph::new(vars, spec);
    let i = graph.frontier()[0];
    let shift = graph.apply(&Action::Shift { coord: i }).unwrap();
    assert!(shift.is_complete());
    let input = Tensor::from_vec((0..12).map(|i| 3.0 * i as f32 - 7.0).collect(), &[12]);
    let want: Vec<f32> = (0..12).map(|i| input.data()[(i + 1) % 12]).collect();
    assert_eq!(want[11], -7.0, "the last element wraps to the first");
    let want = Tensor::from_vec(want, &[12]);
    assert_every_engine_gives(&shift, &input, &[], &want, &one_to_one(&input, &want));
}

/// Batch, channels, image side and window of the convolution oracles.
const N: usize = 2;
const C: usize = 2;
const HW: usize = 8;
const K: usize = 3;

/// `[N, C, HW, HW] → [N, C, HW, HW]` with a `K × K` window: 256 output
/// elements, so every `1 / numel` below is dyadic. Its one weight is
/// `[Cin, kh, kw, Cout]`, and tap `(kh, kw)` reads the input at
/// `(y + kh − 1, x + kw − 1)`, clipped at the edges.
fn conv() -> PGraph {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let [n_v, c_v, hw_v, k_v] = [N, C, HW, K].map(|v| v as u64);
    vars.push_valuation(vec![(n, n_v), (cin, c_v), (cout, c_v), (h, hw_v), (w, hw_v), (k, k_v)]);
    let conv = ops::conv2d(&vars.into_shared(), n, cin, cout, h, w, k).unwrap();
    assert_eq!(eager::weight_shapes(&conv, 0).unwrap(), [vec![C, K, K, C]]);
    conv
}

/// Small integers, different in every element and channel.
fn conv_input() -> Tensor {
    let data = (0..N * C * HW * HW).map(|i| ((7 * i) % 11) as f32 - 5.0).collect();
    Tensor::from_vec(data, &[N, C, HW, HW])
}

/// A weight that takes channel `ci` to channel `ci` through the taps `tap`
/// keeps, and nothing across channels.
fn depthwise(tap: impl Fn(usize, usize) -> bool) -> Tensor {
    let mut data = Vec::with_capacity(C * K * K * C);
    for ci in 0..C {
        for kh in 0..K {
            for kw in 0..K {
                data.extend((0..C).map(|co| if ci == co && tap(kh, kw) { 1.0 } else { 0.0 }));
            }
        }
    }
    Tensor::from_vec(data, &[C, K, K, C])
}

/// Every output position `(n, y, x)`.
fn positions() -> impl Iterator<Item = (usize, usize, usize)> {
    (0..N).flat_map(|n| (0..HW).flat_map(move |y| (0..HW).map(move |x| (n, y, x))))
}

/// Input channel `c` of image `n` at `(y + dy − 1, x + dx − 1)`, or `None`
/// off the image.
fn read(input: &Tensor, [n, c, y, x]: [usize; 4], dy: usize, dx: usize) -> Option<f32> {
    let (y, x) = ((y + dy).checked_sub(1)?, (x + dx).checked_sub(1)?);
    (y < HW && x < HW).then(|| input.get(&[n, c, y, x]))
}

/// The gradient of `mean(out)` at weight `[ci, kh, kw, co]`, whatever the
/// weight: the input elements tap `(kh, kw)` reads in range, over `numel(out)`.
fn conv_weight_gradient(input: &Tensor) -> Tensor {
    let mut data = Vec::with_capacity(C * K * K * C);
    for ci in 0..C {
        for kh in 0..K {
            for kw in 0..K {
                let mut sum = 0.0;
                for (n, y, x) in positions() {
                    sum += read(input, [n, ci, y, x], kh, kw).unwrap_or(0.0);
                }
                let per_output = sum / (N * C * HW * HW) as f32;
                data.extend([per_output; C]);
            }
        }
    }
    Tensor::from_vec(data, &[C, K, K, C])
}

/// A delta at the centre tap gives the input back, so each input element
/// reaches one output element.
#[test]
fn conv_with_a_delta_weight_returns_its_input() {
    let (conv, input) = (conv(), conv_input());
    let delta = depthwise(|kh, kw| (kh, kw) == (K / 2, K / 2));
    let grads =
        assert_every_engine_gives(&conv, &input, &[delta], &input, &one_to_one(&input, &input));
    assert_exact(&grads[0], &conv_weight_gradient(&input), "weight gradient");
}

/// A box of ones sums each element's clipped `K × K` window in its own
/// channel, so an input element's gradient counts the windows covering it:
/// 2 or 3 rows times 2 or 3 columns, over `numel(out)`.
#[test]
fn conv_with_a_box_weight_sums_clipped_windows() {
    let (conv, input) = (conv(), conv_input());
    let mut want = Tensor::zeros(input.shape());
    let mut want_gx = Tensor::zeros(input.shape());
    let covering = |i: usize| if i == 0 || i == HW - 1 { 2.0 } else { 3.0 };
    for c in 0..C {
        for (n, y, x) in positions() {
            let taps = (0..K).flat_map(|dy| (0..K).map(move |dx| (dy, dx)));
            let window = taps.filter_map(|(dy, dx)| read(&input, [n, c, y, x], dy, dx));
            want.set(&[n, c, y, x], window.sum());
            let gx = covering(y) * covering(x) / want.numel() as f32;
            want_gx.set(&[n, c, y, x], gx);
        }
    }
    let grads = assert_every_engine_gives(&conv, &input, &[depthwise(|_, _| true)], &want, &want_gx);
    assert_exact(&grads[0], &conv_weight_gradient(&input), "weight gradient");
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
