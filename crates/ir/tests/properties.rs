//! The differential-testing suite locking down the execution engines.
//!
//! Two engines implement the same operator semantics:
//!
//! 1. the **eager backend** (`syno-tensor` view ops + einsums, optionally on
//!    an autodiff tape), and
//! 2. the **kernel interpreter** ([`Kernel::execute`], per-element
//!    expression-tree walks over the naive or the optimized lowering).
//!
//! This suite pins their relationships on random valid pGraphs sampled by
//! the guided synthesis rollout:
//!
//! * the naive and the optimized lowering must agree element-for-element
//!   (within FP tolerance — materialized stages legitimately reorder sums);
//! * the compiled tape engine vs. the naive reference tape must be
//!   bit-identical for values *and* gradients, under the pinned and the
//!   serial (width-1) [`ExecPolicy`] both;
//! * recording the input as a tape **constant** instead of a leaf leaves the
//!   loss and every weight gradient bit-identical, and no op before the first
//!   weight multiply gets a gradient;
//! * eager vs. the kernel interpreter must agree element-for-element
//!   (within FP tolerance);
//! * `Unfold` clip semantics survive in every engine, including the
//!   `Expand`-discarded-coordinate case that lowers to [`Stage::guards`]
//!   (both the hoisted spatial form and the reduction-bound form).
//!
//! `oracles.rs` checks both engines against closed-form answers instead of
//! against each other.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno_core::prelude::*;
use syno_ir::kernel::OperandRef;
use syno_ir::eager::{EagerError, Executor};
use syno_ir::{eager, lower_naive, lower_optimized, Kernel};
use syno_tensor::{init, ExecPolicy, Tape, Tensor, Var};

fn fixture_vars() -> (Arc<VarTable>, Vec<VarId>) {
    let mut vars = VarTable::new();
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(cin, 4), (cout, 4), (h, 6), (w, 6), (k, 3), (s, 2)]);
    (vars.into_shared(), vec![cin, cout, h, w, k, s])
}

/// Random input/weight tensors for `graph` under valuation 0.
fn random_io(graph: &PGraph, seed: u64) -> (Tensor, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input_shape: Vec<usize> = graph
        .spec()
        .input
        .eval(graph.vars(), 0)
        .expect("input shape evaluates")
        .iter()
        .map(|&v| v as usize)
        .collect();
    let input = init::uniform(&mut rng, &input_shape, -1.0, 1.0);
    let weights: Vec<Tensor> = eager::weight_shapes(graph, 0)
        .expect("weight shapes evaluate")
        .iter()
        .map(|s| init::uniform(&mut rng, s, -1.0, 1.0))
        .collect();
    (input, weights)
}

fn assert_bits_equal(fast: &Tensor, slow: &Tensor, what: &str, graph: &PGraph) {
    assert_eq!(fast.shape(), slow.shape(), "{what} shape on\n{}", graph.render());
    for (i, (a, b)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} diverges ({a} vs {b}) on\n{}",
            graph.render()
        );
    }
}

fn assert_close_elementwise(a: &Tensor, b: &Tensor, tol: f32, what: &str, graph: &PGraph) {
    assert_eq!(a.shape(), b.shape(), "{what} shape on\n{}", graph.render());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "{what}: element {i} diverges ({x} vs {y}) on\n{}",
            graph.render()
        );
    }
}

/// A tape executor that notes every op it records and whether it was a
/// weight multiply — the one way to name the tape nodes a lowering creates.
struct NotingTape<'a> {
    tape: &'a mut Tape,
    ops: Vec<(Var, bool)>,
}

impl NotingTape<'_> {
    fn note(&mut self, v: Var, multiply: bool) -> Result<Var, EagerError> {
        self.ops.push((v, multiply));
        Ok(v)
    }
}

impl Executor for NotingTape<'_> {
    type Handle = Var;
    fn shape(&self, h: Var) -> &[usize] {
        self.tape.value(h).shape()
    }
    fn reshape(&mut self, h: Var, shape: &[usize]) -> Result<Var, EagerError> {
        let v = self.tape.reshape(h, shape);
        self.note(v, false)
    }
    fn permute(&mut self, h: Var, perm: &[usize]) -> Result<Var, EagerError> {
        let v = self.tape.permute(h, perm);
        self.note(v, false)
    }
    fn unfold(&mut self, h: Var, axis: usize, k: usize) -> Result<Var, EagerError> {
        let v = self.tape.unfold(h, axis, k);
        self.note(v, false)
    }
    fn roll(&mut self, h: Var, axis: usize, amount: i64) -> Result<Var, EagerError> {
        let v = self.tape.roll(h, axis, amount);
        self.note(v, false)
    }
    fn strided(&mut self, h: Var, axis: usize, s: usize) -> Result<Var, EagerError> {
        let v = self.tape.strided(h, axis, s);
        self.note(v, false)
    }
    fn repeat(&mut self, h: Var, axis: usize, times: usize) -> Result<Var, EagerError> {
        let v = self.tape.repeat(h, axis, times);
        self.note(v, false)
    }
    fn sum_axis(&mut self, h: Var, axis: usize) -> Result<Var, EagerError> {
        let v = self.tape.sum_axis(h, axis);
        self.note(v, false)
    }
    fn einsum(&mut self, spec: &str, inputs: &[Var]) -> Result<Var, EagerError> {
        let v = self.tape.einsum(spec, inputs);
        self.note(v, true)
    }
    fn differentiates(&self) -> bool {
        true
    }
}

/// The training-step differential for one tape-recordable graph: with the
/// input recorded as a constant rather than a leaf, the loss and every weight
/// gradient keep their bits, the input has no gradient, and neither has any
/// op before the first weight multiply (after it, the data is differentiable
/// through the weight and every op's gradient is still computed).
fn assert_constant_input_is_gradient_invisible(graph: &PGraph, input: &Tensor, weights: &[Tensor]) {
    let step = |constant: bool| {
        let mut tape = Tape::new();
        let x = match constant {
            true => tape.constant(input.clone()),
            false => tape.leaf(input.clone()),
        };
        let ws: Vec<Var> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
        let mut noting = NotingTape { tape: &mut tape, ops: Vec::new() };
        let out = eager::lower_eager(&mut noting, graph, 0, x, &ws).expect("recordable");
        let ops = noting.ops;
        let loss = tape.mean_all(out);
        let loss_value = tape.value(loss).clone();
        let grads = tape.backward(loss);
        let first_multiply = ops.iter().position(|&(_, multiply)| multiply).unwrap_or(ops.len());
        let upstream: Vec<bool> = std::iter::once(x)
            .chain(ops[..first_multiply].iter().map(|&(v, _)| v))
            .map(|v| grads.get(v).is_some())
            .collect();
        let weight_grads: Vec<Option<Tensor>> = ws.iter().map(|&w| grads.get(w).cloned()).collect();
        (loss_value, weight_grads, upstream)
    };
    let (leaf_loss, leaf_grads, leaf_upstream) = step(false);
    let (const_loss, const_grads, const_upstream) = step(true);
    assert_bits_equal(&const_loss, &leaf_loss, "loss with a constant input", graph);
    for (constant, leaf) in const_grads.iter().zip(&leaf_grads) {
        match (constant, leaf) {
            (Some(c), Some(l)) => assert_bits_equal(c, l, "weight gradient with a constant input", graph),
            (c, l) => assert_eq!(c.is_some(), l.is_some(), "weight gradient presence"),
        }
    }
    assert!(leaf_upstream.iter().all(|&held| held), "a leaf input is differentiated");
    assert!(
        !const_upstream.iter().any(|&held| held),
        "a constant input, or an op only it reaches, holds a gradient on\n{}",
        graph.render()
    );
}

/// The full differential check for one graph: the two lowerings' kernels
/// agree, compiled-vs-reference tapes are bit-identical (values and
/// gradients), and the eager backend agrees with the kernel interpreter
/// element-for-element.
fn assert_differential(graph: &PGraph, seed: u64) {
    let (input, weights) = random_io(graph, seed);

    let mut kernel_outputs: Vec<Tensor> = Vec::new();
    for (name, kernel) in [
        ("naive", lower_naive(graph, 0).expect("naive lowering")),
        ("optimized", lower_optimized(graph, 0).expect("optimized lowering")),
    ] {
        assert_only_the_last_stage_may_be_a_pure_map(&kernel, name, graph);
        kernel_outputs.push(kernel.execute(&input, &weights));
    }
    assert_close_elementwise(
        &kernel_outputs[0],
        &kernel_outputs[1],
        1e-3,
        "naive vs optimized",
        graph,
    );

    // The eager backend (plain and taped, compiled and reference tapes).
    // Lowering on shapes alone must end as lowering on tensors does: `Ok`, or
    // the same typed error.
    let executed = eager::execute(graph, 0, &input, &weights);
    let on_shapes = eager::validate(graph, 0, false).map(|_| ());
    assert_eq!(on_shapes, executed.as_ref().map(|_| ()).map_err(Clone::clone), "on\n{}", graph.render());
    match executed {
        Ok(eager_out) => {
            assert_close_elementwise(
                &eager_out,
                &kernel_outputs[0],
                1e-3,
                "eager vs kernel",
                graph,
            );

            let run_tape = |tape: &mut Tape| {
                let x = tape.leaf(input.clone());
                let ws: Vec<_> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
                let out = eager::record(tape, graph, 0, x, &ws)?;
                let out_value = tape.value(out).clone();
                let loss = tape.mean_all(out);
                let grads = tape.backward(loss);
                let gx = grads.get(x).cloned();
                Ok((out_value, gx))
            };
            // A weight bound twice to one axis has no VJP: recording it is a
            // typed failure (the search skips such candidates), and both
            // engines must agree on *whether* the graph is tape-recordable.
            let fast = run_tape(&mut Tape::new());
            let slow = run_tape(&mut Tape::new_reference());
            let (on_shapes, on_tape) = (eager::validate(graph, 0, true), fast.as_ref());
            assert_eq!(on_shapes.map(|_| ()), on_tape.map(|_| ()).map_err(Clone::clone), "on\n{}", graph.render());
            match (fast, slow) {
                (Ok((fast_out, fast_gx)), Ok((slow_out, slow_gx))) => {
                    assert_constant_input_is_gradient_invisible(graph, &input, &weights);
                    assert_bits_equal(&fast_out, &slow_out, "tape forward", graph);
                    assert_bits_equal(&fast_out, &eager_out, "tape vs eager", graph);
                    match (&fast_gx, &slow_gx) {
                        (Some(f), Some(s)) => assert_bits_equal(f, s, "input gradient", graph),
                        (f, s) => assert_eq!(f.is_some(), s.is_some(), "gradient presence"),
                    }
                    // Width 1 on the compiled engine reproduces the serial
                    // reference bits, gradients included.
                    let (out, gx) = run_tape(&mut Tape::with_policy(ExecPolicy::serial()))
                        .expect("recordable");
                    assert_bits_equal(&out, &slow_out, "width-1 tape", graph);
                    match (&gx, &slow_gx) {
                        (Some(g), Some(w)) => assert_bits_equal(g, w, "width-1 tape", graph),
                        (g, w) => assert_eq!(g.is_some(), w.is_some(), "width-1 gradient presence"),
                    }
                }
                (
                    Err(eager::EagerError::DiagonalWeight(_)),
                    Err(eager::EagerError::DiagonalWeight(_)),
                ) => {} // consistently unrecordable
                (f, s) => panic!(
                    "engines disagree on tape recordability (compiled ok: {}, reference ok: {}) on\n{}",
                    f.is_ok(),
                    s.is_ok(),
                    graph.render()
                ),
            }
        }
        Err(eager::EagerError::WeightNotRealizable(_)) => {
            // Loop-nest-only operators are legal; the kernel differential
            // above still covered them.
        }
        Err(other) => panic!("unexpected eager failure: {other} on\n{}", graph.render()),
    }
}

proptest! {
    /// Random valid pGraphs: every sampled operator passes the full
    /// differential check. The guided rollout regularly emits `Unfold`
    /// (the spec advertises a window coefficient), so clip paths are
    /// exercised continuously, not just by the fixtures below.
    #[test]
    fn random_pgraphs_agree_across_engines(seed in 0u64..u64::MAX) {
        let (vars, ids) = fixture_vars();
        let (cin, cout, h, w) = (ids[0], ids[1], ids[2], ids[3]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(cin), Size::var(h), Size::var(w)]),
            TensorShape::new(vec![Size::var(cout), Size::var(h), Size::var(w)]),
        );
        let config = SynthConfig::auto(&vars, 5);
        let enumerator = Enumerator::new(config);
        let root = PGraph::new(Arc::clone(&vars), spec);
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..60 {
            if let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) {
                assert_differential(&g, seed ^ trial);
                return Ok(());
            }
        }
        // A seed whose rollouts never complete proves nothing but is not a
        // failure of the engines.
    }
}

/// An operator the rollouts above rarely reach: its weight's dims (`H` before
/// a shift, the reduced `Cin` after it) are never live together, so no eager
/// lowering — on tensors or on shapes — can place the multiply.
#[test]
fn unplaceable_weight_is_the_same_typed_failure_on_shapes() {
    let (vars, spec) = search_specs()[0].clone();
    let g = PGraph::new(vars, spec.clone());
    let (co, h) = (g.frontier()[1], g.frontier()[2]);
    let g = g.apply(&Action::Share { coord: h, weight: 0 }).unwrap();
    let g = g.apply(&Action::Shift { coord: g.last_node().unwrap().produced[0] }).unwrap();
    let g = g.apply(&Action::Expand { coord: co }).unwrap();
    let g = g.apply(&Action::Reduce { domain: spec.input.dims()[1].clone() }).unwrap();
    let g = g.apply(&Action::Share { coord: g.last_node().unwrap().produced[0], weight: 0 }).unwrap();
    assert_eq!(eager::validate(&g, 0, true), Err(EagerError::WeightNotRealizable(0)));
    assert_differential(&g, 505);
}

/// What lowering emits, stage by stage: every stage before the last sums
/// (one stage per reduction group), a `Buffer` operand names an earlier such
/// stage, and nothing reads the last stage — the only one that may be a pure
/// map. So no lowered kernel holds a view stage that another stage reads;
/// `oracles.rs` builds such a kernel by hand to keep its clip semantics
/// tested.
fn assert_only_the_last_stage_may_be_a_pure_map(kernel: &Kernel, what: &str, graph: &PGraph) {
    let last = kernel.stages.len() - 1;
    for (i, stage) in kernel.stages.iter().enumerate() {
        assert!(
            i == last || !stage.reduce.is_empty(),
            "{what}: stage {i} of {} sums nothing on\n{}",
            last + 1,
            graph.render()
        );
        for op in &stage.operands {
            if let OperandRef::Buffer(b) = op.source {
                assert!(
                    b < i && !kernel.stages[b].reduce.is_empty(),
                    "{what}: stage {i} reads stage {b}, which is not an earlier summing stage, on\n{}",
                    graph.render()
                );
            }
        }
    }
}

/// The toy vision spec `[N, Cin, H, W] → [N, Cout, H, W]` and the toy
/// sequence spec `[B, T, C] → [B, T, C]` of the searches.
fn search_specs() -> [(Arc<VarTable>, OperatorSpec); 2] {
    let shape = |dims: &[VarId]| TensorShape::new(dims.iter().map(|&d| Size::var(d)).collect());
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let vision = OperatorSpec::new(shape(&[n, cin, h, w]), shape(&[n, cout, h, w]));
    let mut seq_vars = VarTable::new();
    let b = seq_vars.declare("B", VarKind::Primary);
    let t = seq_vars.declare("T", VarKind::Primary);
    let c = seq_vars.declare("C", VarKind::Primary);
    let k = seq_vars.declare("k", VarKind::Coefficient);
    seq_vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let sequence = OperatorSpec::new(shape(&[b, t, c]), shape(&[b, t, c]));
    [(vars.into_shared(), vision), (seq_vars.into_shared(), sequence)]
}

proptest! {
    /// The lowering invariant above on rollout-sampled complete operators of
    /// the vision and the sequence spec, under both lowerings.
    #[test]
    fn lowering_emits_no_view_stage_that_another_stage_reads(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (vars, spec) in search_specs() {
            let enumerator = Enumerator::new(SynthConfig::auto(&vars, 5));
            let root = PGraph::new(vars, spec);
            for _ in 0..24 {
                if let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) {
                    for (what, kernel) in [
                        ("naive", lower_naive(&g, 0).expect("naive lowering")),
                        ("optimized", lower_optimized(&g, 0).expect("optimized lowering")),
                    ] {
                        assert_only_the_last_stage_may_be_a_pure_map(&kernel, what, &g);
                    }
                }
            }
        }
    }

    /// The full differential check — the shape lowering and the constant
    /// input among it — on the first operator each seed's rollouts complete
    /// of the searches' own vision and sequence specs.
    #[test]
    fn search_spec_operators_agree_across_engines(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (vars, spec) in search_specs() {
            let enumerator = Enumerator::new(SynthConfig::auto(&vars, 5));
            let root = PGraph::new(vars, spec);
            let complete = (0..40).find_map(|_| match rollout(&mut rng, &enumerator, &root, true) {
                RolloutResult::Complete(g) => Some(g),
                _ => None,
            });
            if let Some(g) = complete {
                assert_differential(&g, seed);
            }
        }
    }
}

/// `[H] → [H, K]` where the `Unfold` of the two *output* coordinates is
/// discarded by `Expand` and the input is fed by a fresh `Reduce` iterator:
/// the clip lowers to a **spatial-only** stage guard gating a reduction
/// nest — the hoisted-guard path.
fn spatial_guard_graph() -> PGraph {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 8), (k, 3)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h), Size::var(k)]),
    );
    let g = PGraph::new(Arc::clone(&vars), spec);
    let i = g.frontier()[0];
    let w = g.frontier()[1];
    // u = i + w - k/2 clips at the tensor edges; no operand ever reads it
    // once Expand drops it, but the zero-padding window must still gate
    // the sum — the exact case PR 1's lowering fix introduced guards for.
    let g = g.apply(&Action::Unfold { base: i, window: w }).unwrap();
    let u = g.last_node().unwrap().produced[0];
    let g = g
        .apply(&Action::Reduce {
            domain: Size::var(vars.find("H").unwrap()),
        })
        .unwrap();
    let g = g.apply(&Action::Expand { coord: u }).unwrap();
    assert!(g.is_complete(), "{}", g.render());
    g
}

/// Like [`spatial_guard_graph`] but the discarded `Unfold` window comes
/// from a `Reduce`, so the guard binds a reduction atom and must stay
/// inside the inner loop (not hoistable).
fn reduce_guard_graph() -> PGraph {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 8), (k, 3)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h)]),
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
            domain: Size::var(vars.find("H").unwrap()),
        })
        .unwrap();
    let g = g.apply(&Action::Expand { coord: u }).unwrap();
    assert!(g.is_complete(), "{}", g.render());
    g
}

#[test]
fn expand_discarded_unfold_guards_spatial_case() {
    let g = spatial_guard_graph();
    let kernel = lower_naive(&g, 0).unwrap();
    assert!(
        kernel.stages.iter().any(|s| !s.guards.is_empty()),
        "fixture must lower with stage guards:\n{kernel}"
    );
    assert!(
        kernel.stages.iter().any(|s| !s.reduce.is_empty()),
        "the hoisted guard must gate a reduction nest"
    );
    assert_differential(&g, 101);

    // out[i, w] = [0 <= i + w - 1 < 8] * sum(in): clip kills the corners.
    let out = eager::execute(&g, 0, &Tensor::ones(&[8]), &[]).unwrap();
    assert_eq!(out.get(&[0, 0]), 0.0, "left edge clips");
    assert_eq!(out.get(&[7, 2]), 0.0, "right edge clips");
    assert_eq!(out.get(&[3, 1]), 8.0, "interior sums the input");
}

#[test]
fn expand_discarded_unfold_guards_reduce_case() {
    let g = reduce_guard_graph();
    let kernel = lower_naive(&g, 0).unwrap();
    assert!(
        kernel.stages.iter().any(|s| !s.guards.is_empty()),
        "fixture must lower with stage guards:\n{kernel}"
    );
    assert!(
        kernel.stages.iter().any(|s| !s.reduce.is_empty()),
        "fixture must have a reduction loop"
    );
    assert_differential(&g, 202);

    // out[i] = (# in-range window positions around i) * sum(in): 2 at the
    // edges, 3 inside, times 8.
    let out = eager::execute(&g, 0, &Tensor::ones(&[8]), &[]).unwrap();
    assert_eq!(out.get(&[0]), 16.0);
    assert_eq!(out.get(&[4]), 24.0);
    assert_eq!(out.get(&[7]), 16.0);
}

#[test]
fn named_operators_are_bitwise_stable_across_engines() {
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
    for graph in [
        ops::conv2d(&vars, n, cin, cout, h, w, k).unwrap(),
        ops::matmul(&vars, cin, cout, h).unwrap(),
        ops::avg_pool1d(&vars, h, s).unwrap(),
        ops::depthwise_conv2d(&vars, n, cin, h, w, k).unwrap(),
    ] {
        assert_differential(&graph, 303);
    }
}

/// The Fig. 4 staged kernel (materialized reduction): multi-stage buffers
/// flow through `OperandRef::Buffer`, and the kernel agrees with eager.
#[test]
fn staged_kernels_are_bitwise_stable() {
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

    let opt = lower_optimized(&g, 0).unwrap();
    assert!(opt.stages.len() > 1, "optimized kernel is staged");
    assert_differential(&g, 404);
}
