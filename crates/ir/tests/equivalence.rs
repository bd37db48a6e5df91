//! The reproduction's central correctness property: the eager (PyTorch-style)
//! backend and the loop-nest interpreter (TVM-TE-style) implement identical
//! semantics for every pGraph, with and without the materialized-reduction
//! optimization (§8).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno_core::prelude::*;
use syno_ir::{eager, lower_naive, lower_optimized};
use syno_tensor::{init, Tensor};

struct Fixture {
    vars: Arc<VarTable>,
    n: VarId,
    cin: VarId,
    cout: VarId,
    h: VarId,
    w: VarId,
    k: VarId,
    s: VarId,
    g: VarId,
}

fn fixture() -> Fixture {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let s = vars.declare("s", VarKind::Coefficient);
    let g = vars.declare("g", VarKind::Coefficient);
    vars.push_valuation(vec![
        (n, 2),
        (cin, 4),
        (cout, 8),
        (h, 8),
        (w, 8),
        (k, 3),
        (s, 2),
        (g, 2),
    ]);
    Fixture {
        vars: vars.into_shared(),
        n,
        cin,
        cout,
        h,
        w,
        k,
        s,
        g,
    }
}

/// Random input/weights for a graph, and the three backend outputs.
fn run_all_backends(graph: &PGraph, seed: u64) -> (Tensor, Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input_shape: Vec<usize> = graph
        .spec()
        .input
        .eval(graph.vars(), 0)
        .unwrap()
        .iter()
        .map(|&v| v as usize)
        .collect();
    let input = init::uniform(&mut rng, &input_shape, -1.0, 1.0);
    let weights: Vec<Tensor> = eager::weight_shapes(graph, 0)
        .unwrap()
        .iter()
        .map(|s| init::uniform(&mut rng, s, -1.0, 1.0))
        .collect();

    let eager_out = eager::execute(graph, 0, &input, &weights).expect("eager executes");
    let naive = lower_naive(graph, 0).expect("naive lowering");
    let naive_out = naive.execute(&input, &weights);
    let opt = lower_optimized(graph, 0).expect("optimized lowering");
    let opt_out = opt.execute(&input, &weights);
    (eager_out, naive_out, opt_out)
}

fn assert_equivalent(graph: &PGraph, seed: u64) {
    let (e, n, o) = run_all_backends(graph, seed);
    assert!(
        e.allclose(&n, 1e-3),
        "eager vs naive diverge (max diff {}) on\n{}",
        e.max_abs_diff(&n),
        graph.render()
    );
    assert!(
        e.allclose(&o, 1e-3),
        "eager vs optimized diverge (max diff {}) on\n{}",
        e.max_abs_diff(&o),
        graph.render()
    );
}

#[test]
fn conv2d_backends_agree() {
    let f = fixture();
    let conv = ops::conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
    assert_equivalent(&conv, 11);
}

#[test]
fn conv2d_matches_direct_reference() {
    // Belt and braces: compare against a hand-rolled convolution.
    let f = fixture();
    let conv = ops::conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let x = init::uniform(&mut rng, &[2, 4, 8, 8], -1.0, 1.0);
    // Weight dims in creation order: [Cin, kH, kW, Cout].
    let wshape = eager::weight_shapes(&conv, 0).unwrap()[0].clone();
    assert_eq!(wshape, vec![4, 3, 3, 8]);
    let w = init::uniform(&mut rng, &wshape, -1.0, 1.0);

    let got = eager::execute(&conv, 0, &x, std::slice::from_ref(&w)).unwrap();
    assert_eq!(got.shape(), &[2, 8, 8, 8]);

    let mut want = Tensor::zeros(&[2, 8, 8, 8]);
    for n in 0..2 {
        for co in 0..8 {
            for y in 0..8i64 {
                for xx in 0..8i64 {
                    let mut acc = 0.0;
                    for ci in 0..4 {
                        for kh in 0..3i64 {
                            for kw in 0..3i64 {
                                let iy = y + kh - 1;
                                let ix = xx + kw - 1;
                                if !(0..8).contains(&iy) || !(0..8).contains(&ix) {
                                    continue;
                                }
                                acc += x.get(&[n, ci, iy as usize, ix as usize])
                                    * w.get(&[ci, kh as usize, kw as usize, co]);
                            }
                        }
                    }
                    want.set(&[n, co, y as usize, xx as usize], acc);
                }
            }
        }
    }
    assert!(
        got.allclose(&want, 1e-3),
        "max diff {}",
        got.max_abs_diff(&want)
    );
}

#[test]
fn matmul_backends_agree() {
    let f = fixture();
    let mm = ops::matmul(&f.vars, f.cin, f.cout, f.h).unwrap();
    assert_equivalent(&mm, 13);
}

#[test]
fn matmul_matches_einsum_reference() {
    let f = fixture();
    let mm = ops::matmul(&f.vars, f.cin, f.cout, f.h).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let x = init::uniform(&mut rng, &[4, 8], -1.0, 1.0); // [M=Cin, K=H]
    let wshape = eager::weight_shapes(&mm, 0).unwrap()[0].clone();
    // Weight dims: [K, N] = [8, 8].
    let w = init::uniform(&mut rng, &wshape, -1.0, 1.0);
    let got = eager::execute(&mm, 0, &x, std::slice::from_ref(&w)).unwrap();
    let want = syno_tensor::matmul(&x, &syno_tensor::ops::reshape(&w, &[8, 8]));
    assert!(got.allclose(&want, 1e-3));
}

#[test]
fn avg_pool_backends_agree() {
    let f = fixture();
    let pool = ops::avg_pool1d(&f.vars, f.h, f.s).unwrap();
    assert_equivalent(&pool, 19);
    // And the semantics: out[i] = x[2i] + x[2i+1] (unscaled sum pooling).
    let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[8]);
    let got = eager::execute(&pool, 0, &x, &[]).unwrap();
    assert_eq!(got.data(), &[1.0, 5.0, 9.0, 13.0]);
}

#[test]
fn pixel_shuffle_backends_agree() {
    let f = fixture();
    let ps = ops::pixel_shuffle(&f.vars, f.h, f.s).unwrap();
    assert_equivalent(&ps, 23);
    // out(i) = input((H/B)*(i%B) + i/B) with H=8, B=2.
    let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[8]);
    let got = eager::execute(&ps, 0, &x, &[]).unwrap();
    assert_eq!(
        got.data(),
        &[0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]
    );
}

#[test]
fn grouped_and_depthwise_agree() {
    let f = fixture();
    let grouped =
        ops::grouped_conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k, f.g).unwrap();
    assert_equivalent(&grouped, 29);
    let dw = ops::depthwise_conv2d(&f.vars, f.n, f.cin, f.h, f.w, f.k).unwrap();
    assert_equivalent(&dw, 31);
}

#[test]
fn pointwise_agrees() {
    let f = fixture();
    let pw = ops::pointwise_conv(&f.vars, f.n, f.cin, f.cout, f.h, f.w).unwrap();
    assert_equivalent(&pw, 37);
}

/// The Fig. 4 materialized-reduction example: pooling-then-convolution
/// fused in one operator. Naive fusion costs ~k·H MACs; materializing the
/// pooling stage first costs ~(1 + k/s)·H.
#[test]
fn materialized_reduction_cuts_flops() {
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
    // Reduce(k); Unfold(i, r_k) — convolution window on the pooled axis...
    let g = g
        .apply(&Action::Reduce {
            domain: Size::var(k),
        })
        .unwrap();
    let rk = g.last_node().unwrap().produced()[0];
    let g = g
        .apply(&Action::Unfold {
            base: i,
            window: rk,
        })
        .unwrap();
    let u = g.last_node().unwrap().produced()[0];
    // ...then Reduce(s); Split — pooling below.
    let g = g
        .apply(&Action::Reduce {
            domain: Size::var(s),
        })
        .unwrap();
    let rs = g.last_node().unwrap().produced()[0];
    let g = g.apply(&Action::Split { lhs: u, rhs: rs }).unwrap();
    assert!(g.is_complete(), "{}", g.render());

    let naive = lower_naive(&g, 0).unwrap();
    let opt = lower_optimized(&g, 0).unwrap();
    assert!(
        opt.flops() < naive.flops(),
        "materialization should help: {} vs {}",
        opt.flops(),
        naive.flops()
    );
    assert!(opt.stages.len() > 1, "optimized kernel is staged");
    // Paper arithmetic: naive ≈ (H/s)·k·s iterations, staged ≈ H + (H/s)·k.
    let h_val = 64u128;
    let (kk, ss) = (5u128, 4u128);
    assert_eq!(naive.flops(), h_val / ss * kk * ss);
    assert!(opt.flops() <= h_val + (h_val / ss) * kk + h_val / ss);

    // And of course both lowerings still agree with the eager backend.
    assert_equivalent(&g, 41);
}

/// Property test: every operator the guided sampler can synthesize for a
/// conv-like specification evaluates identically under all three backends.
#[test]
fn random_operators_backends_agree() {
    let f = fixture();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![
            Size::var(f.cin),
            Size::var(f.h),
            Size::var(f.w),
        ]),
        TensorShape::new(vec![
            Size::var(f.cout),
            Size::var(f.h),
            Size::var(f.w),
        ]),
    );
    let config = SynthConfig::auto(&f.vars, 5);
    let enumerator = Enumerator::new(config);
    let root = PGraph::new(Arc::clone(&f.vars), spec);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut checked = 0;
    for trial in 0..300 {
        if let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) {
            match eager::execute(
                &g,
                0,
                &init::uniform(&mut StdRng::seed_from_u64(trial),
                    &g.spec().input.eval(g.vars(), 0).unwrap().iter().map(|&v| v as usize).collect::<Vec<_>>(), -1.0, 1.0),
                &eager::weight_shapes(&g, 0)
                    .unwrap()
                    .iter()
                    .map(|s| init::uniform(&mut StdRng::seed_from_u64(trial + 999), s, -1.0, 1.0))
                    .collect::<Vec<_>>(),
            ) {
                Ok(_) => {
                    assert_equivalent(&g, trial);
                    checked += 1;
                }
                Err(eager::EagerError::WeightNotRealizable(_)) => {
                    // Loop-nest-only operators are legal; just check the two
                    // interpreters against each other.
                    let mut r = StdRng::seed_from_u64(trial);
                    let input_shape: Vec<usize> = g
                        .spec()
                        .input
                        .eval(g.vars(), 0)
                        .unwrap()
                        .iter()
                        .map(|&v| v as usize)
                        .collect();
                    let input = init::uniform(&mut r, &input_shape, -1.0, 1.0);
                    let weights: Vec<Tensor> = eager::weight_shapes(&g, 0)
                        .unwrap()
                        .iter()
                        .map(|s| init::uniform(&mut r, s, -1.0, 1.0))
                        .collect();
                    let n = lower_naive(&g, 0).unwrap().execute(&input, &weights);
                    let o = lower_optimized(&g, 0).unwrap().execute(&input, &weights);
                    assert!(n.allclose(&o, 1e-3));
                    checked += 1;
                }
                Err(other) => panic!("unexpected eager failure: {other} on\n{}", g.render()),
            }
        }
        if checked >= 40 {
            break;
        }
    }
    assert!(checked >= 10, "too few operators sampled: {checked}");
}

/// The tape-recorded forward pass equals the plain eager execution, and
/// gradients flow to both input and weights.
#[test]
fn tape_recording_matches_eager_and_differentiates() {
    let f = fixture();
    let conv = ops::conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let x = init::uniform(&mut rng, &[2, 4, 8, 8], -0.5, 0.5);
    let wshape = eager::weight_shapes(&conv, 0).unwrap()[0].clone();
    let w = init::uniform(&mut rng, &wshape, -0.5, 0.5);

    let plain = eager::execute(&conv, 0, &x, std::slice::from_ref(&w)).unwrap();

    let mut tape = syno_tensor::Tape::new();
    let xv = tape.leaf(x.clone());
    let wv = tape.leaf(w.clone());
    let out = eager::record(&mut tape, &conv, 0, xv, &[wv]).unwrap();
    assert!(tape.value(out).allclose(&plain, 1e-4));

    let loss = tape.mean_all(out);
    let grads = tape.backward(loss);
    let gx = grads.get(xv).expect("input gradient");
    let gw = grads.get(wv).expect("weight gradient");
    assert_eq!(gx.shape(), x.shape());
    assert_eq!(gw.shape(), w.shape());
    assert!(gx.is_finite() && gw.is_finite());
    assert!(gw.sq_norm() > 0.0, "weight gradient must be nonzero");
}

/// A weight with two dims on one live axis reads a diagonal: plain execution
/// supports it, the tape has no VJP for it and says so with a typed error —
/// the search skips such a candidate without a panic to catch.
#[test]
fn diagonal_weight_is_a_typed_tape_failure() {
    let f = fixture();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(f.cin), Size::var(f.h), Size::var(f.w)]),
        TensorShape::new(vec![Size::var(f.cout), Size::var(f.h), Size::var(f.w)]),
    );
    let enumerator = Enumerator::new(SynthConfig::auto(&f.vars, 5));
    let root = PGraph::new(Arc::clone(&f.vars), spec);
    let mut rng = StdRng::seed_from_u64(1234);
    for trial in 0..2000 {
        let RolloutResult::Complete(g) = rollout(&mut rng, &enumerator, &root, true) else {
            continue;
        };
        let mut r = StdRng::seed_from_u64(trial);
        let input_shape: Vec<usize> =
            g.spec().input.eval(g.vars(), 0).unwrap().iter().map(|&v| v as usize).collect();
        let input = init::uniform(&mut r, &input_shape, -1.0, 1.0);
        let weights: Vec<Tensor> = eager::weight_shapes(&g, 0)
            .unwrap()
            .iter()
            .map(|s| init::uniform(&mut r, s, -1.0, 1.0))
            .collect();
        let mut tape = syno_tensor::Tape::new();
        let x = tape.leaf(input.clone());
        let ws: Vec<_> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
        if let Err(eager::EagerError::DiagonalWeight(w)) = eager::record(&mut tape, &g, 0, x, &ws) {
            assert!(w < weights.len());
            eager::execute(&g, 0, &input, &weights).expect("plain execution reads the diagonal");
            return;
        }
    }
    panic!("no sampled operator binds a weight twice to one axis");
}
