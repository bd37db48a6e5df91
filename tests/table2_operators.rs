//! E9: the Table 2 / Fig. 2 reference operators compose, are canonical,
//! and evaluate identically under both code generators — across crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno::core::prelude::*;
use syno::core::ops;
use syno::ir::{eager, lower_naive, lower_optimized};
use syno::tensor::init;

struct Vars {
    table: Arc<VarTable>,
    n: VarId, cin: VarId, cout: VarId, h: VarId, w: VarId, k: VarId, s: VarId,
}

fn vars() -> Vars {
    let mut t = VarTable::new();
    let n = t.declare("N", VarKind::Primary);
    let cin = t.declare("Cin", VarKind::Primary);
    let cout = t.declare("Cout", VarKind::Primary);
    let h = t.declare("H", VarKind::Primary);
    let w = t.declare("W", VarKind::Primary);
    let k = t.declare("k", VarKind::Coefficient);
    let s = t.declare("s", VarKind::Coefficient);
    t.push_valuation(vec![(n, 2), (cin, 4), (cout, 8), (h, 8), (w, 8), (k, 3), (s, 2)]);
    Vars { table: t.into_shared(), n, cin, cout, h, w, k, s }
}

/// Checks both lowerings against eager on random operands; returns eager's output.
fn check(graph: &syno::core::graph::PGraph, seed: u64) -> syno::tensor::Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let input_shape: Vec<usize> = graph
        .spec().input.eval(graph.vars(), 0).unwrap()
        .iter().map(|&v| v as usize).collect();
    let x = init::uniform(&mut rng, &input_shape, -1.0, 1.0);
    let weights: Vec<_> = eager::weight_shapes(graph, 0).unwrap()
        .iter().map(|sh| init::uniform(&mut rng, sh, -1.0, 1.0)).collect();
    let e = eager::execute(graph, 0, &x, &weights).unwrap();
    let nk = lower_naive(graph, 0).unwrap().execute(&x, &weights);
    let ok = lower_optimized(graph, 0).unwrap().execute(&x, &weights);
    assert!(e.allclose(&nk, 1e-3), "naive disagrees:\n{}", graph.render());
    assert!(e.allclose(&ok, 1e-3), "optimized disagrees:\n{}", graph.render());
    e
}

#[test]
fn table2_matmul() {
    let v = vars();
    check(&ops::matmul(&v.table, v.cin, v.cout, v.h).unwrap(), 1);
}

#[test]
fn table2_avg_pool() {
    let v = vars();
    check(&ops::avg_pool1d(&v.table, v.h, v.s).unwrap(), 2);
}

#[test]
fn table2_pixel_shuffle() {
    let v = vars();
    check(&ops::pixel_shuffle(&v.table, v.h, v.s).unwrap(), 3);
}

#[test]
fn fig2_conv2d() {
    let v = vars();
    check(&ops::conv2d(&v.table, v.n, v.cin, v.cout, v.h, v.w, v.k).unwrap(), 4);
}

#[test]
fn listing2_operator1() {
    let op1 = syno::models::operator1(&syno::models::ConvShape {
        n: 1, cin: 8, cout: 16, hw: 8, k: 3, g: 2, s: 2,
    }).unwrap();
    assert_eq!(check(&op1, 5).shape(), &[1, 16, 8, 8]);
}
