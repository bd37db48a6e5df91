use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randn(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.random::<f32>() - 0.5).collect(), shape)
}

/// Numerical gradient check for a scalar-valued tape function.
fn gradcheck(
    build: impl Fn(&mut Tape, Var) -> Var,
    x0: &Tensor,
    tol: f32,
) {
    let mut tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let loss = build(&mut tape, x);
    assert_eq!(tape.value(loss).numel(), 1, "loss must be scalar");
    let grads = tape.backward(loss);
    let analytic = grads.get(x).expect("x participates").clone();

    let eps = 1e-2f32;
    for i in 0..x0.numel() {
        let mut plus = x0.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= eps;
        let mut tp = Tape::new();
        let xp = tp.leaf(plus);
        let lp_var = build(&mut tp, xp);
        let lp = tp.value(lp_var).sum_all();
        let mut tm = Tape::new();
        let xm = tm.leaf(minus);
        let lm_var = build(&mut tm, xm);
        let lm = tm.value(lm_var).sum_all();
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic.data()[i];
        assert!(
            (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "grad[{i}]: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn gradcheck_elementwise_chain() {
    let mut rng = StdRng::seed_from_u64(1);
    let x0 = randn(&mut rng, &[2, 3]);
    gradcheck(
        |t, x| {
            let y = t.relu(x);
            let z = t.scale(y, 2.0);
            let w = t.add_scalar(z, 0.1);
            t.mean_all(w)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_matmul() {
    let mut rng = StdRng::seed_from_u64(2);
    let x0 = randn(&mut rng, &[3, 4]);
    let w = randn(&mut rng, &[4, 2]);
    gradcheck(
        move |t, x| {
            let wv = t.leaf(w.clone());
            let y = t.matmul(x, wv);
            t.mean_all(y)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_unfold_roll_stride() {
    let mut rng = StdRng::seed_from_u64(3);
    let x0 = randn(&mut rng, &[8]);
    gradcheck(
        |t, x| {
            let u = t.unfold(x, 0, 3);
            let r = t.roll(u, 0, 1);
            let s = t.sum_axis(r, 1);
            let st = t.strided(s, 0, 2);
            t.mean_all(st)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_einsum_contraction() {
    let mut rng = StdRng::seed_from_u64(4);
    let x0 = randn(&mut rng, &[2, 3, 4]);
    let w = randn(&mut rng, &[3, 5]);
    gradcheck(
        move |t, x| {
            let wv = t.leaf(w.clone());
            let y = t.einsum("nch,cd->ndh", &[x, wv]);
            t.mean_all(y)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_einsum_private_index() {
    // x has index h absent from output AND from the other operand:
    // forward sums over it; gradient must broadcast.
    let mut rng = StdRng::seed_from_u64(5);
    let x0 = randn(&mut rng, &[2, 3]);
    let w = randn(&mut rng, &[2]);
    gradcheck(
        move |t, x| {
            let wv = t.leaf(w.clone());
            let y = t.einsum("ch,c->c", &[x, wv]);
            t.mean_all(y)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_softmax_cross_entropy() {
    let mut rng = StdRng::seed_from_u64(6);
    let x0 = randn(&mut rng, &[3, 4]);
    gradcheck(
        |t, x| t.softmax_cross_entropy(x, &[1, 0, 3]),
        &x0,
        2e-2,
    );
}

#[test]
fn gradcheck_softmax_last() {
    let mut rng = StdRng::seed_from_u64(7);
    let x0 = randn(&mut rng, &[2, 3]);
    let w = randn(&mut rng, &[2, 3]);
    gradcheck(
        move |t, x| {
            let y = t.softmax_last(x);
            let wv = t.leaf(w.clone());
            let z = t.mul(y, wv);
            t.mean_all(z)
        },
        &x0,
        2e-2,
    );
}

#[test]
fn gradcheck_reshape_permute_repeat() {
    let mut rng = StdRng::seed_from_u64(8);
    let x0 = randn(&mut rng, &[2, 6]);
    gradcheck(
        |t, x| {
            let r = t.reshape(x, &[2, 2, 3]);
            let p = t.permute(r, &[2, 0, 1]);
            let e = t.repeat(p, 1, 2);
            let s = t.sum_axis(e, 1);
            t.mean_all(s)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn gradcheck_gather() {
    let mut rng = StdRng::seed_from_u64(9);
    let x0 = randn(&mut rng, &[5, 3]);
    gradcheck(
        |t, x| {
            let g = t.gather(x, &[0, 2, 2, 4]);
            t.mean_all(g)
        },
        &x0,
        1e-2,
    );
}

#[test]
fn grad_accumulates_over_reuse() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![2.0], &[1]));
    let y = tape.mul(x, x); // x^2
    let loss = tape.mean_all(y);
    let grads = tape.backward(loss);
    assert_eq!(grads.get(x).unwrap().data(), &[4.0]); // 2x
}

#[test]
fn unused_leaves_have_no_grad() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::ones(&[2]));
    let z = tape.leaf(Tensor::ones(&[2]));
    let loss = tape.mean_all(x);
    let grads = tape.backward(loss);
    assert!(grads.get(x).is_some());
    assert!(grads.get(z).is_none());
}

/// Records one model-ish step on a tape and returns (loss bits, grad
/// tensors) — used to compare the compiled and reference engines.
fn one_step(tape: &mut Tape, seed: u64) -> (u32, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0 = randn(&mut rng, &[2, 3, 4]);
    let w0 = randn(&mut rng, &[3, 5]);
    let x = tape.leaf(x0);
    let w = tape.leaf(w0);
    let u = tape.unfold(x, 2, 3);
    let s = tape.sum_axis(u, 3);
    let y = tape.einsum("nch,cd->ndh", &[s, w]);
    let r = tape.relu(y);
    let p = tape.permute(r, &[0, 2, 1]);
    let f = tape.reshape(p, &[2, 20]);
    let h = tape.leaf(Tensor::ones(&[20, 3]));
    let logits = tape.matmul(f, h);
    let loss = tape.softmax_cross_entropy(logits, &[0, 2]);
    let bits = tape.value(loss).data()[0].to_bits();
    let grads = tape.backward(loss);
    let gx = grads.get(x).unwrap().clone();
    let gw = grads.get(w).unwrap().clone();
    tape.recycle_gradients(grads);
    (bits, vec![gx, gw])
}

fn assert_step_bits_equal(a: (u32, Vec<Tensor>), b: (u32, Vec<Tensor>), what: &str) {
    assert_eq!(a.0, b.0, "loss bits diverge: {what}");
    for (x, y) in a.1.iter().zip(&b.1) {
        assert_eq!(x.shape(), y.shape());
        for (p, q) in x.data().iter().zip(y.data()) {
            assert_eq!(p.to_bits(), q.to_bits(), "gradient bits diverge: {what}");
        }
    }
}

#[test]
fn compiled_engine_matches_reference_bit_for_bit() {
    // The serial policy reproduces the reference engine exactly,
    // gradients included.
    let mut fast = Tape::with_policy(ExecPolicy::serial());
    let mut slow = Tape::new_reference();
    assert_eq!(slow.policy(), ExecPolicy::serial());
    let f = one_step(&mut fast, 42);
    let s = one_step(&mut slow, 42);
    assert_step_bits_equal(f, s, "serial vs reference");
}

#[test]
fn default_contract_is_invariant_to_thread_count() {
    // The pinned contract (reduce_width 4): values never depend on
    // exec_threads, only on the tree width.
    let mut pinned = Tape::new();
    assert_eq!(pinned.policy(), ExecPolicy::default());
    let want = one_step(&mut pinned, 42);
    for threads in [2, 4] {
        let mut tape = Tape::with_policy(ExecPolicy::with_threads(threads));
        let got = one_step(&mut tape, 42);
        assert_step_bits_equal(got, want.clone(), &format!("{threads} threads"));
    }
}

#[test]
fn reset_reuses_buffers_and_keeps_results_identical() {
    let mut tape = Tape::new();
    let (first, _) = one_step(&mut tape, 7);
    tape.reset();
    assert!(tape.is_empty());
    let (second, _) = one_step(&mut tape, 7);
    assert_eq!(first, second, "reset must not change values");
}
