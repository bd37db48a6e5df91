//! Property-based tests over the tensor runtime: structural-op round trips,
//! einsum laws, adjointness of the view operations' backward passes, and the
//! differential contracts of the execution engine, all **bitwise** (the FP
//! summation order is part of the contract): for random specs and shapes the
//! stride-compiled einsum equals the deliberately naive per-element
//! reference at reduction width 1 and a hand-built chunk tree at the pinned
//! width; every row-at-a-time structural op equals
//! a per-element `(flat / stride) % extent` decode that lives in this file;
//! and recording the data of a training step as tape constants moves no
//! parameter-gradient bit while computing no gradient the data alone reaches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use syno_tensor::{
    einsum, einsum_spec, einsum_spec_reference, ops, EinsumEngine, EinsumSpec, ExecPolicy,
    ScratchPool, Tape, Tensor,
};

fn tensor_2d() -> impl Strategy<Value = Tensor> {
    (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

proptest! {
    #[test]
    fn permute_round_trips(t in tensor_2d()) {
        let p = ops::permute(&t, &[1, 0]);
        let back = ops::permute(&p, &[1, 0]);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn reshape_preserves_sum(t in tensor_2d()) {
        let n = t.numel();
        let flat = ops::reshape(&t, &[n]);
        prop_assert!((flat.sum_all() - t.sum_all()).abs() < 1e-3);
    }

    #[test]
    fn roll_is_cyclic(t in tensor_2d()) {
        let rows = t.shape()[0] as i64;
        let r = ops::roll(&t, 0, rows);
        prop_assert_eq!(r, t);
    }

    #[test]
    fn einsum_matmul_matches_manual(a in tensor_2d(), b in tensor_2d()) {
        // Make shapes compatible by construction.
        let (m, k1) = (a.shape()[0], a.shape()[1]);
        let k2 = b.shape()[0];
        if k1 != k2 { return Ok(()); }
        let n = b.shape()[1];
        let c = einsum("mk,kn->mn", &[&a, &b]).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k1 {
                    acc += a.get(&[i, kk]) * b.get(&[kk, j]);
                }
                prop_assert!((c.get(&[i, j]) - acc).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn einsum_is_linear_in_each_operand(a in tensor_2d()) {
        let scaled = a.scale(3.0);
        let ones = Tensor::ones(&[a.shape()[1]]);
        let y1 = einsum("mk,k->m", &[&a, &ones]).unwrap();
        let y3 = einsum("mk,k->m", &[&scaled, &ones]).unwrap();
        prop_assert!(y1.scale(3.0).allclose(&y3, 1e-3));
    }

    #[test]
    fn unfold_fold_adjoint(t in tensor_2d()) {
        // <unfold(x), g> == <x, fold(g)> for random g.
        let u = ops::unfold(&t, 1, 3);
        let g = Tensor::ones(u.shape());
        let lhs = u.mul(&g).sum_all();
        let folded = ops::fold_acc(&g, 1, 3, t.shape());
        let rhs = t.mul(&folded).sum_all();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_2d()) {
        let s = ops::softmax_last(&t);
        let rows = t.shape()[0];
        let cols = t.shape()[1];
        for r in 0..rows {
            let mut sum = 0.0;
            for c in 0..cols {
                let v = s.get(&[r, c]);
                prop_assert!((0.0..=1.0 + 1e-5).contains(&v));
                sum += v;
            }
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn sum_axis_agrees_with_total(t in tensor_2d()) {
        let s0 = ops::sum_axis(&t, 0).sum_all();
        let s1 = ops::sum_axis(&t, 1).sum_all();
        prop_assert!((s0 - t.sum_all()).abs() < 1e-2);
        prop_assert!((s1 - t.sum_all()).abs() < 1e-2);
    }

    /// The execution-engine differential: random einsum specs over random
    /// shapes produce the same bits from the stride-compiled plan as from
    /// the naive per-element reference (width 1) and the hand-built chunk
    /// tree (pinned width).
    #[test]
    fn compiled_einsum_matches_naive_reference_exactly(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..6 {
            let (spec, tensors) = random_contraction(&mut rng);
            let operands: Vec<&Tensor> = tensors.iter().collect();
            let slow = einsum_spec_reference(&spec, &operands).expect("reference path executes");
            let fast = einsum_spec(&spec, &operands).expect("compiled path executes");
            prop_assert!(same_bits(&fast, &slow), "one-shot plan diverges for {}", spec.render());
            prop_assert!(
                same_bits(&run_engine(&spec, &operands, ExecPolicy::serial()), &slow),
                "width 1 diverges for {}", spec.render()
            );
            let tree = chunk_tree_reference(&spec, &tensors, ExecPolicy::PINNED_REDUCE_WIDTH);
            prop_assert!(
                same_bits(&run_engine(&spec, &operands, ExecPolicy::default()), &tree),
                "pinned width diverges for {}", spec.render()
            );
        }
    }
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`same_bits`], except that a NaN matches any NaN: Rust leaves open which
/// NaN an addition returns when two NaNs meet (or `inf - inf` makes one),
/// and the compiler may swap an addition's operands, so the payload is no
/// part of the summation-order contract. Signed zeros and infinities still
/// compare by bits.
fn same_bits_or_nan(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn run_engine(spec: &EinsumSpec, operands: &[&Tensor], policy: ExecPolicy) -> Tensor {
    EinsumEngine::with_policy(policy)
        .einsum_parsed(spec, operands, &mut ScratchPool::new())
        .expect("engine executes")
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    Tensor::from_vec((0..numel).map(|_| rng.random_range(-4.0f32..4.0)).collect(), shape)
}

/// 1-3 operands of rank 0-4 over five letters with extents 1-9, letters
/// drawn with repetition (`aa` reads a diagonal), and an output that is a
/// shuffled subset of the used letters: extent-1 axes, summed extents below
/// and above the pinned width, a last output loop of 1-9, operands that
/// broadcast along or stride across the output's last index, contractions
/// with no summed index and with a scalar result all come up.
fn random_contraction(rng: &mut StdRng) -> (EinsumSpec, Vec<Tensor>) {
    const LETTERS: [char; 5] = ['a', 'b', 'c', 'd', 'e'];
    let extents: Vec<usize> = LETTERS.iter().map(|_| rng.random_range(1usize..=9)).collect();
    let mut inputs: Vec<Vec<char>> = Vec::new();
    let mut tensors: Vec<Tensor> = Vec::new();
    let mut used: Vec<char> = Vec::new();
    for _ in 0..rng.random_range(1usize..=3) {
        let rank = rng.random_range(0usize..=4);
        let letters: Vec<char> = (0..rank)
            .map(|_| LETTERS[rng.random_range(0usize..LETTERS.len())])
            .collect();
        let shape: Vec<usize> = letters
            .iter()
            .map(|c| extents[LETTERS.iter().position(|l| l == c).unwrap()])
            .collect();
        tensors.push(random_tensor(rng, &shape));
        for &c in &letters {
            if !used.contains(&c) {
                used.push(c);
            }
        }
        inputs.push(letters);
    }
    let mut output: Vec<char> = used.iter().copied().filter(|_| rng.random_bool(0.5)).collect();
    for i in (1..output.len()).rev() {
        output.swap(i, rng.random_range(0usize..=i));
    }
    (EinsumSpec { inputs, output }, tensors)
}

/// The pinned-width contract, spelled out: the outermost summed index (the
/// first non-output letter in first-seen order) splits into
/// `min(width, extent)` contiguous chunks, the longer ones first; each chunk
/// is summed in reference order over operands sliced to it; the partials
/// combine pairwise-adjacent, an odd one passing up unchanged.
fn chunk_tree_reference(spec: &EinsumSpec, tensors: &[Tensor], width: usize) -> Tensor {
    let operands: Vec<&Tensor> = tensors.iter().collect();
    let Some(&summed) = spec.all_indices().iter().find(|c| !spec.output.contains(c)) else {
        return einsum_spec_reference(spec, &operands).unwrap();
    };
    let extent = spec
        .inputs
        .iter()
        .zip(tensors)
        .find_map(|(letters, t)| letters.iter().position(|&c| c == summed).map(|at| t.shape()[at]))
        .expect("a summed letter is bound by an operand");
    let chunks = width.min(extent);
    if chunks <= 1 {
        return einsum_spec_reference(spec, &operands).unwrap();
    }
    let (q, r) = (extent / chunks, extent % chunks);
    let mut partials: Vec<Tensor> = (0..chunks)
        .map(|i| {
            let (lo, len) = (i * q + i.min(r), q + usize::from(i < r));
            let sliced: Vec<Tensor> = spec
                .inputs
                .iter()
                .zip(tensors)
                .map(|(letters, t)| {
                    let mut t = t.clone();
                    for (axis, &c) in letters.iter().enumerate() {
                        if c == summed {
                            t = ops::slice(&t, axis, lo, len);
                        }
                    }
                    t
                })
                .collect();
            einsum_spec_reference(spec, &sliced.iter().collect::<Vec<_>>()).unwrap()
        })
        .collect();
    while partials.len() > 1 {
        partials = partials
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => a.add(b),
                _ => pair[0].clone(),
            })
            .collect();
    }
    partials.pop().unwrap()
}

/// Deterministic pseudo-random data that actually exercises FP rounding.
fn noisy(shape: &[usize], salt: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n as u64)
        .map(|i| {
            let h = (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32) / ((1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Shapes the random generator cannot reach: the two sequence-head VJPs the
/// engine was re-nested for, tiles that block the inner and the outer tile
/// loop with a ragged last block, fused loops, a summed index that fuses
/// with its successor, the conv student's permuted weight and its
/// gradient, short rows of every length in the outer-product pattern, its
/// mirror and a strided pattern, few-term chunks over every pair of operand
/// runs with ragged lane groups, and the toy vision student's contraction
/// with both of its VJPs — each against both oracles.
#[test]
fn measured_and_tiled_shapes_match_both_oracles() {
    let cases: &[(&str, &[&[usize]])] = &[
        // Short rows of every length, as many rows as lanes, in the
        // outer-product pattern and its mirror; fewer rows than the register
        // block; and a pattern with no register kernel.
        ("mk,kn->mn", &[&[1, 40], &[40, 1]]),
        ("mk,kn->mn", &[&[2, 40], &[40, 2]]),
        ("mk,kn->mn", &[&[3, 40], &[40, 3]]),
        ("mk,kn->mn", &[&[4, 40], &[40, 4]]),
        ("mk,kn->mn", &[&[5, 40], &[40, 5]]),
        ("mk,kn->mn", &[&[6, 40], &[40, 6]]),
        ("mk,kn->mn", &[&[7, 40], &[40, 7]]),
        ("kn,mk->mn", &[&[40, 1], &[1, 40]]),
        ("kn,mk->mn", &[&[40, 2], &[2, 40]]),
        ("kn,mk->mn", &[&[40, 3], &[3, 40]]),
        ("kn,mk->mn", &[&[40, 4], &[4, 40]]),
        ("kn,mk->mn", &[&[40, 5], &[5, 40]]),
        ("kn,mk->mn", &[&[40, 6], &[6, 40]]),
        ("kn,mk->mn", &[&[40, 7], &[7, 40]]),
        ("mk,kn->mn", &[&[2, 40], &[40, 7]]),
        ("mk,kn->mn", &[&[6, 9], &[9, 7]]),
        ("mnk,nk->mn", &[&[5, 6, 40], &[6, 40]]),
        // Few-term chunks (2/1/1/1, 1/1/1, 2/2/2/1, 3/2/2/2) over broadcast,
        // contiguous and strided runs, lane groups with a ragged tail, a
        // strided output and one operand.
        ("mn,kn->mk", &[&[3, 5], &[37, 5]]),
        ("mk,mn->kn", &[&[3, 37], &[3, 5]]),
        ("ka,kb->ab", &[&[7, 20], &[7, 19]]),
        ("ka,kb->ab", &[&[9, 20], &[9, 19]]),
        ("abk,bk->ab", &[&[3, 20, 5], &[20, 5]]),
        ("kb,kb->b", &[&[5, 30], &[5, 30]]),
        ("kb->b", &[&[6, 35]]),
        // The toy vision student: N=4, Cin=3, Cout=4, H=W=8, k=3.
        ("nchwij,ocij->nohw", &[&[4, 3, 8, 8, 3, 3], &[4, 3, 3, 3]]),
        ("nohw,ocij->nchwij", &[&[4, 4, 8, 8], &[4, 3, 3, 3]]),
        ("nohw,nchwij->ocij", &[&[4, 4, 8, 8], &[4, 3, 8, 8, 3, 3]]),
        ("mn,mk->kn", &[&[4, 6], &[4, 512]]),
        ("mn,kn->mk", &[&[4, 6], &[512, 6]]),
        ("mk,kn->mn", &[&[4, 512], &[512, 6]]),
        ("i,j->ij", &[&[3], &[1500]]),
        ("ik,jk->ij", &[&[70, 5], &[20, 5]]),
        ("abcd,abcd->ad", &[&[3, 5, 4, 6], &[3, 5, 4, 6]]),
        ("abcd,ad->abcd", &[&[3, 5, 4, 6], &[3, 6]]),
        ("abc,abc->", &[&[5, 3, 7], &[5, 3, 7]]),
        ("nchwij,ocij->nohw", &[&[2, 3, 5, 6, 3, 3], &[4, 3, 3, 3]]),
        ("ii,i->i", &[&[9, 9], &[9]]),
        // Small tensors stored in loop order first: a permuted weight, a
        // permuted (small) result, permuted summed axes.
        ("abcdefg,dgfe->abcdefg", &[&[2, 3, 4, 2, 4, 3, 3], &[2, 3, 3, 4]]),
        ("abcdefg,abcdefg->dgfe", &[&[2, 3, 4, 2, 4, 3, 3], &[2, 3, 4, 2, 4, 3, 3]]),
        ("abn,ba->n", &[&[3, 4, 20], &[4, 3]]),
        ("ab->ba", &[&[40, 3]]),
        // The two sequence-head VJPs with a ragged row block and ragged
        // lane groups: rows that share an operand, a block of them at a
        // time and one left over, over 37 elements.
        ("mn,kn->mk", &[&[5, 6], &[37, 6]]),
        ("mn,mk->kn", &[&[5, 7], &[5, 37]]),
    ];
    for (text, shapes) in cases {
        let spec = EinsumSpec::parse(text).unwrap();
        let tensors: Vec<Tensor> = shapes
            .iter()
            .enumerate()
            .map(|(k, s)| noisy(s, 1000 * k as u64))
            .collect();
        let operands: Vec<&Tensor> = tensors.iter().collect();
        let serial = einsum_spec_reference(&spec, &operands).unwrap();
        let tree = chunk_tree_reference(&spec, &tensors, ExecPolicy::PINNED_REDUCE_WIDTH);
        let got = run_engine(&spec, &operands, ExecPolicy::serial());
        assert!(same_bits(&got, &serial), "{text} at width 1");
        let got = run_engine(&spec, &operands, ExecPolicy::default());
        assert!(same_bits(&got, &tree), "{text} at the pinned width");
    }
}

/// Data with signed zeros, infinities of both signs and NaN mixed in.
fn special(shape: &[usize], salt: u64) -> Tensor {
    let mut t = noisy_with_zeros(shape, salt);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match i % 11 {
            2 => *v = f32::INFINITY,
            6 => *v = f32::NEG_INFINITY,
            9 => *v = f32::NAN,
            _ => {}
        }
    }
    t
}

/// [`noisy_with_zeros`] spread over six orders of magnitude, so that sums
/// round and a change of summation order shows in the bits.
fn rough(shape: &[usize], salt: u64) -> Tensor {
    let mut t = noisy_with_zeros(shape, salt);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v *= [1.0, 1.0e3, 1.0e-3, 37.0, 0.011][i % 5];
    }
    t
}

/// Contractions with no summed index — a weight product and its data
/// gradient — against the reference, at width 1 and the pinned width:
/// the weight's letters every ordered subset of the data's and its
/// reversal, the weight as either operand, the output in data order and
/// rotated; then the two workload shapes. Every element is `+0.0 + a · b`,
/// so data holding `−0.0` (whose products must come out `+0.0`),
/// infinities and NaN keep their bits.
#[test]
fn no_summed_index_contractions_match_the_reference() {
    let run = |data_letters: &str, weight: &str, data_shape: &[usize], output: &str| {
        let weight_shape: Vec<usize> = weight
            .chars()
            .map(|c| data_shape[data_letters.find(c).unwrap()])
            .collect();
        let data = special(data_shape, 7);
        let w = special(&weight_shape, 8);
        for (text, operands) in [
            (format!("{data_letters},{weight}->{output}"), [&data, &w]),
            (format!("{weight},{data_letters}->{output}"), [&w, &data]),
        ] {
            let spec = EinsumSpec::parse(&text).unwrap();
            let want = einsum_spec_reference(&spec, &operands).unwrap();
            for policy in [ExecPolicy::serial(), ExecPolicy::default()] {
                let got = run_engine(&spec, &operands, policy);
                assert!(same_bits_or_nan(&got, &want), "{text} {data_shape:?} {policy:?}");
            }
        }
    };
    let (letters, shape) = ("abcde", [2, 3, 4, 5, 3]);
    for mask in 1u32..32 {
        let subset: String = letters
            .chars()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let reversed: String = subset.chars().rev().collect();
        for weight in [subset, reversed] {
            for output in ["abcde", "cdeab"] {
                run(letters, &weight, &shape, output);
            }
        }
    }
    run("abcde", "ce", &[8, 16, 16, 8, 16], "abcde");
    run("abcd", "c", &[4, 16, 32, 8], "abcd");
}

// ---- structural ops against a per-element decode ----

/// Coordinates of row-major position `flat` in `shape`.
fn coords_of(flat: usize, shape: &[usize]) -> Vec<usize> {
    let strides = Tensor::strides_of(shape);
    (0..shape.len()).map(|d| (flat / strides[d]) % shape[d]).collect()
}

fn flat_of(coords: &[usize], shape: &[usize]) -> usize {
    coords.iter().zip(Tensor::strides_of(shape)).map(|(c, s)| c * s).sum()
}

/// `out[c] = source(c)` for every output coordinate, `None` reading as zero.
fn gather_ref(out_shape: &[usize], source: impl Fn(&[usize]) -> Option<f32>) -> Tensor {
    let numel: usize = out_shape.iter().product();
    let data = (0..numel)
        .map(|flat| source(&coords_of(flat, out_shape)).unwrap_or(0.0))
        .collect();
    Tensor::from_vec(data, out_shape)
}

/// `out[target(c)] += t[c]` walking `t` in row-major order, so each output
/// slot accumulates in input order; `None` drops the element.
fn scatter_ref(
    t: &Tensor,
    out_shape: &[usize],
    target: impl Fn(&[usize]) -> Option<Vec<usize>>,
) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    for (flat, &v) in t.data().iter().enumerate() {
        if let Some(to) = target(&coords_of(flat, t.shape())) {
            out.data_mut()[flat_of(&to, out_shape)] += v;
        }
    }
    out
}

fn with_axis(coords: &[usize], axis: usize, value: usize) -> Vec<usize> {
    let mut c = coords.to_vec();
    c[axis] = value;
    c
}

/// Noisy data with exact zeros of both signs mixed in (`fold_acc` skips
/// zeros; accumulation must not care).
fn noisy_with_zeros(shape: &[usize], salt: u64) -> Tensor {
    let mut t = noisy(shape, salt);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match i % 7 {
            3 => *v = 0.0,
            5 => *v = -0.0,
            _ => {}
        }
    }
    t
}

/// `unfold` and `fold_acc` on every axis position, the trailing one
/// included (and an empty one), for every window from 1 to 17 — past every
/// extent here, so windows that overhang both ends come up. `fold_acc` runs on gradients
/// whose sums round (so each slot's order of windows shows) and on ones
/// holding infinities and NaN; both hold signed zeros, which it skips.
#[test]
fn unfold_and_fold_match_per_element_decode_for_every_window() {
    let shapes: &[&[usize]] = &[&[9], &[2, 13], &[3, 5, 7], &[4, 1, 6], &[2, 0]];
    for (salt, &shape) in shapes.iter().enumerate() {
        let t = special(shape, 400 + salt as u64);
        for axis in 0..shape.len() {
            let n = shape[axis];
            for k in 1..=17usize {
                let what = format!("shape {shape:?} axis {axis} k {k}");
                let mut windows = shape.to_vec();
                windows.push(k);
                let source = |c: &[usize]| {
                    let src = c[axis] as i64 + c[shape.len()] as i64 - (k / 2) as i64;
                    (0..n as i64).contains(&src).then_some(src as usize)
                };
                let want = gather_ref(&windows, |c| {
                    source(c).map(|src| t.data()[flat_of(&with_axis(&c[..shape.len()], axis, src), shape)])
                });
                assert!(same_bits_or_nan(&ops::unfold(&t, axis, k), &want), "unfold {what}");
                for grad in [rough(&windows, 500), special(&windows, 600)] {
                    let want = scatter_ref(&grad, shape, |c| {
                        source(c).map(|src| with_axis(&c[..shape.len()], axis, src))
                    });
                    let got = ops::fold_acc(&grad, axis, k, shape);
                    assert!(same_bits_or_nan(&got, &want), "fold_acc {what}");
                }
            }
        }
    }
}

/// Every rewritten structural op, on every axis position (first, middle,
/// last — and the only one), for `k`/`s`/`times`/`amount` in 1..=3; then
/// the trailing-axis sum and repeat over special values.
#[test]
fn structural_ops_match_per_element_decode() {
    let shapes: &[&[usize]] = &[&[6], &[6, 12], &[6, 3, 12], &[2, 6, 1, 6], &[1, 6, 6]];
    for (salt, &shape) in shapes.iter().enumerate() {
        let t = noisy_with_zeros(shape, salt as u64);
        let at = |c: &[usize]| t.data()[flat_of(c, shape)];
        for axis in 0..shape.len() {
            let n = shape[axis];
            let what = format!("shape {shape:?} axis {axis}");

            let mut summed = shape.to_vec();
            summed.remove(axis);
            let want = scatter_ref(&t, &summed, |c| {
                let mut c = c.to_vec();
                c.remove(axis);
                Some(c)
            });
            assert!(same_bits(&ops::sum_axis(&t, axis), &want), "sum_axis {what}");

            for p in 1..=3usize {
                let what = format!("{what} parameter {p}");
                // roll: both directions.
                for amount in [p as i64, -(p as i64)] {
                    let want = gather_ref(shape, |c| {
                        let src = (c[axis] as i64 + amount).rem_euclid(n as i64) as usize;
                        Some(at(&with_axis(c, axis, src)))
                    });
                    assert!(same_bits(&ops::roll(&t, axis, amount), &want), "roll {what}");
                }

                // unfold and its transpose.
                let mut windows = shape.to_vec();
                windows.push(p);
                let source = |c: &[usize]| {
                    let src = c[axis] as i64 + c[shape.len()] as i64 - (p / 2) as i64;
                    (0..n as i64).contains(&src).then_some(src as usize)
                };
                let want = gather_ref(&windows, |c| {
                    source(c).map(|src| at(&with_axis(&c[..shape.len()], axis, src)))
                });
                assert!(same_bits(&ops::unfold(&t, axis, p), &want), "unfold {what}");
                let grad = noisy_with_zeros(&windows, 100 + salt as u64);
                let want = scatter_ref(&grad, shape, |c| {
                    source(c).map(|src| with_axis(&c[..shape.len()], axis, src))
                });
                assert!(same_bits(&ops::fold_acc(&grad, axis, p, shape), &want), "fold_acc {what}");

                // strided and its transpose (every extent here is 1 or a
                // multiple of 6).
                if n % p == 0 {
                    let picked = with_axis(shape, axis, n / p);
                    let want = gather_ref(&picked, |c| Some(at(&with_axis(c, axis, c[axis] * p))));
                    assert!(same_bits(&ops::strided(&t, axis, p), &want), "strided {what}");
                    let grad = noisy_with_zeros(&picked, 200 + salt as u64);
                    let want = scatter_ref(&grad, shape, |c| Some(with_axis(c, axis, c[axis] * p)));
                    assert!(
                        same_bits(&ops::strided_scatter(&grad, axis, p, shape), &want),
                        "strided_scatter {what}"
                    );
                }
            }
        }

        // repeat: the new axis may also go last.
        for axis in 0..=shape.len() {
            for times in 1..=3 {
                let mut repeated = shape.to_vec();
                repeated.insert(axis, times);
                let want = gather_ref(&repeated, |c| {
                    let mut c = c.to_vec();
                    c.remove(axis);
                    Some(at(&c))
                });
                assert!(
                    same_bits(&ops::repeat(&t, axis, times), &want),
                    "repeat shape {shape:?} axis {axis} times {times}"
                );
            }
        }

        // permute: every rotation and every adjacent swap of the axes (the
        // identity, kept tails and a moved last axis among them).
        let rank = shape.len();
        let mut perms: Vec<Vec<usize>> = (0..rank)
            .map(|r| (0..rank).map(|d| (d + r) % rank).collect())
            .collect();
        for d in 1..rank {
            let mut swap: Vec<usize> = (0..rank).collect();
            swap.swap(d - 1, d);
            perms.push(swap);
        }
        for perm in perms {
            let permuted: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
            let want = gather_ref(&permuted, |c| {
                let mut src = vec![0; rank];
                for (d, &p) in perm.iter().enumerate() {
                    src[p] = c[d];
                }
                Some(at(&src))
            });
            let got = ops::permute(&t, &perm);
            assert!(same_bits(&got, &want), "permute shape {shape:?} by {perm:?}");
        }
    }

    // A trailing axis, summed or repeated: output counts below, at and off
    // a multiple of eight, an axis of extent 1, runs of every length the
    // one-store path covers and one past it, and data holding signed zeros,
    // infinities of both signs and NaN.
    let trailing: &[&[usize]] = &[&[6, 12], &[6, 3, 12], &[16, 3], &[5, 7, 1], &[3, 13, 2], &[1]];
    for (salt, &shape) in trailing.iter().enumerate() {
        let t = special(shape, 300 + salt as u64);
        let last = shape.len() - 1;
        let want = scatter_ref(&t, &shape[..last], |c| Some(c[..last].to_vec()));
        let got = ops::sum_axis(&t, last);
        assert!(same_bits_or_nan(&got, &want), "sum_axis trailing {shape:?}");
        for times in 1..=17 {
            let mut repeated = shape.to_vec();
            repeated.push(times);
            let want = gather_ref(&repeated, |c| Some(t.data()[flat_of(&c[..shape.len()], shape)]));
            let got = ops::repeat(&t, shape.len(), times);
            assert!(same_bits_or_nan(&got, &want), "repeat trailing {shape:?} times {times}");
        }
    }
}

proptest! {
    /// A student-shaped step recorded twice, its data (`x`, `s`, `z`) once as
    /// leaves and once as constants: the loss and every parameter gradient
    /// keep their bits, the data gets no gradient, and neither does any node
    /// upstream of the first differentiable operand (the einsum's weight).
    /// Constants meet parameters in every n-ary arm of `backward`: as an
    /// einsum operand, on either side of `sub` and `mul`, and in `add`.
    #[test]
    fn a_constant_input_moves_no_parameter_gradient(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut extent = |range| rng.random_range(range);
        let (n, c, d, h) = (extent(1usize..4), extent(1usize..4), extent(1usize..4), extent(3usize..7));
        let x0 = random_tensor(&mut rng, &[n, c, h]);
        let s0 = random_tensor(&mut rng, &[n, c, h]);
        let z0 = random_tensor(&mut rng, &[n, d, h]);
        let params0 = [
            random_tensor(&mut rng, &[c, 3, d]),
            random_tensor(&mut rng, &[n, d, h]),
            random_tensor(&mut rng, &[d * h, 3]),
        ];
        let labels: Vec<usize> = (0..n).map(|_| rng.random_range(0usize..3)).collect();

        let step = |constant: bool| {
            let mut tape = Tape::new();
            let [x, s, z] = [&x0, &s0, &z0].map(|t| match constant {
                true => tape.constant(t.clone()),
                false => tape.leaf(t.clone()),
            });
            let [w, b, head] = [0, 1, 2].map(|p| tape.leaf(params0[p].clone()));
            let m = tape.mul(x, s);
            let r = tape.roll(m, 2, 1);
            let u = tape.unfold(r, 2, 3);
            let p = tape.permute(u, &[0, 2, 1, 3]);
            let y = tape.einsum("nhck,ckd->ndh", &[p, w]);
            let y = tape.add(b, y);
            let y = tape.relu(y);
            let y = tape.sub(z, y);
            let y = tape.mul(y, z);
            let f = tape.reshape(y, &[n, d * h]);
            let logits = tape.matmul(f, head);
            let loss = tape.softmax_cross_entropy(logits, &labels);
            let loss_bits = tape.value(loss).data()[0].to_bits();
            let grads = tape.backward(loss);
            let grad = |v| grads.get(v).cloned();
            (loss_bits, [w, b, head].map(grad), [x, s, z, m, r, u, p].map(grad))
        };
        let (leaf_loss, leaf_params, leaf_upstream) = step(false);
        let (const_loss, const_params, const_upstream) = step(true);
        prop_assert_eq!(leaf_loss, const_loss);
        for (leaf, constant) in leaf_params.iter().zip(&const_params) {
            let (leaf, constant) = (leaf.as_ref().expect("a parameter"), constant.as_ref().expect("a parameter"));
            prop_assert!(same_bits(leaf, constant), "a parameter gradient moved");
        }
        prop_assert!(leaf_upstream.iter().all(Option::is_some), "leaves are differentiated");
        prop_assert!(const_upstream.iter().all(Option::is_none), "constants are not");
    }
}
