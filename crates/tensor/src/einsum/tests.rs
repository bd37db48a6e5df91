use super::*;

fn iota(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|i| i as f32).collect(), shape)
}

#[test]
fn parse_round_trips() {
    let s = EinsumSpec::parse("nck,dck->ndk").unwrap();
    assert_eq!(s.inputs.len(), 2);
    assert_eq!(s.output, vec!['n', 'd', 'k']);
    assert_eq!(s.render(), "nck,dck->ndk");
    assert!(EinsumSpec::parse("nck,dck").is_err());
}

#[test]
fn matmul_agrees_with_manual() {
    let a = iota(&[2, 3]);
    let b = iota(&[3, 2]);
    let c = matmul(&a, &b);
    // [[0,1,2],[3,4,5]] @ [[0,1],[2,3],[4,5]]
    assert_eq!(c.data(), &[10.0, 13.0, 28.0, 40.0]);
}

#[test]
fn trace_and_diagonal() {
    let a = iota(&[3, 3]);
    let tr = einsum("ii->", &[&a]).unwrap();
    assert_eq!(tr.data(), &[0.0 + 4.0 + 8.0]);
    let diag = einsum("ii->i", &[&a]).unwrap();
    assert_eq!(diag.data(), &[0.0, 4.0, 8.0]);
}

#[test]
fn outer_product() {
    let a = iota(&[2]);
    let b = iota(&[3]);
    let o = einsum("i,j->ij", &[&a, &b]).unwrap();
    assert_eq!(o.shape(), &[2, 3]);
    assert_eq!(o.get(&[1, 2]), 2.0);
}

#[test]
fn three_operand_contraction() {
    let a = iota(&[2, 3]);
    let b = iota(&[3, 2]);
    let c = iota(&[2, 2]);
    let direct = einsum("ij,jk,kl->il", &[&a, &b, &c]).unwrap();
    let paired = matmul(&matmul(&a, &b), &c);
    assert!(direct.allclose(&paired, 1e-4));
}

#[test]
fn sum_reduction() {
    let a = iota(&[2, 3]);
    let s = einsum("ij->i", &[&a]).unwrap();
    assert_eq!(s.data(), &[3.0, 12.0]);
    let total = einsum("ij->", &[&a]).unwrap();
    assert_eq!(total.data(), &[15.0]);
}

#[test]
fn elementwise_share_semantics() {
    // The Share primitive: out[i] = x[i] * w[i].
    let x = iota(&[4]);
    let w = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[4]);
    let out = einsum("i,i->i", &[&x, &w]).unwrap();
    assert_eq!(out.data(), &[0.0, 2.0, 4.0, 6.0]);
}

#[test]
fn broadcast_via_missing_output_index() {
    // "nchw,dc->ndhw": channel contraction keeping spatial dims — the
    // pointwise-convolution einsum from Listing 2.
    let x = iota(&[1, 2, 2, 2]);
    let w = iota(&[3, 2]);
    let y = einsum("nchw,dc->ndhw", &[&x, &w]).unwrap();
    assert_eq!(y.shape(), &[1, 3, 2, 2]);
    // y[0,d,h,w] = sum_c x[0,c,h,w]*w[d,c]
    let expect = x.get(&[0, 0, 1, 1]) * w.get(&[1, 0]) + x.get(&[0, 1, 1, 1]) * w.get(&[1, 1]);
    assert_eq!(y.get(&[0, 1, 1, 1]), expect);
}

#[test]
fn extent_mismatch_rejected() {
    let a = iota(&[2, 3]);
    let b = iota(&[4, 2]);
    assert_eq!(
        einsum("ij,jk->ik", &[&a, &b]).unwrap_err(),
        EinsumError::ExtentMismatch('j')
    );
}

#[test]
fn unbound_output_rejected() {
    let a = iota(&[2]);
    assert_eq!(
        einsum("i->ij", &[&a]).unwrap_err(),
        EinsumError::UnboundOutput('j')
    );
}

#[test]
fn compiled_is_bit_identical_to_reference() {
    let cases: &[(&str, Vec<Tensor>)] = &[
        ("mk,kn->mn", vec![iota(&[3, 4]), iota(&[4, 2])]),
        ("ii->", vec![iota(&[3, 3])]),
        ("ii->i", vec![iota(&[3, 3])]),
        ("nchw,dc->ndhw", vec![iota(&[2, 3, 4, 4]), iota(&[5, 3])]),
        ("ij,jk,kl->il", vec![iota(&[2, 3]), iota(&[3, 2]), iota(&[2, 2])]),
        ("ch,c->c", vec![iota(&[2, 3]), iota(&[2])]),
        ("ij->", vec![iota(&[2, 3])]),
    ];
    for (spec, tensors) in cases {
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let fast = einsum(spec, &refs).unwrap();
        let slow = einsum_reference(spec, &refs).unwrap();
        assert_eq!(fast.shape(), slow.shape(), "{spec}");
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{spec}");
        }
    }
}

#[test]
fn engine_caches_plans_and_reuses_buffers() {
    let mut engine = EinsumEngine::new();
    let mut pool = ScratchPool::new();
    let a = iota(&[2, 3]);
    let b = iota(&[3, 2]);
    let first = engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap();
    assert_eq!(engine.plans(), 1);
    pool.recycle(first);
    let again = engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap();
    assert_eq!(engine.plans(), 1, "same spec + shapes hit the cache");
    assert!(pool.recycled() >= 1, "output buffer came from the pool");
    assert_eq!(again, einsum_reference("mk,kn->mn", &[&a, &b]).unwrap());

    // A different shape under the same text compiles a second plan.
    let c = iota(&[4, 3]);
    let _ = engine.einsum("mk,kn->mn", &[&c, &b], &mut pool).unwrap();
    assert_eq!(engine.plans(), 2);

    // The parsed-spec path shares the table.
    let parsed = EinsumSpec::parse("mk,kn->mn").unwrap();
    let via_parsed = engine.einsum_parsed(&parsed, &[&a, &b], &mut pool).unwrap();
    assert_eq!(via_parsed, einsum("mk,kn->mn", &[&a, &b]).unwrap());
}

/// Deterministic pseudo-random data that actually exercises FP rounding
/// (iota values stay exact in f32 and would hide order changes).
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

const POLICY_SPECS: &[(&str, &[&[usize]])] = &[
    ("mk,kn->mn", &[&[5, 7], &[7, 3]]),
    ("nchw,dc->ndhw", &[&[2, 3, 4, 4], &[5, 3]]),
    ("ij,jk,kl->il", &[&[3, 5], &[5, 4], &[4, 2]]),
    ("ij->", &[&[4, 6]]),
    ("i,i->i", &[&[8], &[8]]),
    ("ch,c->c", &[&[3, 9], &[3]]),
    ("ii->i", &[&[4, 4]]),
    ("ii->", &[&[4, 4]]),
    ("i,j->ij", &[&[4], &[5]]),
    // The sequence head's VJPs: a short last output loop that trades
    // places with the long one, and a strided inner run.
    ("mn,mk->kn", &[&[4, 6], &[4, 512]]),
    ("mn,kn->mk", &[&[4, 6], &[512, 6]]),
    // Fused loops, a summed extent below the width, an extent-1 axis.
    ("abcd,ad->abcd", &[&[3, 5, 4, 6], &[3, 6]]),
    ("abcd,abcd->ad", &[&[3, 2, 1, 6], &[3, 2, 1, 6]]),
    ("abc,abc->", &[&[5, 3, 7], &[5, 3, 7]]),
];

fn run_with_policy(spec: &str, shapes: &[&[usize]], policy: ExecPolicy) -> Tensor {
    let tensors: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(k, s)| noisy(s, 1000 * k as u64))
        .collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let mut engine = EinsumEngine::with_policy(policy);
    let mut pool = ScratchPool::new();
    engine.einsum(spec, &refs, &mut pool).unwrap()
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

#[test]
fn serial_policy_is_bit_identical_to_reference() {
    for (spec, shapes) in POLICY_SPECS {
        let got = run_with_policy(spec, shapes, ExecPolicy::serial());
        let tensors: Vec<Tensor> = shapes
            .iter()
            .enumerate()
            .map(|(k, s)| noisy(s, 1000 * k as u64))
            .collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let want = einsum_reference(spec, &refs).unwrap();
        assert_bits_eq(&got, &want, spec);
    }
}

#[test]
fn tree_reduction_matches_explicit_chunk_sums() {
    // mk,kn->mn with k = 7 under width 4 chunks k into 2+2+2+1 and
    // combines ((c0+c1)+(c2+c3)); verify against a hand-built tree.
    let a = noisy(&[3, 7], 1);
    let b = noisy(&[7, 2], 2);
    let got = {
        let mut engine = EinsumEngine::with_policy(ExecPolicy::default());
        let mut pool = ScratchPool::new();
        engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap()
    };
    let chunk = |lo: usize, hi: usize| -> Tensor {
        let (a, b) = (&a, &b);
        let asub = Tensor::from_vec(
            (0..3)
                .flat_map(|m| (lo..hi).map(move |k| a.get(&[m, k])))
                .collect(),
            &[3, hi - lo],
        );
        let bsub = Tensor::from_vec(
            (lo..hi).flat_map(|k| (0..2).map(move |n| b.get(&[k, n]))).collect(),
            &[hi - lo, 2],
        );
        einsum_reference("mk,kn->mn", &[&asub, &bsub]).unwrap()
    };
    let (c0, c1, c2, c3) = (chunk(0, 2), chunk(2, 4), chunk(4, 6), chunk(6, 7));
    let want: Vec<f32> = (0..c0.numel())
        .map(|i| {
            (c0.data()[i] + c1.data()[i]) + (c2.data()[i] + c3.data()[i])
        })
        .collect();
    for (g, w) in got.data().iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "pinned tree shape");
    }
}

#[test]
fn plan_fuses_affine_loops_and_tiles_the_long_output_loop() {
    let plan = |spec: &str, shapes: &[&[usize]]| {
        EinsumPlan::compile(&EinsumSpec::parse(spec).unwrap(), shapes).unwrap()
    };
    // b, c, d are one run for both operands and the output.
    let scale = plan("abcde,ae->abcde", &[&[8, 16, 16, 8, 16], &[8, 16]]);
    assert_eq!((scale.dims.as_slice(), scale.n_out), (&[8, 2048, 16][..], 3));
    // Summed b, c, d fuse behind a: the width still chunks a's 8 steps.
    let vjp = plan("abcde,abcde->e", &[&[8, 16, 16, 8, 16], &[8, 16, 16, 8, 16]]);
    assert_eq!((vjp.dims.as_slice(), vjp.chunk), (&[16, 8 * 2048][..], (8, 2048)));
    // The head's weight gradient: 512 runs innermost, not 6.
    let head = plan("mn,mk->kn", &[&[4, 6], &[4, 512]]);
    assert_eq!((head.tile, head.block, head.out_steps), ([6, 512], [2, 512], [1, 6]));
    // A 3×3 window behind a 16-long loop: the row is the 16, strided...
    let spec = "abcdefg,dgfe->abcdefg";
    let window = plan(spec, &[&[2, 2, 2, 8, 16, 3, 3], &[8, 3, 3, 16]]);
    assert_eq!(window.dims, [8, 8, 16, 3, 3]);
    assert_eq!((window.tile, window.out_steps), ([3, 16], [1, 9]));
    assert_eq!(window.outer, [0, 1, 3]);
    // ...until the weight is small beside the loop nest: stored in loop
    // order, its four loops are one contiguous run.
    let window = plan(spec, &[&[8, 16, 16, 8, 16, 3, 3], &[8, 3, 3, 16]]);
    assert_eq!(window.dims, [2048, 1152]);
    assert_eq!(window.perms, [None, Some(vec![0, 3, 2, 1]), None]);
    // Its gradient runs the output loops in the operands' storage order
    // and stores the (small) result as the spec asks afterwards.
    let shapes: &[&[usize]] = &[&[8, 16, 16, 8, 16, 3, 3], &[8, 16, 16, 8, 16, 3, 3]];
    let grad = plan("abcdefg,abcdefg->dgfe", shapes);
    assert_eq!((grad.dims.as_slice(), grad.n_out), (&[1152, 8 * 256][..], 1));
    assert_eq!(grad.perms, [None, None, Some(vec![0, 3, 2, 1])]);
    // An extent-1 loop joins its neighbour whatever its stride.
    let unit = plan("abc,cb->abc", &[&[3, 1, 5], &[5, 1]]);
    assert_eq!((unit.dims.as_slice(), unit.n_out), (&[3, 5][..], 2));
}

#[test]
fn compiled_default_policy_differs_from_serial_on_purpose() {
    // The contract change is real: width-4 tree reduction reorders FP
    // summation for long contractions. (Equal values would mean the
    // FORMAT_VERSION bump and score re-pin were vacuous.)
    let a = noisy(&[2, 33], 0);
    let b = noisy(&[33], 1000);
    let tree = run_with_policy("ck,k->c", &[&[2, 33], &[33]], ExecPolicy::default());
    let serial = einsum_reference("ck,k->c", &[&a, &b]).unwrap();
    assert!(
        tree.data()
            .iter()
            .zip(serial.data())
            .any(|(x, y)| x.to_bits() != y.to_bits()),
        "tree reduction should reorder summation for k=33"
    );
    // ...while staying numerically indistinguishable for f32 work.
    assert!(tree.allclose(&serial, 1e-5));
}

#[test]
fn default_policy_is_the_pinned_contract() {
    let p = ExecPolicy::default();
    assert_eq!(p.reduce_width, ExecPolicy::PINNED_REDUCE_WIDTH);
    assert_eq!(ExecPolicy::serial().reduce_width, 1);
}
