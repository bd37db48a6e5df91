//! Tape-based reverse-mode automatic differentiation.
//!
//! The accuracy side of the reproduction trains real models containing
//! synthesized operators (§8's PyTorch backend); this module supplies the
//! backward passes. A [`Tape`] records every operation eagerly; calling
//! [`Tape::backward`] replays it in reverse, producing gradients for every
//! recorded node a differentiable leaf reaches.
//!
//! Every structural op of [`crate::ops`] has its adjoint here (`unfold` ↔
//! `fold_acc`, `strided` ↔ `strided_scatter`, `repeat` ↔ `sum_axis`, …), and
//! einsum differentiates by the standard swap rule: the gradient w.r.t. one
//! operand is an einsum of the output gradient with the remaining operands.
//!
//! # The execution engine
//!
//! A tape owns a [`ScratchPool`] and an [`EinsumEngine`]: every op writes
//! into recycled buffers and every contraction runs through a stride-compiled
//! plan cached across calls. [`Tape::reset`] reclaims all node buffers while
//! keeping the plan cache, so a training loop that resets its tape each step
//! stops allocating tensor buffers once the pool holds one step's working set.
//!
//! Contractions run on the calling thread under the tape's [`ExecPolicy`]
//! ([`Tape::with_policy`]; by default the pinned `reduce_width = 4` tree).
//! [`Tape::new_reference`] builds a *reference mode* tape — naive
//! per-element einsum, serial summation, no buffer reuse — the differential
//! suites' baseline, bit-identical to `Tape::with_policy(ExecPolicy::serial())`.
//!
//! # Constants
//!
//! [`Tape::constant`] records an input nobody differentiates with respect to
//! (a training batch). Each node carries whether a differentiable
//! [`Tape::leaf`] reaches it; [`Tape::backward`] visits only those and an
//! einsum skips the VJP of an operand that is not one, so the part of the
//! forward that only data flows through has no backward. Gradients that are
//! computed accumulate the same terms in the same order either way.

use crate::einsum::{einsum_spec_reference, EinsumEngine, EinsumSpec, ExecPolicy};
use crate::ops;
use crate::pool::ScratchPool;
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Var(usize);

impl Var {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Clone, Debug)]
#[allow(dead_code)] // some payloads exist only for the tape's Debug output
enum Op {
    Leaf,
    Constant,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Einsum { spec: EinsumSpec, inputs: Vec<Var> },
    Reshape(Var),
    Permute(Var, Vec<usize>),
    Unfold { input: Var, axis: usize, k: usize },
    Roll { input: Var, axis: usize, amount: i64 },
    Strided { input: Var, axis: usize, s: usize },
    Repeat { input: Var, axis: usize, times: usize },
    SumAxis { input: Var, axis: usize },
    Relu(Var),
    SoftmaxLast(Var),
    MeanAll(Var),
    SoftmaxCrossEntropy { logits: Var, labels: Vec<usize> },
    Gather { table: Var, ids: Vec<usize> },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    /// Some differentiable [`Tape::leaf`] reaches this node; `backward`
    /// visits no other.
    needs_grad: bool,
}

/// Gradients returned by [`Tape::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss w.r.t. `var`, if it participated.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// An eager autodiff tape.
///
/// # Examples
///
/// ```
/// use syno_tensor::{Tape, Tensor};
///
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0], &[2]));
/// let y = tape.relu(x);
/// let loss = tape.mean_all(y);
/// let grads = tape.backward(loss);
/// // d(mean(relu(x)))/dx = [0.5, 0.0]
/// assert_eq!(grads.get(x).unwrap().data(), &[0.5, 0.0]);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: ScratchPool,
    engine: EinsumEngine,
    reference: bool,
}

impl Tape {
    /// An empty tape using the stride-compiled engine with buffer reuse,
    /// under the default pinned-contract [`ExecPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stride-compiled tape executing contractions under `policy`.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        Tape {
            engine: EinsumEngine::with_policy(policy),
            ..Self::default()
        }
    }

    /// An empty tape in *reference mode*: naive per-element einsum and no
    /// buffer recycling — the pre-compilation engine, kept as the
    /// differential-testing baseline. Produces bit-identical values to
    /// `Tape::with_policy(ExecPolicy::serial())`.
    pub fn new_reference() -> Self {
        Tape {
            pool: ScratchPool::disabled(),
            engine: EinsumEngine::with_policy(ExecPolicy::serial()),
            reference: true,
            ..Self::default()
        }
    }

    /// Bytes currently parked in the tape's scratch pool (the
    /// `syno_tensor_scratch_bytes` gauge reads this).
    pub fn scratch_bytes(&self) -> usize {
        self.pool.pooled_bytes()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears all recorded nodes, reclaiming their buffers into the scratch
    /// pool and keeping the compiled einsum plans. A training loop calls
    /// this between steps so step *n+1* reuses step *n*'s allocations.
    pub fn reset(&mut self) {
        let Tape { nodes, pool, .. } = self;
        for node in nodes.drain(..) {
            pool.recycle(node.value);
        }
    }

    /// Returns gradient buffers to the scratch pool once the caller has
    /// consumed them (e.g. after the optimizer step).
    pub fn recycle_gradients(&mut self, grads: Gradients) {
        for g in grads.grads.into_iter().flatten() {
            self.pool.recycle(g);
        }
    }

    /// Records `value` as the result of `op` over `inputs`.
    fn push(&mut self, value: Tensor, op: Op, inputs: &[Var]) -> Var {
        let needs_grad =
            matches!(op, Op::Leaf) || inputs.iter().any(|v| self.nodes[v.0].needs_grad);
        let id = Var(self.nodes.len());
        self.nodes.push(Node { value, op, needs_grad });
        id
    }

    /// Records an input (leaf) tensor the loss is differentiated with
    /// respect to.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, &[])
    }

    /// Records an input nobody differentiates with respect to (data, masks):
    /// [`Tape::backward`] computes no gradient for it, nor for any node that
    /// only constants reach. Every other gradient keeps its bits.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant, &[])
    }

    /// The forward value of a node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = ops::zip_map_in(
            &mut self.pool,
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            |x, y| x + y,
        );
        self.push(v, Op::Add(a, b), &[a, b])
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = ops::zip_map_in(
            &mut self.pool,
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            |x, y| x - y,
        );
        self.push(v, Op::Sub(a, b), &[a, b])
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = ops::zip_map_in(
            &mut self.pool,
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            |x, y| x * y,
        );
        self.push(v, Op::Mul(a, b), &[a, b])
    }

    /// Scalar multiplication.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = ops::map_in(&mut self.pool, &self.nodes[a.0].value, |x| x * c);
        self.push(v, Op::Scale(a, c), &[a])
    }

    /// Scalar addition.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = ops::map_in(&mut self.pool, &self.nodes[a.0].value, |x| x + c);
        self.push(v, Op::AddScalar(a, c), &[a])
    }

    /// Einstein summation over recorded operands.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails to parse or execute (shape conflicts), or
    /// when an operand's index list contains duplicates (e.g. `"ii->i"`: its
    /// VJP is unsupported, and the eager lowering refuses such a weight with
    /// a typed error before it gets here).
    pub fn einsum(&mut self, spec: &str, inputs: &[Var]) -> Var {
        let parsed = EinsumSpec::parse(spec).expect("valid einsum spec");
        let distinct = |l: &Vec<char>| (1..l.len()).all(|i| !l[..i].contains(&l[i]));
        assert!(
            parsed.inputs.iter().all(distinct),
            "einsum VJP requires duplicate-free operand indices"
        );
        let Tape {
            nodes,
            pool,
            engine,
            reference,
        } = self;
        let tensors: Vec<&Tensor> = inputs.iter().map(|&v| &nodes[v.0].value).collect();
        let value = if *reference {
            einsum_spec_reference(&parsed, &tensors).expect("einsum executes")
        } else {
            engine
                .einsum_parsed(&parsed, &tensors, pool)
                .expect("einsum executes")
        };
        self.push(
            value,
            Op::Einsum {
                spec: parsed,
                inputs: inputs.to_vec(),
            },
            inputs,
        )
    }

    /// 2-D matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.einsum("mk,kn->mn", &[a, b])
    }

    /// Shape reinterpretation.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = ops::reshape_in(&mut self.pool, &self.nodes[a.0].value, shape);
        self.push(v, Op::Reshape(a), &[a])
    }

    /// Axis permutation.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let v = ops::permute_in(&mut self.pool, &self.nodes[a.0].value, perm);
        self.push(v, Op::Permute(a, perm.to_vec()), &[a])
    }

    /// Sliding-window extraction with zero padding (`Unfold`).
    pub fn unfold(&mut self, a: Var, axis: usize, k: usize) -> Var {
        let v = ops::unfold_in(&mut self.pool, &self.nodes[a.0].value, axis, k);
        self.push(v, Op::Unfold { input: a, axis, k }, &[a])
    }

    /// Axis rotation (`Shift`).
    pub fn roll(&mut self, a: Var, axis: usize, amount: i64) -> Var {
        let v = ops::roll_in(&mut self.pool, &self.nodes[a.0].value, axis, amount);
        self.push(v, Op::Roll { input: a, axis, amount }, &[a])
    }

    /// Strided selection (`Stride`).
    pub fn strided(&mut self, a: Var, axis: usize, s: usize) -> Var {
        let v = ops::strided_in(&mut self.pool, &self.nodes[a.0].value, axis, s);
        self.push(v, Op::Strided { input: a, axis, s }, &[a])
    }

    /// Axis insertion with repetition (`Expand`).
    pub fn repeat(&mut self, a: Var, axis: usize, times: usize) -> Var {
        let v = ops::repeat_in(&mut self.pool, &self.nodes[a.0].value, axis, times);
        self.push(v, Op::Repeat { input: a, axis, times }, &[a])
    }

    /// Axis summation (`Reduce`).
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let v = ops::sum_axis_in(&mut self.pool, &self.nodes[a.0].value, axis);
        self.push(v, Op::SumAxis { input: a, axis }, &[a])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = ops::map_in(&mut self.pool, &self.nodes[a.0].value, |x| x.max(0.0));
        self.push(v, Op::Relu(a), &[a])
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let v = ops::softmax_last_in(&mut self.pool, &self.nodes[a.0].value);
        self.push(v, Op::SoftmaxLast(a), &[a])
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean_all());
        self.push(v, Op::MeanAll(a), &[a])
    }

    /// Mean softmax cross-entropy of `[batch, classes]` logits against
    /// integer labels (scalar output).
    ///
    /// # Panics
    ///
    /// Panics when `logits` is not rank-2 or labels mismatch the batch.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let Tape { nodes, pool, .. } = self;
        let l = &nodes[logits.0].value;
        assert_eq!(l.rank(), 2, "logits must be [batch, classes]");
        let (b, c) = (l.shape()[0], l.shape()[1]);
        assert_eq!(labels.len(), b, "one label per row");
        let probs = ops::softmax_last_in(pool, l);
        let mut loss = 0.0;
        for (row, &label) in labels.iter().enumerate() {
            assert!(label < c, "label out of range");
            loss -= probs.get(&[row, label]).max(1e-12).ln();
        }
        pool.recycle(probs);
        let v = Tensor::scalar(loss / b as f32);
        self.push(
            v,
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
            },
            &[logits],
        )
    }

    /// Row gather from a `[vocab, dim]` table (embedding lookup).
    ///
    /// # Panics
    ///
    /// Panics when `table` is not rank-2 or an id is out of range.
    pub fn gather(&mut self, table: Var, ids: &[usize]) -> Var {
        let Tape { nodes, pool, .. } = self;
        let t = &nodes[table.0].value;
        assert_eq!(t.rank(), 2, "gather table must be [vocab, dim]");
        let dim = t.shape()[1];
        let mut out = pool.take_tensor(&[ids.len(), dim]);
        for (dst, &id) in out.data_mut().chunks_exact_mut(dim.max(1)).zip(ids) {
            assert!(id < t.shape()[0], "gather id out of range");
            dst.copy_from_slice(&t.data()[id * dim..(id + 1) * dim]);
        }
        self.push(
            out,
            Op::Gather {
                table,
                ids: ids.to_vec(),
            },
            &[table],
        )
    }

    /// Runs reverse-mode differentiation from `loss` (any shape; seeded with
    /// ones).
    pub fn backward(&mut self, loss: Var) -> Gradients {
        let Tape {
            nodes,
            pool,
            engine,
            reference,
        } = self;
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(Tensor::ones(nodes[loss.0].value.shape()));
        let needs = |v: Var| nodes[v.0].needs_grad;
        for id in (0..=loss.0).rev() {
            // A node only constants reach has nothing to pass on: its inputs
            // are constants too. (A unary op needs a gradient exactly when
            // its input does, so only the n-ary arms below ask per input.)
            if grads[id].is_none() || !nodes[id].needs_grad {
                continue;
            }
            // Detach this node's gradient so downstream accumulation can
            // borrow the rest of `grads`; reattached below.
            let grad = grads[id].take().expect("checked above");
            match &nodes[id].op {
                Op::Leaf | Op::Constant => {}
                Op::Add(a, b) => {
                    for v in [*a, *b] {
                        if needs(v) {
                            let g = pool.take_clone(&grad);
                            add_grad(pool, &mut grads, v, g);
                        }
                    }
                }
                Op::Sub(a, b) => {
                    if needs(*a) {
                        let ga = pool.take_clone(&grad);
                        add_grad(pool, &mut grads, *a, ga);
                    }
                    if needs(*b) {
                        let neg = ops::map_in(pool, &grad, |x| -x);
                        add_grad(pool, &mut grads, *b, neg);
                    }
                }
                Op::Mul(a, b) => {
                    for (v, other) in [(*a, *b), (*b, *a)] {
                        if needs(v) {
                            let g = ops::zip_map_in(pool, &grad, &nodes[other.0].value, |g, v| g * v);
                            add_grad(pool, &mut grads, v, g);
                        }
                    }
                }
                Op::Scale(a, c) => {
                    let c = *c;
                    let g = ops::map_in(pool, &grad, |x| x * c);
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::AddScalar(a, _) => {
                    let g = pool.take_clone(&grad);
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::Einsum { spec, inputs } => {
                    for (wrt, &input) in inputs.iter().enumerate() {
                        if !needs(input) {
                            continue;
                        }
                        let tensors: Vec<&Tensor> =
                            inputs.iter().map(|&v| &nodes[v.0].value).collect();
                        let g = einsum_vjp(engine, pool, *reference, spec, &tensors, &grad, wrt);
                        add_grad(pool, &mut grads, input, g);
                    }
                }
                Op::Reshape(a) => {
                    let g = ops::reshape_in(pool, &grad, nodes[a.0].value.shape());
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::Permute(a, perm) => {
                    let g = ops::permute_in(pool, &grad, &ops::inverse_permutation(perm));
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::Unfold { input, axis, k } => {
                    let g = ops::fold_acc_in(pool, &grad, *axis, *k, nodes[input.0].value.shape());
                    add_grad(pool, &mut grads, *input, g);
                }
                Op::Roll { input, axis, amount } => {
                    let g = ops::roll_in(pool, &grad, *axis, -amount);
                    add_grad(pool, &mut grads, *input, g);
                }
                Op::Strided { input, axis, s } => {
                    let g = ops::strided_scatter_in(
                        pool,
                        &grad,
                        *axis,
                        *s,
                        nodes[input.0].value.shape(),
                    );
                    add_grad(pool, &mut grads, *input, g);
                }
                Op::Repeat { input, axis, .. } => {
                    let g = ops::sum_axis_in(pool, &grad, *axis);
                    add_grad(pool, &mut grads, *input, g);
                }
                Op::SumAxis { input, axis } => {
                    let times = nodes[input.0].value.shape()[*axis];
                    let g = ops::repeat_in(pool, &grad, *axis, times);
                    add_grad(pool, &mut grads, *input, g);
                }
                Op::Relu(a) => {
                    let g = ops::zip_map_in(pool, &grad, &nodes[a.0].value, |g, x| {
                        g * if x > 0.0 { 1.0 } else { 0.0 }
                    });
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::SoftmaxLast(a) => {
                    // dL/dx = (g - sum(g*y) along last) * y
                    let y = &nodes[id].value;
                    let gy = ops::zip_map_in(pool, &grad, y, |g, y| g * y);
                    let last_axis = y.rank() - 1;
                    let s = ops::sum_axis_in(pool, &gy, last_axis);
                    let s_b = ops::repeat_in(pool, &s, last_axis, y.shape()[last_axis]);
                    let sy = ops::zip_map_in(pool, &s_b, y, |s, y| s * y);
                    let g = ops::zip_map_in(pool, &gy, &sy, |a, b| a - b);
                    pool.recycle(gy);
                    pool.recycle(s);
                    pool.recycle(s_b);
                    pool.recycle(sy);
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::MeanAll(a) => {
                    let n = nodes[a.0].value.numel().max(1) as f32;
                    let seed = grad.sum_all() / n;
                    let mut g = pool.take_tensor(nodes[a.0].value.shape());
                    g.data_mut().fill(seed);
                    add_grad(pool, &mut grads, *a, g);
                }
                Op::SoftmaxCrossEntropy { logits, labels } => {
                    let l = &nodes[logits.0].value;
                    let b = l.shape()[0] as f32;
                    let mut g = ops::softmax_last_in(pool, l);
                    for (row, &label) in labels.iter().enumerate() {
                        let v = g.get(&[row, label]);
                        g.set(&[row, label], v - 1.0);
                    }
                    let seed = grad.sum_all();
                    let c = seed / b;
                    let scaled = ops::map_in(pool, &g, |x| x * c);
                    pool.recycle(g);
                    add_grad(pool, &mut grads, *logits, scaled);
                }
                Op::Gather { table, ids } => {
                    let t = &nodes[table.0].value;
                    let dim = t.shape()[1];
                    let mut g = pool.take_tensor(t.shape());
                    // Rows in lookup order: a repeated id sums its rows as
                    // they were gathered.
                    for (src, &id) in grad.data().chunks_exact(dim.max(1)).zip(ids) {
                        let dst = &mut g.data_mut()[id * dim..(id + 1) * dim];
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    }
                    add_grad(pool, &mut grads, *table, g);
                }
            }
            grads[id] = Some(grad);
        }
        Gradients { grads }
    }
}

/// Accumulates `g` into `grads[var]`, recycling `g`'s buffer when the slot
/// already holds a gradient.
fn add_grad(pool: &mut ScratchPool, grads: &mut [Option<Tensor>], var: Var, g: Tensor) {
    match &mut grads[var.0] {
        Some(existing) => {
            existing.accumulate(&g);
            pool.recycle(g);
        }
        slot @ None => *slot = Some(g),
    }
}

/// VJP of einsum w.r.t. operand `wrt`: contract the output gradient with the
/// remaining operands, then broadcast along indices private to `wrt`.
fn einsum_vjp(
    engine: &mut EinsumEngine,
    pool: &mut ScratchPool,
    reference: bool,
    spec: &EinsumSpec,
    operands: &[&Tensor],
    grad: &Tensor,
    wrt: usize,
) -> Tensor {
    let wrt_spec = &spec.inputs[wrt];
    let mut in_specs = vec![spec.output.clone()];
    let mut tensors: Vec<&Tensor> = vec![grad];
    for (i, s) in spec.inputs.iter().enumerate() {
        if i != wrt {
            in_specs.push(s.clone());
            tensors.push(operands[i]);
        }
    }
    let available: Vec<char> = in_specs.iter().flatten().copied().collect();
    let reduced: Vec<char> = wrt_spec
        .iter()
        .copied()
        .filter(|c| available.contains(c))
        .collect();
    let vjp_spec = EinsumSpec {
        inputs: in_specs,
        output: reduced.clone(),
    };
    let mut g = if reference {
        einsum_spec_reference(&vjp_spec, &tensors).expect("vjp einsum executes")
    } else {
        engine
            .einsum_parsed(&vjp_spec, &tensors, pool)
            .expect("vjp einsum executes")
    };
    // Broadcast along wrt-private indices (they were summed in the forward).
    for (pos, c) in wrt_spec.iter().enumerate() {
        if !reduced.contains(c) {
            let extent = operands[wrt].shape()[pos];
            let expanded = ops::repeat_in(pool, &g, pos, extent);
            pool.recycle(g);
            g = expanded;
        }
    }
    g
}

#[cfg(test)]
mod tests;
