//! General Einstein-summation contraction.
//!
//! The paper's PyTorch code generator lowers every `Share`/`Reduce`
//! contraction to an `einsum` expression (§8); this module provides the
//! equivalent engine for the Rust runtime. Any number of operands is
//! supported; indices absent from the output are summed.
//!
//! Execution is *stride-compiled*: [`EinsumPlan::compile`] turns a spec plus
//! operand shapes into a reusable program of per-loop-index strides, and
//! execution walks the full index space once, updating every operand offset
//! incrementally as the loop odometer ticks — no per-element stride dot
//! products, no per-call allocation when driven through an
//! [`EinsumEngine`]. The iteration order (and therefore the FP summation
//! order) is exactly that of the original per-element implementation, which
//! survives as [`einsum_reference`]: the differential-testing suite pins the
//! two paths bit-for-bit equal.
//!
//! On top of the serial plan, [`EinsumPlan::execute_with`] executes under an
//! [`ExecPolicy`]: a `reduce_width > 1` splits the outermost summed loop
//! into a pinned number of contiguous chunks whose partials are combined in
//! a deterministic pairwise-adjacent binary tree, and `exec_threads > 1`
//! runs shards on an [`ExecPool`]. The chunking and combine order depend
//! only on (shapes, `reduce_width`) — never on thread count — so values are
//! bit-identical across `exec_threads` at a fixed width, and a width of `1`
//! reproduces serial summation order exactly.

use crate::exec::{ExecPolicy, ExecPool};
use crate::pool::ScratchPool;
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from parsing or executing an einsum specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EinsumError {
    /// The spec string is malformed (missing `->`, wrong operand count, …).
    BadSpec(String),
    /// An index letter is bound to two different extents.
    ExtentMismatch(char),
    /// An output index never appears in any operand.
    UnboundOutput(char),
}

impl fmt::Display for EinsumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EinsumError::BadSpec(s) => write!(f, "malformed einsum spec: {s}"),
            EinsumError::ExtentMismatch(c) => {
                write!(f, "index '{c}' bound to conflicting extents")
            }
            EinsumError::UnboundOutput(c) => write!(f, "output index '{c}' unbound"),
        }
    }
}

impl Error for EinsumError {}

/// A parsed einsum specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EinsumSpec {
    /// Index letters per operand.
    pub inputs: Vec<Vec<char>>,
    /// Output index letters.
    pub output: Vec<char>,
}

impl EinsumSpec {
    /// Parses `"ab,bc->ac"`-style notation.
    ///
    /// # Errors
    ///
    /// Returns [`EinsumError::BadSpec`] when the arrow is missing or an
    /// operand list is empty.
    pub fn parse(spec: &str) -> Result<Self, EinsumError> {
        let (lhs, rhs) = spec
            .split_once("->")
            .ok_or_else(|| EinsumError::BadSpec(spec.to_owned()))?;
        let inputs: Vec<Vec<char>> = lhs.split(',').map(|s| s.trim().chars().collect()).collect();
        if inputs.is_empty() {
            return Err(EinsumError::BadSpec(spec.to_owned()));
        }
        let output: Vec<char> = rhs.trim().chars().collect();
        Ok(EinsumSpec { inputs, output })
    }

    /// All distinct index letters, output first then summed, in first-seen
    /// order.
    pub fn all_indices(&self) -> Vec<char> {
        let mut order: Vec<char> = Vec::new();
        for &c in &self.output {
            if !order.contains(&c) {
                order.push(c);
            }
        }
        for input in &self.inputs {
            for &c in input {
                if !order.contains(&c) {
                    order.push(c);
                }
            }
        }
        order
    }

    /// The specification string.
    pub fn render(&self) -> String {
        let lhs: Vec<String> = self
            .inputs
            .iter()
            .map(|i| i.iter().collect::<String>())
            .collect();
        format!("{}->{}", lhs.join(","), self.output.iter().collect::<String>())
    }
}

/// Binds index letters to extents across all operand shapes.
fn bind_extents(
    spec: &EinsumSpec,
    shapes: &[&[usize]],
) -> Result<BTreeMap<char, usize>, EinsumError> {
    if shapes.len() != spec.inputs.len() {
        return Err(EinsumError::BadSpec(format!(
            "{} operands for {} input specs",
            shapes.len(),
            spec.inputs.len()
        )));
    }
    let mut extents = BTreeMap::new();
    for (input, shape) in spec.inputs.iter().zip(shapes) {
        if input.len() != shape.len() {
            return Err(EinsumError::BadSpec(format!(
                "operand rank {} != spec arity {}",
                shape.len(),
                input.len()
            )));
        }
        for (&c, &extent) in input.iter().zip(shape.iter()) {
            match extents.get(&c) {
                Some(&e) if e != extent => return Err(EinsumError::ExtentMismatch(c)),
                Some(_) => {}
                None => {
                    extents.insert(c, extent);
                }
            }
        }
    }
    for &c in &spec.output {
        if !extents.contains_key(&c) {
            return Err(EinsumError::UnboundOutput(c));
        }
    }
    Ok(extents)
}

/// A stride-compiled einsum: the spec plus concrete operand shapes, lowered
/// once into per-loop-index strides and reusable across executions.
///
/// The loop order (output indices first, then summed indices, both in
/// first-seen order) matches [`einsum_reference`] exactly, so compiled and
/// reference execution accumulate in the identical FP order and produce
/// bit-identical outputs.
#[derive(Clone, Debug)]
pub struct EinsumPlan {
    /// Loop extents, one per distinct index.
    dims: Vec<usize>,
    /// Output tensor shape.
    out_shape: Vec<usize>,
    /// Operand shapes the plan was compiled for (validated at execution).
    op_shapes: Vec<Vec<usize>>,
    /// `op_strides[op][slot]`: offset delta when loop `slot` ticks.
    op_strides: Vec<Vec<usize>>,
    /// Output offset delta per loop slot.
    out_strides: Vec<usize>,
    /// Number of output loop slots; slots `n_out..` are summed. When summed
    /// slots exist, slot `n_out` is the *outermost* summed loop — the axis
    /// the deterministic tree reduction chunks.
    n_out: usize,
}

impl EinsumPlan {
    /// Compiles `spec` for the given operand shapes.
    ///
    /// # Errors
    ///
    /// Propagates binding errors; see [`EinsumError`].
    pub fn compile(spec: &EinsumSpec, shapes: &[&[usize]]) -> Result<Self, EinsumError> {
        let extents = bind_extents(spec, shapes)?;
        let order = spec.all_indices();
        let dims: Vec<usize> = order.iter().map(|c| extents[c]).collect();
        let out_shape: Vec<usize> = spec.output.iter().map(|c| extents[c]).collect();
        let out_tensor_strides = Tensor::strides_of(&out_shape);

        let mut op_strides: Vec<Vec<usize>> = Vec::with_capacity(shapes.len());
        for (input, shape) in spec.inputs.iter().zip(shapes) {
            let ts = Tensor::strides_of(shape);
            let mut per_index = vec![0usize; order.len()];
            for (pos, &c) in input.iter().enumerate() {
                let slot = order.iter().position(|&o| o == c).expect("bound index");
                per_index[slot] += ts[pos];
            }
            op_strides.push(per_index);
        }
        let mut out_strides = vec![0usize; order.len()];
        for (pos, &c) in spec.output.iter().enumerate() {
            let slot = order.iter().position(|&o| o == c).expect("output index");
            out_strides[slot] += out_tensor_strides[pos];
        }
        // `all_indices` orders output letters first, so the first n_out
        // slots are exactly the distinct output letters.
        let n_out = order
            .iter()
            .filter(|c| spec.output.contains(c))
            .count();
        Ok(EinsumPlan {
            dims,
            out_shape,
            op_shapes: shapes.iter().map(|s| s.to_vec()).collect(),
            op_strides,
            out_strides,
            n_out,
        })
    }

    /// The output shape this plan produces.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// `true` when `operands` match the shapes the plan was compiled for.
    pub fn matches(&self, operands: &[&Tensor]) -> bool {
        operands.len() == self.op_shapes.len()
            && operands
                .iter()
                .zip(&self.op_shapes)
                .all(|(t, s)| t.shape() == s.as_slice())
    }

    /// Accumulates the contraction into `out` (which must be zeroed and of
    /// the plan's output element count). `idx`/`offs` are caller-provided
    /// scratch so repeated execution allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when operand count/shapes disagree with the compiled shapes.
    pub fn execute_into(
        &self,
        operands: &[&Tensor],
        out: &mut [f32],
        idx: &mut Vec<usize>,
        offs: &mut Vec<usize>,
    ) {
        assert!(self.matches(operands), "operands do not match the plan");
        assert_eq!(out.len(), self.out_shape.iter().product::<usize>());
        let hi = self.dims.first().copied().unwrap_or(1);
        self.execute_range(operands, out, idx, offs, 0, 0, hi, 0);
    }

    /// Executes the contraction under `policy`, optionally sharding across
    /// `workers`. `scratch` supplies the partial-sum buffer of the tree
    /// reduction.
    ///
    /// The value contract: for a fixed `policy.reduce_width`, the result is
    /// **bit-identical** regardless of `policy.exec_threads`, worker count,
    /// or scheduling — sharding and tree shape depend only on the compiled
    /// shapes and the width. `reduce_width == 1` reproduces
    /// [`EinsumPlan::execute_into`]'s serial summation order exactly.
    ///
    /// # Panics
    ///
    /// Panics when operand count/shapes disagree with the compiled shapes,
    /// and re-raises any panic a shard raised.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_with(
        &self,
        operands: &[&Tensor],
        out: &mut [f32],
        idx: &mut Vec<usize>,
        offs: &mut Vec<usize>,
        policy: ExecPolicy,
        workers: Option<&ExecPool>,
        scratch: &mut ScratchPool,
    ) {
        assert!(self.matches(operands), "operands do not match the plan");
        let out_len = self.out_shape.iter().product::<usize>();
        assert_eq!(out.len(), out_len);
        let pool = workers.filter(|p| p.worker_count() > 0 && policy.exec_threads > 1);

        // Tree-reduction path: chunk the outermost summed loop. The shard
        // count depends only on (extent, reduce_width) — never on threads.
        if policy.reduce_width > 1 && self.dims.len() > self.n_out {
            let extent = self.dims[self.n_out];
            let shards = policy.reduce_width.min(extent);
            if shards > 1 {
                let (q, r) = (extent / shards, extent % shards);
                let bounds = |i: usize| {
                    let lo = i * q + i.min(r);
                    (lo, lo + q + usize::from(i < r))
                };
                let mut partials = scratch.take_zeroed(shards * out_len);
                match pool {
                    Some(pool) => {
                        let base = &SharedOut(partials.as_mut_ptr());
                        // `base` is borrowed whole (it is `Sync`) — precise
                        // capture of the raw-pointer field would not be.
                        pool.run(shards, &|i| {
                            // SAFETY: shard i derives a `&mut` over its own
                            // disjoint `out_len` chunk of the partial buffer.
                            let chunk = unsafe {
                                std::slice::from_raw_parts_mut(base.0.add(i * out_len), out_len)
                            };
                            let (lo, hi) = bounds(i);
                            let (mut sidx, mut soffs) = (Vec::new(), Vec::new());
                            self.execute_range(
                                operands, chunk, &mut sidx, &mut soffs, self.n_out, lo, hi, 0,
                            );
                        });
                    }
                    None => {
                        for i in 0..shards {
                            let (lo, hi) = bounds(i);
                            let chunk = &mut partials[i * out_len..(i + 1) * out_len];
                            self.execute_range(operands, chunk, idx, offs, self.n_out, lo, hi, 0);
                        }
                    }
                }
                combine_tree(&mut partials, out_len, shards);
                // A bit-exact move of the surviving chunk (no `+=` against
                // the zeroed output, which could flip -0.0 to +0.0).
                out.copy_from_slice(&partials[..out_len]);
                scratch.recycle_buffer(partials);
                return;
            }
        }

        // Output-sharding path: chunk the outermost *output* loop. Each
        // shard owns a disjoint contiguous output range (slots > 0
        // contribute strictly less than one slot-0 stride), so this is
        // bit-identical to serial order for any thread count.
        if self.n_out > 0 {
            if let Some(pool) = pool {
                let extent = self.dims[0];
                let shards = policy.exec_threads.min(extent);
                if shards > 1 {
                    let (q, r) = (extent / shards, extent % shards);
                    let bounds = |i: usize| {
                        let lo = i * q + i.min(r);
                        (lo, lo + q + usize::from(i < r))
                    };
                    let os0 = self.out_strides[0];
                    let base = &SharedOut(out.as_mut_ptr());
                    // `base` is borrowed whole (it is `Sync`) — precise
                    // capture of the raw-pointer field would not be.
                    pool.run(shards, &|i| {
                        let (lo, hi) = bounds(i);
                        let start = lo * os0;
                        // SAFETY: shard i writes only inside
                        // `[lo*os0, hi*os0)`, disjoint from other shards.
                        let chunk = unsafe {
                            std::slice::from_raw_parts_mut(base.0.add(start), (hi - lo) * os0)
                        };
                        let (mut sidx, mut soffs) = (Vec::new(), Vec::new());
                        self.execute_range(operands, chunk, &mut sidx, &mut soffs, 0, lo, hi, start);
                    });
                    return;
                }
            }
        }

        let hi = self.dims.first().copied().unwrap_or(1);
        self.execute_range(operands, out, idx, offs, 0, 0, hi, 0);
    }

    /// Runs the contraction restricted to `idx[slot] ∈ [lo, hi)` (all other
    /// loops full), subtracting `out_base` from every output offset so
    /// callers can hand in a sub-slice of the output buffer.
    ///
    /// The iteration order is the plan's serial odometer order restricted to
    /// the range; the innermost loop is specialized to a tight
    /// constant-stride walk for the dominant arities (order-preserving, so
    /// this stays bit-identical to the per-element reference).
    #[allow(clippy::too_many_arguments)]
    fn execute_range(
        &self,
        operands: &[&Tensor],
        out: &mut [f32],
        idx: &mut Vec<usize>,
        offs: &mut Vec<usize>,
        slot: usize,
        lo: usize,
        hi: usize,
        out_base: usize,
    ) {
        idx.clear();
        idx.resize(self.dims.len(), 0);
        offs.clear();
        offs.resize(operands.len(), 0);
        if self.dims.is_empty() {
            // Scalar contraction: one term, all offsets zero.
            let mut product = 1.0f32;
            for t in operands {
                product *= t.data()[0];
            }
            out[0] += product;
            return;
        }
        if hi <= lo {
            return;
        }
        let last = self.dims.len() - 1;
        let inner = if last == slot { hi - lo } else { self.dims[last] };
        let so = self.out_strides[last];
        match operands {
            [a] => {
                let a = a.data();
                let sa = self.op_strides[0][last];
                self.for_each_row(idx, offs, slot, lo, hi, out_base, |offs, out_off| {
                    let mut oa = offs[0];
                    if so == 0 {
                        let mut acc = out[out_off];
                        for _ in 0..inner {
                            acc += a[oa];
                            oa += sa;
                        }
                        out[out_off] = acc;
                    } else {
                        let mut oo = out_off;
                        for _ in 0..inner {
                            out[oo] += a[oa];
                            oa += sa;
                            oo += so;
                        }
                    }
                });
            }
            [a, b] => {
                let (a, b) = (a.data(), b.data());
                let (sa, sb) = (self.op_strides[0][last], self.op_strides[1][last]);
                self.for_each_row(idx, offs, slot, lo, hi, out_base, |offs, out_off| {
                    let (mut oa, mut ob) = (offs[0], offs[1]);
                    if so == 0 {
                        let mut acc = out[out_off];
                        for _ in 0..inner {
                            acc += a[oa] * b[ob];
                            oa += sa;
                            ob += sb;
                        }
                        out[out_off] = acc;
                    } else {
                        let mut oo = out_off;
                        for _ in 0..inner {
                            out[oo] += a[oa] * b[ob];
                            oa += sa;
                            ob += sb;
                            oo += so;
                        }
                    }
                });
            }
            _ => {
                let datas: Vec<&[f32]> = operands.iter().map(|t| t.data()).collect();
                self.for_each_row(idx, offs, slot, lo, hi, out_base, |offs, out_off| {
                    let mut oo = out_off;
                    for t in 0..inner {
                        let mut product = 1.0f32;
                        for (k, data) in datas.iter().enumerate() {
                            product *= data[offs[k] + t * self.op_strides[k][last]];
                        }
                        out[oo] += product;
                        oo += so;
                    }
                });
            }
        }
    }

    /// Walks the outer loops (everything but the innermost) in odometer
    /// order with `idx[slot]` restricted to `[lo, hi)`, calling `row` with
    /// the operand offsets and the (`out_base`-relative) output offset of
    /// each innermost row.
    #[allow(clippy::too_many_arguments)]
    fn for_each_row(
        &self,
        idx: &mut [usize],
        offs: &mut [usize],
        slot: usize,
        lo: usize,
        hi: usize,
        out_base: usize,
        mut row: impl FnMut(&[usize], usize),
    ) {
        let last = self.dims.len() - 1;
        // Position the odometer at the range start.
        idx[slot] = lo;
        for (off, strides) in offs.iter_mut().zip(&self.op_strides) {
            *off = lo * strides[slot];
        }
        let mut out_off = lo * self.out_strides[slot] - out_base;
        let mut rows = 1usize;
        for d in 0..last {
            rows *= if d == slot { hi - lo } else { self.dims[d] };
        }
        for r in 0..rows {
            if r > 0 {
                // Odometer tick with incremental offset updates: a tick of
                // loop `d` adds its stride; a wrap backs out the range.
                for d in (0..last).rev() {
                    idx[d] += 1;
                    let top = if d == slot { hi } else { self.dims[d] };
                    if idx[d] < top {
                        for (off, strides) in offs.iter_mut().zip(&self.op_strides) {
                            *off += strides[d];
                        }
                        out_off += self.out_strides[d];
                        break;
                    }
                    let floor = if d == slot { lo } else { 0 };
                    idx[d] = floor;
                    let back = top - 1 - floor;
                    for (off, strides) in offs.iter_mut().zip(&self.op_strides) {
                        *off -= back * strides[d];
                    }
                    out_off -= back * self.out_strides[d];
                }
            }
            row(offs, out_off);
        }
    }

    /// Executes the plan into a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics when operand shapes disagree with the compiled shapes.
    pub fn execute(&self, operands: &[&Tensor]) -> Tensor {
        let mut out = Tensor::zeros(&self.out_shape);
        let (mut idx, mut offs) = (Vec::new(), Vec::new());
        self.execute_into(operands, out.data_mut(), &mut idx, &mut offs);
        out
    }
}

/// Combines `shards` adjacent chunks of `len` in a fixed pairwise binary
/// tree, in place; chunk 0 holds the result. The tree shape depends only on
/// `shards`, which is why policy-driven execution is bit-stable across
/// thread counts.
fn combine_tree(partials: &mut [f32], len: usize, shards: usize) {
    let mut width = shards;
    while width > 1 {
        let pairs = width / 2;
        for j in 0..pairs {
            let (dst, a, b) = (j * len, 2 * j * len, (2 * j + 1) * len);
            for k in 0..len {
                partials[dst + k] = partials[a + k] + partials[b + k];
            }
        }
        if width % 2 == 1 {
            // The odd chunk passes through to the next level unchanged.
            partials.copy_within((width - 1) * len..width * len, pairs * len);
        }
        width = pairs + width % 2;
    }
}

/// Base pointer of a shard output buffer, shared across worker threads;
/// every shard derives a **disjoint** `&mut` sub-slice from it.
#[derive(Clone, Copy)]
struct SharedOut(*mut f32);

// SAFETY: shards only ever touch non-overlapping regions (enforced by the
// two call sites above), so concurrent access is race-free.
unsafe impl Send for SharedOut {}
unsafe impl Sync for SharedOut {}

/// A cache of [`EinsumPlan`]s keyed by spec and operand shapes, plus the
/// execution scratch — one per executor/tape, so the per-candidate hot loop
/// compiles each contraction once and then runs allocation-free.
///
/// Lookups compare the raw spec text (forward path) or the parsed spec
/// (autodiff VJP path) against a small linear table; models use a handful
/// of distinct contractions, so the scan is cheaper than hashing.
///
/// An engine carries an [`ExecPolicy`] (and, for multi-threaded policies,
/// an [`ExecPool`]): every contraction it runs goes through
/// [`EinsumPlan::execute_with`] under that policy. The default is the
/// pinned determinism contract (`reduce_width = 4`, single-threaded).
#[derive(Debug, Default)]
pub struct EinsumEngine {
    entries: Vec<EngineEntry>,
    idx: Vec<usize>,
    offs: Vec<usize>,
    policy: ExecPolicy,
    workers: Option<ExecPool>,
}

#[derive(Debug)]
struct EngineEntry {
    /// Raw spec text (empty for entries created from parsed specs).
    text: String,
    spec: EinsumSpec,
    plan: EinsumPlan,
}

impl EinsumEngine {
    /// An empty engine under the default (pinned-contract) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty engine under `policy`, spawning `policy.exec_threads - 1`
    /// shard workers when the policy is multi-threaded.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        EinsumEngine {
            policy,
            workers: ExecPool::for_policy(policy),
            ..Self::default()
        }
    }

    /// The policy every contraction runs under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Number of compiled plans.
    pub fn plans(&self) -> usize {
        self.entries.len()
    }

    /// Executes `spec` over `operands`, compiling and caching the plan on
    /// first use; the output buffer comes from `pool`.
    ///
    /// # Errors
    ///
    /// Propagates parse/binding errors; see [`EinsumError`].
    pub fn einsum(
        &mut self,
        spec: &str,
        operands: &[&Tensor],
        pool: &mut ScratchPool,
    ) -> Result<Tensor, EinsumError> {
        let hit = self
            .entries
            .iter()
            .position(|e| e.text == spec && e.plan.matches(operands));
        let at = match hit {
            Some(at) => at,
            None => {
                let parsed = EinsumSpec::parse(spec)?;
                self.insert(spec.to_owned(), parsed, operands)?
            }
        };
        Ok(self.run(at, operands, pool))
    }

    /// [`EinsumEngine::einsum`] for an already-parsed spec (the autodiff
    /// backward path, whose VJP specs never exist as text).
    ///
    /// # Errors
    ///
    /// Propagates binding errors; see [`EinsumError`].
    pub fn einsum_parsed(
        &mut self,
        spec: &EinsumSpec,
        operands: &[&Tensor],
        pool: &mut ScratchPool,
    ) -> Result<Tensor, EinsumError> {
        let hit = self
            .entries
            .iter()
            .position(|e| e.spec == *spec && e.plan.matches(operands));
        let at = match hit {
            Some(at) => at,
            None => self.insert(String::new(), spec.clone(), operands)?,
        };
        Ok(self.run(at, operands, pool))
    }

    fn insert(
        &mut self,
        text: String,
        spec: EinsumSpec,
        operands: &[&Tensor],
    ) -> Result<usize, EinsumError> {
        let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
        let plan = EinsumPlan::compile(&spec, &shapes)?;
        self.entries.push(EngineEntry { text, spec, plan });
        Ok(self.entries.len() - 1)
    }

    fn run(&mut self, at: usize, operands: &[&Tensor], pool: &mut ScratchPool) -> Tensor {
        let EinsumEngine {
            entries,
            idx,
            offs,
            policy,
            workers,
        } = self;
        let plan = &entries[at].plan;
        let mut out = pool.take_tensor(plan.out_shape());
        plan.execute_with(
            operands,
            out.data_mut(),
            idx,
            offs,
            *policy,
            workers.as_ref(),
            pool,
        );
        out
    }
}

/// Executes a parsed einsum over the operands via a one-shot
/// [`EinsumPlan`].
///
/// # Errors
///
/// Propagates binding errors; see [`EinsumError`].
pub fn einsum_spec(spec: &EinsumSpec, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    Ok(EinsumPlan::compile(spec, &shapes)?.execute(operands))
}

/// The deliberately naive per-element reference implementation: for every
/// point of the full index space, recompute each operand offset as a stride
/// dot product. This is the pre-compilation engine, kept verbatim as the
/// ground truth the stride-compiled path is differentially tested against.
///
/// # Errors
///
/// Propagates binding errors; see [`EinsumError`].
pub fn einsum_spec_reference(
    spec: &EinsumSpec,
    operands: &[&Tensor],
) -> Result<Tensor, EinsumError> {
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    let extents = bind_extents(spec, &shapes)?;
    let order = spec.all_indices();
    let dims: Vec<usize> = order.iter().map(|c| extents[c]).collect();
    let out_shape: Vec<usize> = spec.output.iter().map(|c| extents[c]).collect();
    let mut out = Tensor::zeros(&out_shape);
    let out_strides = Tensor::strides_of(&out_shape);

    // Per-operand: stride contribution of each loop index.
    let mut op_strides: Vec<Vec<usize>> = Vec::with_capacity(operands.len());
    for (input, t) in spec.inputs.iter().zip(operands) {
        let ts = Tensor::strides_of(t.shape());
        let mut per_index = vec![0usize; order.len()];
        for (pos, &c) in input.iter().enumerate() {
            let slot = order.iter().position(|&o| o == c).expect("bound index");
            per_index[slot] += ts[pos];
        }
        op_strides.push(per_index);
    }
    // Output stride contribution per loop index.
    let mut out_index_strides = vec![0usize; order.len()];
    for (pos, &c) in spec.output.iter().enumerate() {
        let slot = order.iter().position(|&o| o == c).expect("output index");
        out_index_strides[slot] += out_strides[pos];
    }

    let total: usize = dims.iter().product::<usize>().max(1);
    let mut idx = vec![0usize; order.len()];
    for _ in 0..total {
        let mut product = 1.0f32;
        for (t, strides) in operands.iter().zip(&op_strides) {
            let mut off = 0;
            for (slot, &i) in idx.iter().enumerate() {
                off += i * strides[slot];
            }
            product *= t.data()[off];
        }
        let mut out_off = 0;
        for (slot, &i) in idx.iter().enumerate() {
            out_off += i * out_index_strides[slot];
        }
        out.data_mut()[out_off] += product;

        // Odometer increment.
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Ok(out)
}

/// Parses and executes `spec` over `operands` with [`einsum_spec_reference`].
///
/// # Errors
///
/// Returns an [`EinsumError`] on malformed specs or shape conflicts.
pub fn einsum_reference(spec: &str, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    einsum_spec_reference(&EinsumSpec::parse(spec)?, operands)
}

/// Parses and executes `spec` over `operands`.
///
/// # Errors
///
/// Returns an [`EinsumError`] on malformed specs or shape conflicts.
///
/// # Examples
///
/// ```
/// use syno_tensor::{einsum, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// let c = einsum("ij,jk->ik", &[&a, &b])?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn einsum(spec: &str, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    einsum_spec(&EinsumSpec::parse(spec)?, operands)
}

/// Matrix multiplication `[m,k]·[k,n] → [m,n]` via einsum.
///
/// # Panics
///
/// Panics on rank/shape mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    einsum("mk,kn->mn", &[a, b]).expect("matmul shapes validated by einsum")
}

#[cfg(test)]
mod tests {
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
    fn tree_reduction_is_invariant_to_thread_count() {
        for (spec, shapes) in POLICY_SPECS {
            let pinned = run_with_policy(spec, shapes, ExecPolicy::default());
            for threads in [2, 3, 4, 8] {
                let parallel = run_with_policy(spec, shapes, ExecPolicy::with_threads(threads));
                assert_bits_eq(&parallel, &pinned, &format!("{spec} @ {threads} threads"));
            }
        }
    }

    #[test]
    fn output_sharding_never_changes_serial_values() {
        // reduce_width 1 + many threads: sharding happens on the output
        // loop, which must stay bit-identical to plain serial execution.
        for (spec, shapes) in POLICY_SPECS {
            let serial = run_with_policy(spec, shapes, ExecPolicy::serial());
            for threads in [2, 4] {
                let policy = ExecPolicy {
                    exec_threads: threads,
                    reduce_width: 1,
                };
                let sharded = run_with_policy(spec, shapes, policy);
                assert_bits_eq(&sharded, &serial, &format!("{spec} @ {threads} threads"));
            }
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
}
