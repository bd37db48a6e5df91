//! The eager code generator (the paper's PyTorch backend, §8).
//!
//! [`Program::new`] lowers a complete pGraph once, walking it in reverse
//! application order — i.e. in dataflow order from the input tensor toward
//! the output — and lowering each view primitive to its `syno-tensor`
//! counterpart and each weight to a single einsum, exactly as the paper
//! lowers views to PyTorch view ops and contractions to `einsum`.
//!
//! The walk maintains the invariant that after processing node *t* (in
//! reverse), the live tensor's axes correspond one-to-one to the pGraph
//! frontier after node *t−1*. Each weight tensor is multiplied in at the
//! latest point where **all** of its dimension expressions are live as axes
//! (read off each node's `consumed`/`produced` coordinates — no graph is
//! replayed); `MatchWeight` dims become broadcast axes first, so the weight
//! product is always a pure elementwise einsum over shared axes.
//!
//! The walk runs on shapes alone: where a tensor op would `assert!`, the
//! builder returns a typed [`EagerError`], and it logs every kernel with its
//! sizes, so a candidate is admitted — and its eager chain priced — before
//! any tensor exists. What it leaves is a list of resolved [`Step`]s that
//! [`Program::execute`] replays on plain tensors (inference) and
//! [`Program::record`] on the autodiff tape (training); a replay evaluates
//! no size and formats no spec.

use syno_core::expr::ExprId;
use syno_core::graph::{CoordId, PGraph};
use syno_core::primitive::Action;
use syno_tensor::{ops, EinsumEngine, EinsumSpec, ScratchPool, Tape, Tensor, Var};

use std::error::Error;
use std::fmt;

/// Errors from eager lowering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EagerError {
    /// The graph's frontier does not match its input specification.
    Incomplete,
    /// A symbolic size failed to evaluate under the chosen valuation.
    BadValuation,
    /// No program point exists where all dimensions of a weight tensor are
    /// simultaneously live; the operator is loop-nest-expressible but not
    /// eager-expressible (rare; such candidates are skipped by the search).
    WeightNotRealizable(usize),
    /// Provided tensors disagree with the declared shapes.
    ShapeMismatch(&'static str),
    /// Two dims of a weight bind to one live axis (a diagonal read), and the
    /// program is recorded on a tape: the tape's VJP needs duplicate-free
    /// operand indices. Plain execution supports it.
    DiagonalWeight(usize),
    /// A weight product spans this many live axes, more than the 52 letters
    /// its einsum spec can name.
    TooManyAxes(usize),
}

impl fmt::Display for EagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EagerError::Incomplete => write!(f, "graph is not complete"),
            EagerError::BadValuation => write!(f, "sizes do not evaluate under the valuation"),
            EagerError::WeightNotRealizable(w) => {
                write!(f, "weight {w} has no point where all dims are live")
            }
            EagerError::ShapeMismatch(what) => write!(f, "shape mismatch for {what}"),
            EagerError::DiagonalWeight(w) => {
                write!(f, "weight {w} binds two dims to one axis, which has no gradient")
            }
            EagerError::TooManyAxes(n) => {
                write!(f, "a weight product over {n} axes has no einsum spec (52 letters)")
            }
        }
    }
}

impl Error for EagerError {}

impl From<EagerError> for syno_core::error::SynoError {
    fn from(e: EagerError) -> Self {
        syno_core::error::SynoError::eager(e)
    }
}

/// One kernel of an eager program as its builder logged it. Views — a
/// contiguous reshape, a stride permutation, a strided narrowing, a stride-0
/// broadcast (`expand`) — launch none in an eager framework and are not
/// logged: the consuming kernel never materializes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShapeOp {
    /// Elements of every operand.
    pub read: usize,
    /// Elements of the result.
    pub written: usize,
    /// Arithmetic: the iteration space times the operand count for an
    /// einsum, the elements summed for a `sum_axis`, 0 for data movement.
    pub flops: usize,
}

/// One resolved step of a [`Program`]: it reads the live tensor and replaces
/// it. Every size is evaluated and every axis placed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Reinterpret as this shape.
    Reshape(Vec<usize>),
    /// Output axis `i` reads input axis `perm[i]`; never the identity.
    Permute(Vec<usize>),
    /// `(axis, k)`: the zero-padded windows of `k` along `axis`, appended as
    /// a trailing axis.
    Unfold(usize, usize),
    /// Rotate this axis by one.
    Roll(usize),
    /// `(axis, s)`: every `s`-th element along `axis`.
    Strided(usize, usize),
    /// `(axis, times)`: a new axis of `times` copies at `axis`.
    Repeat(usize, usize),
    /// Sum this axis out.
    SumAxis(usize),
    /// `(spec, weight)`: multiply weight slot `weight` in by the einsum
    /// `spec`, whose operands are the live tensor and the weight.
    Einsum(String, usize),
}

impl Step {
    /// Records this step on `tape`, reading the live tensor `x` and, for a
    /// weight product, `weights`.
    ///
    /// # Panics
    ///
    /// Panics when the operands are not shaped as the step's [`Program`]
    /// expects; [`Program::record`] checks them first.
    pub fn record(&self, tape: &mut Tape, x: Var, weights: &[Var]) -> Var {
        match self {
            Step::Reshape(shape) => tape.reshape(x, shape),
            Step::Permute(perm) => tape.permute(x, perm),
            Step::Unfold(axis, k) => tape.unfold(x, *axis, *k),
            Step::Roll(axis) => tape.roll(x, *axis, 1),
            Step::Strided(axis, s) => tape.strided(x, *axis, *s),
            Step::Repeat(axis, times) => tape.repeat(x, *axis, *times),
            Step::SumAxis(axis) => tape.sum_axis(x, *axis),
            Step::Einsum(spec, w) => tape.einsum(spec, &[x, weights[*w]]),
        }
    }

    /// [`Step::record`] on plain tensors.
    fn execute(&self, pool: &mut ScratchPool, engine: &mut EinsumEngine, x: &Tensor, weights: &[Tensor]) -> Tensor {
        match self {
            Step::Reshape(shape) => ops::reshape_in(pool, x, shape),
            Step::Permute(perm) => ops::permute_in(pool, x, perm),
            Step::Unfold(axis, k) => ops::unfold_in(pool, x, *axis, *k),
            Step::Roll(axis) => ops::roll_in(pool, x, *axis, 1),
            Step::Strided(axis, s) => ops::strided_in(pool, x, *axis, *s),
            Step::Repeat(axis, times) => ops::repeat_in(pool, x, *axis, *times),
            Step::SumAxis(axis) => ops::sum_axis_in(pool, x, *axis),
            Step::Einsum(spec, w) => engine
                .einsum(spec, &[x, &weights[*w]], pool)
                .expect("operands are shaped as the program expects"),
        }
    }
}

/// A pGraph lowered once under one valuation: its resolved steps, the
/// operand shapes they expect and the kernels they launch. A program holds
/// no per-run state, so one program replays on any number of tapes.
#[derive(Debug)]
pub struct Program {
    steps: Vec<Step>,
    input_shape: Vec<usize>,
    weight_shapes: Vec<Vec<usize>>,
    kernels: Vec<ShapeOp>,
    /// The first weight, in walk order, whose product reads a diagonal.
    diagonal: Option<usize>,
}

impl Program {
    /// Lowers `graph` under `valuation` on shapes alone.
    ///
    /// # Errors
    ///
    /// See [`EagerError`]: every error a replay on well-shaped operands could
    /// meet is met here, except [`EagerError::DiagonalWeight`], which only a
    /// tape refuses (see [`Program::recordable`]).
    pub fn new(graph: &PGraph, valuation: usize) -> Result<Program, EagerError> {
        let input_shape = input_shape(graph, valuation)?;
        let weight_shapes = weight_shapes(graph, valuation)?;
        let perm = graph.match_input().ok_or(EagerError::Incomplete)?;
        let points = multiply_points(graph)?;
        let eval = |c: CoordId| -> Result<usize, EagerError> {
            let domain = graph.arena().domain(graph.coord_expr(c));
            let size = domain.eval(graph.vars(), valuation);
            size.map(|v| v as usize).ok_or(EagerError::BadValuation)
        };
        let mut b = Builder {
            shape: input_shape.clone(),
            program: Program {
                steps: Vec::new(),
                input_shape,
                weight_shapes,
                kernels: Vec::new(),
                diagonal: None,
            },
        };

        // Axes state: axes[i] = frontier coordinate carried by tensor axis i.
        // Start: permute the input so axis i corresponds to frontier coord i.
        // perm[slot] = input dim for frontier slot => permutation for
        // `ops::permute` is exactly `perm` (output axis slot reads input axis
        // perm[slot]).
        b.permute(perm)?;
        let mut axes: Vec<CoordId> = graph.frontier().to_vec();

        // Multiply weights scheduled at T = n (before visiting any node).
        let n = graph.len();
        b.multiply_due(graph, &points, n, &axes)?;

        for t in (0..n).rev() {
            let node = &graph.nodes()[t];
            match &node.action {
                Action::Split { lhs, rhs } => {
                    // Reverse: axis(product) -> axes (lhs, rhs) via reshape.
                    let pos = axis_of(&axes, node.produced()[0])?;
                    let mut shape = b.shape.clone();
                    shape.splice(pos..=pos, [eval(*lhs)?, eval(*rhs)?]);
                    b.push(Step::Reshape(shape))?;
                    axes.splice(pos..=pos, [*lhs, *rhs]);
                }
                Action::Merge { coord, .. } => {
                    // Reverse: axes (q, r) -> axis(coord) via permute+reshape.
                    let (q, r) = (node.produced()[0], node.produced()[1]);
                    let qpos = axis_of(&axes, q)?;
                    let rpos = axis_of(&axes, r)?;
                    // Bring r right after q.
                    if rpos != qpos + 1 {
                        let mut order: Vec<usize> = (0..axes.len()).collect();
                        order.remove(rpos);
                        let qpos_now = order.iter().position(|&i| i == qpos).expect("q present");
                        order.insert(qpos_now + 1, rpos);
                        axes = order.iter().map(|&i| axes[i]).collect();
                        b.permute(order)?;
                    }
                    let qpos = axis_of(&axes, q)?;
                    let mut shape = b.shape.clone();
                    let merged = shape[qpos] * shape[qpos + 1];
                    shape.splice(qpos..=qpos + 1, [merged]);
                    b.push(Step::Reshape(shape))?;
                    axes.splice(qpos..=qpos + 1, [*coord]);
                }
                Action::Shift { coord } => {
                    let pos = axis_of(&axes, node.produced()[0])?;
                    b.push(Step::Roll(pos))?;
                    axes[pos] = *coord;
                }
                Action::Stride { coord, .. } => {
                    let pos = axis_of(&axes, node.produced()[0])?;
                    let s = b.shape[pos].checked_div(eval(*coord)?);
                    let s = s.ok_or(EagerError::ShapeMismatch("stride divisibility"))?;
                    b.push(Step::Strided(pos, s))?;
                    axes[pos] = *coord;
                }
                Action::Unfold { base, window } => {
                    let pos = axis_of(&axes, node.produced()[0])?;
                    b.push(Step::Unfold(pos, eval(*window)?))?;
                    axes[pos] = *base;
                    axes.push(*window);
                }
                // Reverse of a `MatchWeight`: create a broadcast axis; the
                // weight einsum (at an earlier reverse step, i.e. already
                // emitted) selected it. Here the axis must be *introduced*
                // since below this node the coordinate exists on the
                // frontier.
                Action::Expand { coord } | Action::MatchWeight { coord, .. } => {
                    let times = eval(*coord)?;
                    b.push(Step::Repeat(axes.len(), times))?;
                    axes.push(*coord);
                }
                Action::Reduce { .. } => {
                    let pos = axis_of(&axes, node.produced()[0])?;
                    b.push(Step::SumAxis(pos))?;
                    axes.remove(pos);
                }
                Action::Share { coord, .. } => {
                    let pos = axis_of(&axes, node.produced()[0])?;
                    axes[pos] = *coord;
                }
            }
            b.multiply_due(graph, &points, t, &axes)?;
        }

        // Axes now carry the output coordinates; order them per output spec.
        let out_coords: Vec<CoordId> = graph.output_coords();
        if axes.len() != out_coords.len() {
            return Err(EagerError::Incomplete);
        }
        let perm_out = out_coords.iter().map(|&c| axis_of(&axes, c));
        b.permute(perm_out.collect::<Result<_, _>>()?)?;
        Ok(b.program)
    }

    /// The resolved steps, in replay order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The kernels the steps launch, in order.
    pub fn kernels(&self) -> &[ShapeOp] {
        &self.kernels
    }

    /// The weight shapes the program expects, in slot order.
    pub fn weight_shapes(&self) -> &[Vec<usize>] {
        &self.weight_shapes
    }

    /// `Ok` when the program can be recorded on a tape.
    ///
    /// # Errors
    ///
    /// [`EagerError::DiagonalWeight`] naming the first weight, in walk order,
    /// whose product reads a diagonal.
    pub fn recordable(&self) -> Result<(), EagerError> {
        self.diagonal.map_or(Ok(()), |w| Err(EagerError::DiagonalWeight(w)))
    }

    /// Checks the operands' shapes against the program's.
    fn check<'a>(
        &self,
        input: &[usize],
        mut weights: impl ExactSizeIterator<Item = &'a [usize]>,
    ) -> Result<(), EagerError> {
        if weights.len() != self.weight_shapes.len() {
            return Err(EagerError::ShapeMismatch("weight count"));
        }
        if input != self.input_shape {
            return Err(EagerError::ShapeMismatch("input"));
        }
        if !weights.by_ref().zip(&self.weight_shapes).all(|(have, want)| have == want) {
            return Err(EagerError::ShapeMismatch("weight"));
        }
        Ok(())
    }

    /// Replays the program on plain tensors.
    ///
    /// # Errors
    ///
    /// [`EagerError::ShapeMismatch`] when `input` or a weight is not shaped
    /// as the program expects.
    pub fn execute(&self, input: &Tensor, weights: &[Tensor]) -> Result<Tensor, EagerError> {
        self.check(input.shape(), weights.iter().map(Tensor::shape))?;
        let (mut pool, mut engine) = (ScratchPool::new(), EinsumEngine::new());
        let mut out: Option<Tensor> = None;
        for step in &self.steps {
            let x = out.as_ref().unwrap_or(input);
            out = Some(step.execute(&mut pool, &mut engine, x, weights));
        }
        Ok(out.unwrap_or_else(|| input.clone()))
    }

    /// Replays the program on an autodiff tape, returning the output.
    ///
    /// # Errors
    ///
    /// [`EagerError::ShapeMismatch`] when `input` or a weight is not shaped
    /// as the program expects; then the [`Program::recordable`] error.
    pub fn record(&self, tape: &mut Tape, input: Var, weights: &[Var]) -> Result<Var, EagerError> {
        self.check(tape.value(input).shape(), weights.iter().map(|&w| tape.value(w).shape()))?;
        self.recordable()?;
        Ok(self.steps.iter().fold(input, |x, step| step.record(tape, x, weights)))
    }
}

/// Concrete weight shapes of `graph` under `valuation`, in slot order —
/// callers allocate weights with these shapes.
///
/// # Errors
///
/// Returns [`EagerError::BadValuation`] when a dimension fails to evaluate.
pub fn weight_shapes(graph: &PGraph, valuation: usize) -> Result<Vec<Vec<usize>>, EagerError> {
    let vars = graph.vars();
    graph
        .weights()
        .iter()
        .map(|w| {
            w.dims
                .iter()
                .map(|d| {
                    d.domain
                        .eval(vars, valuation)
                        .map(|v| v as usize)
                        .ok_or(EagerError::BadValuation)
                })
                .collect()
        })
        .collect()
}

/// The declared input shape of `graph` under `valuation`.
fn input_shape(graph: &PGraph, valuation: usize) -> Result<Vec<usize>, EagerError> {
    let dims = graph.spec().input.eval(graph.vars(), valuation);
    Ok(dims.ok_or(EagerError::BadValuation)?.iter().map(|&v| v as usize).collect())
}

/// Per-slot multiply points: the latest node index `T` such that every dim
/// expression of the slot is live in the frontier after node `T`.
///
/// The frontier after node `t` is the one before it minus the node's
/// `consumed` coordinates plus its `produced` ones, starting from the output
/// coordinates; the arena is append-only, so their expressions are the ids
/// the weight dims were recorded with.
fn multiply_points(graph: &PGraph) -> Result<Vec<usize>, EagerError> {
    let mut live: Vec<CoordId> = graph.output_coords();
    let mut points: Vec<Option<usize>> = vec![None; graph.weight_count()];
    let applied = std::iter::once(None).chain(graph.nodes().iter().map(Some));
    for (t, node) in applied.enumerate() {
        if let Some(node) = node {
            live.retain(|&c| !node.action.operands().any(|o| o == c));
            live.extend_from_slice(node.produced());
        }
        let is_live = |e: ExprId| live.iter().any(|&c| graph.coord_expr(c) == e);
        for (point, weight) in points.iter_mut().zip(graph.weights()) {
            if weight.dims.iter().all(|d| is_live(d.expr)) {
                *point = Some(t);
            }
        }
    }
    points
        .iter()
        .enumerate()
        .map(|(w, point)| point.ok_or(EagerError::WeightNotRealizable(w)))
        .collect()
}

/// [`multiply_points`] as it was: a forward replay of every action on a
/// fresh graph. Kept verbatim as the oracle of the replay-free version.
#[cfg(test)]
fn multiply_points_by_replay(graph: &PGraph) -> Result<Vec<usize>, EagerError> {
    // Forward replay of frontier states (as expression sets).
    let n = graph.len();
    let mut frontier_exprs: Vec<Vec<ExprId>> = Vec::with_capacity(n + 1);
    {
        // Reconstruct by replaying actions on a fresh graph.
        let mut replay = PGraph::new(graph.vars().clone(), graph.spec().clone());
        let exprs_of = |g: &PGraph| -> Vec<ExprId> {
            g.frontier().iter().map(|&c| g.coord_expr(c)).collect()
        };
        frontier_exprs.push(exprs_of(&replay));
        for node in graph.nodes() {
            replay = replay
                .apply(&node.action)
                .map_err(|_| EagerError::Incomplete)?;
            frontier_exprs.push(exprs_of(&replay));
        }
    }
    let mut points = Vec::new();
    for (w, weight) in graph.weights().iter().enumerate() {
        let mut found = None;
        for t in (0..=n).rev() {
            let live = &frontier_exprs[t];
            if weight.dims.iter().all(|d| live.contains(&d.expr)) {
                found = Some(t);
                break;
            }
        }
        points.push(found.ok_or(EagerError::WeightNotRealizable(w))?);
    }
    Ok(points)
}

const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// A [`Program`] under construction and the shape of its live tensor.
struct Builder {
    program: Program,
    shape: Vec<usize>,
}

impl Builder {
    /// Appends `step` once its tensor op's precondition holds on the live
    /// shape — otherwise [`EagerError::ShapeMismatch`], where the op would
    /// `assert!` — and logs it when it launches a kernel.
    fn push(&mut self, step: Step) -> Result<(), EagerError> {
        let shape = &self.shape;
        let (rank, numel) = (shape.len(), shape.iter().product::<usize>());
        let mut out = shape.clone();
        // The precondition, and a kernel's elements read and flops.
        let (ok, what, kernel) = match &step {
            Step::Reshape(to) => {
                out.clone_from(to);
                (numel == to.iter().product(), "reshape element count", None)
            }
            Step::Permute(perm) => {
                let mut seen = vec![false; rank];
                let ok = perm.len() == rank
                    && perm.iter().all(|&p| p < rank && !std::mem::replace(&mut seen[p], true));
                out = perm.iter().filter_map(|&p| shape.get(p).copied()).collect();
                (ok, "permutation", None)
            }
            Step::Unfold(axis, k) => {
                out.push(*k);
                (*axis < rank && *k > 0, "unfold axis or window", Some((numel, 0)))
            }
            Step::Roll(axis) => (*axis < rank, "roll axis", Some((numel, 0))),
            Step::Strided(axis, s) => {
                let ok = *axis < rank && *s > 0 && shape[*axis].is_multiple_of(*s);
                if ok {
                    out[*axis] /= s;
                }
                (ok, "stride divisibility", None)
            }
            Step::Repeat(axis, times) => {
                let ok = *axis <= rank;
                if ok {
                    out.insert(*axis, *times);
                }
                (ok, "repeat axis", None)
            }
            Step::SumAxis(axis) => {
                let ok = *axis < rank;
                if ok {
                    out.remove(*axis);
                }
                (ok, "sum axis", Some((numel, numel)))
            }
            Step::Einsum(spec, w) => {
                let operands = [shape.as_slice(), self.program.weight_shapes[*w].as_slice()];
                let bound = EinsumSpec::parse(spec)
                    .and_then(|parsed| Ok((parsed.bind_extents(&operands)?, parsed.output)));
                let kernel = bound.ok().map(|(extents, output)| {
                    out = output.iter().map(|c| extents[c]).collect();
                    let read = numel + operands[1].iter().product::<usize>();
                    (read, extents.values().product::<usize>() * operands.len())
                });
                (kernel.is_some(), "einsum extent binding", kernel)
            }
        };
        if !ok {
            return Err(EagerError::ShapeMismatch(what));
        }
        if let Some((read, flops)) = kernel {
            let written = out.iter().product();
            self.program.kernels.push(ShapeOp { read, written, flops });
        }
        self.shape = out;
        self.program.steps.push(step);
        Ok(())
    }

    /// [`push`](Self::push)es a permutation unless it is the identity, which
    /// on a tensor is a bit-identical copy (and so is its VJP).
    fn permute(&mut self, perm: Vec<usize>) -> Result<(), EagerError> {
        let identity = perm.len() == self.shape.len() && perm.iter().enumerate().all(|(i, &p)| i == p);
        if identity {
            return Ok(());
        }
        self.push(Step::Permute(perm))
    }

    /// Multiplies every weight whose scheduled point is `t` into the live
    /// tensor via a single elementwise-shared einsum.
    fn multiply_due(&mut self, graph: &PGraph, points: &[usize], t: usize, axes: &[CoordId]) -> Result<(), EagerError> {
        for w in (0..points.len()).filter(|&w| points[w] == t) {
            // Bind each weight dim to the live axis carrying its expression;
            // the multiply is a pure elementwise-shared einsum (reductions
            // are handled by the Reduce nodes themselves).
            let data = LETTERS.get(..axes.len()).ok_or(EagerError::TooManyAxes(axes.len()))?;
            let mut weight = Vec::new();
            for dim in &graph.weights()[w].dims {
                // Scheduling guarantees liveness; a miss means the graph is
                // not eager-realizable after all.
                let pos = axes.iter().position(|&c| graph.coord_expr(c) == dim.expr);
                weight.push(data[pos.ok_or(EagerError::WeightNotRealizable(w))?]);
            }
            if (1..weight.len()).any(|i| weight[..i].contains(&weight[i])) {
                self.program.diagonal.get_or_insert(w);
            }
            let (data, weight) = (String::from_utf8_lossy(data), String::from_utf8_lossy(&weight));
            self.push(Step::Einsum(format!("{data},{weight}->{data}"), w))?;
        }
        Ok(())
    }
}

fn axis_of(axes: &[CoordId], coord: CoordId) -> Result<usize, EagerError> {
    axes.iter()
        .position(|&c| c == coord)
        .ok_or(EagerError::Incomplete)
}

/// Executes `graph` eagerly on plain tensors: [`Program::new`], then
/// [`Program::execute`].
///
/// # Errors
///
/// See [`EagerError`].
pub fn execute(
    graph: &PGraph,
    valuation: usize,
    input: &Tensor,
    weights: &[Tensor],
) -> Result<Tensor, EagerError> {
    Program::new(graph, valuation)?.execute(input, weights)
}

/// Records `graph`'s forward pass on an autodiff tape: [`Program::new`],
/// then [`Program::record`].
///
/// # Errors
///
/// See [`EagerError`].
pub fn record(
    tape: &mut Tape,
    graph: &PGraph,
    valuation: usize,
    input: Var,
    weights: &[Var],
) -> Result<Var, EagerError> {
    Program::new(graph, valuation)?.record(tape, input, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use syno_core::prelude::*;

    proptest! {
        /// The schedule read off the nodes equals the replayed one — on
        /// rollout-sampled operators of the searches' toy vision spec
        /// `[N, Cin, H, W] → [N, Cout, H, W]` and toy sequence spec
        /// `[B, T, C] → [B, T, C]`, and on a vision operator no rollout here
        /// reaches: its weight's dims (`H` before a shift, the reduced `Cin`
        /// after it) are never live together.
        #[test]
        fn replay_free_schedule_matches_the_replay(seed in 0u64..u64::MAX) {
            let shape = |dims: &[VarId]| TensorShape::new(dims.iter().map(|&d| Size::var(d)).collect());
            let mut vars = VarTable::new();
            let [n, cin, cout, h, w] = ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
            let k = vars.declare("k", VarKind::Coefficient);
            vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
            let vision = OperatorSpec::new(shape(&[n, cin, h, w]), shape(&[n, cout, h, w]));
            let mut seq_vars = VarTable::new();
            let [b, t, c] = ["B", "T", "C"].map(|v| seq_vars.declare(v, VarKind::Primary));
            let k = seq_vars.declare("k", VarKind::Coefficient);
            seq_vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
            let sequence = OperatorSpec::new(shape(&[b, t, c]), shape(&[b, t, c]));

            let vars = vars.into_shared();
            let g = PGraph::new(Arc::clone(&vars), vision.clone());
            let (co, h) = (g.frontier()[1], g.frontier()[2]);
            let g = g.apply(&Action::Share { coord: h, weight: 0 }).unwrap();
            let g = g.apply(&Action::Shift { coord: g.last_node().unwrap().produced()[0] }).unwrap();
            let g = g.apply(&Action::Expand { coord: co }).unwrap();
            let g = g.apply(&Action::Reduce { domain: Size::var(cin) }).unwrap();
            let g = g.apply(&Action::Share { coord: g.last_node().unwrap().produced()[0], weight: 0 }).unwrap();
            assert_eq!(multiply_points(&g), Err(EagerError::WeightNotRealizable(0)));

            let mut rng = StdRng::seed_from_u64(seed);
            let mut sampled = vec![Box::new(g)];
            for (vars, spec) in [(vars, vision), (seq_vars.into_shared(), sequence)] {
                let enumerator = Enumerator::new(SynthConfig::auto(&vars, 5));
                let root = PGraph::new(vars, spec);
                sampled.extend((0..40).find_map(|_| match rollout(&mut rng, &enumerator, &root, true) {
                    RolloutResult::Complete(g) => Some(g),
                    _ => None,
                }));
            }
            for g in sampled {
                assert_eq!(multiply_points(&g), multiply_points_by_replay(&g), "on\n{}", g.render());
            }
        }
    }

    /// A builder whose live tensor is `[2, 3]`, with one weight of `weight`'s shape.
    fn builder(weight: Vec<usize>) -> Builder {
        let program = Program {
            steps: Vec::new(),
            input_shape: vec![2, 3],
            weight_shapes: vec![weight],
            kernels: Vec::new(),
            diagonal: None,
        };
        Builder { program, shape: vec![2, 3] }
    }

    /// No graph `PGraph::apply` admits lowers to a violating op, so the
    /// preconditions are exercised on the builder directly: one step per
    /// precondition a tensor op asserts, each violating it on a `[2, 3]`
    /// operand (and a `[2, 3]` weight). Where the builder returns the typed
    /// error, recording the step on a tape panics.
    #[test]
    fn shape_executor_types_what_the_tensor_ops_assert() {
        let einsum = |spec: &str| Step::Einsum(spec.to_owned(), 0);
        let cases = [
            Step::Reshape(vec![5]),
            Step::Permute(vec![0, 0]),
            Step::Permute(vec![0]),
            Step::Unfold(2, 3),
            Step::Unfold(0, 0),
            Step::Roll(2),
            Step::Strided(1, 2),
            Step::Strided(0, 0),
            Step::Repeat(3, 2),
            Step::SumAxis(2),
            einsum("ab,b->a"),
            einsum("ab,ca->b"),
            einsum("ab,ab->c"),
        ];
        for (case, step) in cases.into_iter().enumerate() {
            let mut b = builder(vec![2, 3]);
            let typed = b.push(step.clone());
            assert!(matches!(typed, Err(EagerError::ShapeMismatch(_))), "case {case}: {typed:?}");
            assert!(b.program.steps.is_empty() && b.program.kernels.is_empty(), "case {case}: a refused op is not kept");

            let mut tape = Tape::new();
            let (x, w) = (tape.constant(Tensor::zeros(&[2, 3])), tape.constant(Tensor::zeros(&[2, 3])));
            let panicked = catch_unwind(AssertUnwindSafe(|| step.record(&mut tape, x, &[w])));
            assert!(panicked.is_err(), "case {case}: the tensor op asserts this");
        }
    }

    #[test]
    fn shape_executor_logs_kernels_not_views() {
        let mut b = builder(vec![3, 3]);
        let steps = [Step::Unfold(1, 3), Step::Permute(vec![0, 2, 1]), Step::Einsum("acb,bc->ab".into(), 0), Step::SumAxis(1)];
        for step in steps.clone() {
            b.push(step).unwrap();
        }
        assert_eq!(b.shape, [2]);
        assert_eq!(b.program.steps, steps);
        let op = |read, written, flops| ShapeOp { read, written, flops };
        assert_eq!(b.program.kernels(), [op(6, 18, 0), op(27, 6, 36), op(6, 2, 6)]);
        // An identity permutation is no step at all.
        b.permute(vec![0]).unwrap();
        assert_eq!(b.program.steps.len(), steps.len());
    }
}
