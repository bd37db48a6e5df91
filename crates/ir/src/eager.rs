//! The eager code generator (the paper's PyTorch backend, §8).
//!
//! Walks a complete pGraph in reverse application order — i.e. in dataflow
//! order from the input tensor toward the output — lowering each view
//! primitive to its `syno-tensor` counterpart and each weight to a single
//! einsum, exactly as the paper lowers views to PyTorch view ops and
//! contractions to `einsum`.
//!
//! The walk maintains the invariant that after processing node *t* (in
//! reverse), the live tensor's axes correspond one-to-one to the pGraph
//! frontier after node *t−1*. Each weight tensor is multiplied in at the
//! latest point where **all** of its dimension expressions are live as axes
//! (read off each node's `consumed`/`produced` coordinates — no graph is
//! replayed); `MatchWeight` dims become broadcast axes first, so the weight
//! product is always a pure elementwise einsum over shared axes.
//!
//! The generator is generic over an [`Executor`] so the identical lowering
//! drives the plain tensor runtime (inference), the autodiff tape (training)
//! and the shape executor behind [`validate`], which runs no tensor op: it
//! checks what the tensor ops `assert!` and logs each op's size, so a
//! candidate is admitted — and its eager chain priced — on shapes alone.

use syno_core::expr::ExprId;
use syno_core::graph::{CoordId, PGraph};
use syno_core::primitive::Action;
use syno_tensor::{ops, Tape, Tensor, Var};

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
    /// executor differentiates its einsums: the tape's VJP needs
    /// duplicate-free operand indices. Plain execution supports it.
    DiagonalWeight(usize),
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
        }
    }
}

impl Error for EagerError {}

impl From<EagerError> for syno_core::error::SynoError {
    fn from(e: EagerError) -> Self {
        syno_core::error::SynoError::eager(e)
    }
}

/// The operations the eager generator needs from its execution substrate.
///
/// An op returns `Err` only from an executor that checks its preconditions
/// instead of asserting them (the shape executor behind [`validate`]).
pub trait Executor {
    /// Handle to a tensor value.
    type Handle: Copy;

    /// Shape of a handle, borrowed from the executor — implementations
    /// return their stored shape directly instead of cloning a `Vec` per
    /// call (the eager walk queries shapes at every step).
    fn shape(&self, h: Self::Handle) -> &[usize];
    /// Reinterpret shape.
    fn reshape(&mut self, h: Self::Handle, shape: &[usize]) -> Result<Self::Handle, EagerError>;
    /// Permute axes.
    fn permute(&mut self, h: Self::Handle, perm: &[usize]) -> Result<Self::Handle, EagerError>;
    /// Sliding-window extraction (zero-padded), trailing window axis.
    fn unfold(&mut self, h: Self::Handle, axis: usize, k: usize) -> Result<Self::Handle, EagerError>;
    /// Axis rotation.
    fn roll(&mut self, h: Self::Handle, axis: usize, amount: i64) -> Result<Self::Handle, EagerError>;
    /// Strided selection.
    fn strided(&mut self, h: Self::Handle, axis: usize, s: usize) -> Result<Self::Handle, EagerError>;
    /// Axis insertion with repetition.
    fn repeat(&mut self, h: Self::Handle, axis: usize, times: usize) -> Result<Self::Handle, EagerError>;
    /// Axis summation.
    fn sum_axis(&mut self, h: Self::Handle, axis: usize) -> Result<Self::Handle, EagerError>;
    /// Einstein summation.
    fn einsum(&mut self, spec: &str, inputs: &[Self::Handle]) -> Result<Self::Handle, EagerError>;
    /// `true` when [`Executor::einsum`] records a VJP, which rules out an
    /// operand with a repeated index (see [`EagerError::DiagonalWeight`]).
    fn differentiates(&self) -> bool {
        false
    }
}

/// Plain-tensor executor.
#[derive(Debug, Default)]
pub struct TensorExecutor {
    values: Vec<Tensor>,
    pool: syno_tensor::ScratchPool,
    engine: syno_tensor::EinsumEngine,
}

impl TensorExecutor {
    /// Creates an empty executor under the default (pinned) execution
    /// policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor, returning its handle.
    pub fn insert(&mut self, t: Tensor) -> usize {
        self.values.push(t);
        self.values.len() - 1
    }

    /// The tensor behind a handle.
    pub fn tensor(&self, h: usize) -> &Tensor {
        &self.values[h]
    }
}

impl Executor for TensorExecutor {
    type Handle = usize;

    fn shape(&self, h: usize) -> &[usize] {
        self.values[h].shape()
    }
    fn reshape(&mut self, h: usize, shape: &[usize]) -> Result<usize, EagerError> {
        let t = ops::reshape_in(&mut self.pool, &self.values[h], shape);
        Ok(self.insert(t))
    }
    fn permute(&mut self, h: usize, perm: &[usize]) -> Result<usize, EagerError> {
        let t = ops::permute_in(&mut self.pool, &self.values[h], perm);
        Ok(self.insert(t))
    }
    fn unfold(&mut self, h: usize, axis: usize, k: usize) -> Result<usize, EagerError> {
        let t = ops::unfold_in(&mut self.pool, &self.values[h], axis, k);
        Ok(self.insert(t))
    }
    fn roll(&mut self, h: usize, axis: usize, amount: i64) -> Result<usize, EagerError> {
        let t = ops::roll_in(&mut self.pool, &self.values[h], axis, amount);
        Ok(self.insert(t))
    }
    fn strided(&mut self, h: usize, axis: usize, s: usize) -> Result<usize, EagerError> {
        let t = ops::strided_in(&mut self.pool, &self.values[h], axis, s);
        Ok(self.insert(t))
    }
    fn repeat(&mut self, h: usize, axis: usize, times: usize) -> Result<usize, EagerError> {
        let t = ops::repeat_in(&mut self.pool, &self.values[h], axis, times);
        Ok(self.insert(t))
    }
    fn sum_axis(&mut self, h: usize, axis: usize) -> Result<usize, EagerError> {
        let t = ops::sum_axis_in(&mut self.pool, &self.values[h], axis);
        Ok(self.insert(t))
    }
    fn einsum(&mut self, spec: &str, inputs: &[usize]) -> Result<usize, EagerError> {
        let TensorExecutor { values, pool, engine } = self;
        let tensors: Vec<&Tensor> = inputs.iter().map(|&h| &values[h]).collect();
        let t = engine
            .einsum(spec, &tensors, pool)
            .expect("eager einsum shapes are consistent");
        Ok(self.insert(t))
    }
}

/// Autodiff-tape executor.
#[derive(Debug)]
pub struct TapeExecutor<'a> {
    tape: &'a mut Tape,
}

impl<'a> TapeExecutor<'a> {
    /// Wraps a tape.
    pub fn new(tape: &'a mut Tape) -> Self {
        TapeExecutor { tape }
    }
}

impl Executor for TapeExecutor<'_> {
    type Handle = Var;

    fn shape(&self, h: Var) -> &[usize] {
        self.tape.value(h).shape()
    }
    fn reshape(&mut self, h: Var, shape: &[usize]) -> Result<Var, EagerError> {
        Ok(self.tape.reshape(h, shape))
    }
    fn permute(&mut self, h: Var, perm: &[usize]) -> Result<Var, EagerError> {
        Ok(self.tape.permute(h, perm))
    }
    fn unfold(&mut self, h: Var, axis: usize, k: usize) -> Result<Var, EagerError> {
        Ok(self.tape.unfold(h, axis, k))
    }
    fn roll(&mut self, h: Var, axis: usize, amount: i64) -> Result<Var, EagerError> {
        Ok(self.tape.roll(h, axis, amount))
    }
    fn strided(&mut self, h: Var, axis: usize, s: usize) -> Result<Var, EagerError> {
        Ok(self.tape.strided(h, axis, s))
    }
    fn repeat(&mut self, h: Var, axis: usize, times: usize) -> Result<Var, EagerError> {
        Ok(self.tape.repeat(h, axis, times))
    }
    fn sum_axis(&mut self, h: Var, axis: usize) -> Result<Var, EagerError> {
        Ok(self.tape.sum_axis(h, axis))
    }
    fn einsum(&mut self, spec: &str, inputs: &[Var]) -> Result<Var, EagerError> {
        Ok(self.tape.einsum(spec, inputs))
    }
    fn differentiates(&self) -> bool {
        true
    }
}

/// One kernel of an eager lowering as the shape executor logged it. Views —
/// a contiguous reshape, a stride permutation, a strided narrowing, a
/// stride-0 broadcast (`expand`) — launch none in an eager framework and are
/// not logged: the consuming kernel never materializes them.
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

/// The tree's one shape-tracking executor: no tensor is allocated, an op's
/// violated precondition is [`EagerError::ShapeMismatch`] where the tensor
/// op would `assert!`, and every kernel is logged with its sizes.
#[derive(Debug, Default)]
struct ShapeExecutor {
    shapes: Vec<Vec<usize>>,
    log: Vec<ShapeOp>,
    differentiates: bool,
}

impl ShapeExecutor {
    fn insert(&mut self, shape: Vec<usize>) -> usize {
        self.shapes.push(shape);
        self.shapes.len() - 1
    }

    /// Registers a view of shape `out`, once `ok` — the op's precondition —
    /// holds.
    fn view(&mut self, ok: bool, what: &'static str, out: Vec<usize>) -> Result<usize, EagerError> {
        if !ok {
            return Err(EagerError::ShapeMismatch(what));
        }
        Ok(self.insert(out))
    }

    /// [`view`](Self::view), logged as a kernel that reads `read` elements.
    fn kernel(
        &mut self,
        ok: bool,
        what: &'static str,
        out: Vec<usize>,
        read: usize,
        flops: usize,
    ) -> Result<usize, EagerError> {
        let written = out.iter().product();
        let h = self.view(ok, what, out)?;
        self.log.push(ShapeOp { read, written, flops });
        Ok(h)
    }

    fn numel(&self, h: usize) -> usize {
        self.shapes[h].iter().product()
    }
}

impl Executor for ShapeExecutor {
    type Handle = usize;

    fn shape(&self, h: usize) -> &[usize] {
        &self.shapes[h]
    }
    fn reshape(&mut self, h: usize, shape: &[usize]) -> Result<usize, EagerError> {
        let same = self.numel(h) == shape.iter().product();
        self.view(same, "reshape element count", shape.to_vec())
    }
    fn permute(&mut self, h: usize, perm: &[usize]) -> Result<usize, EagerError> {
        let src = &self.shapes[h];
        let mut seen = vec![false; src.len()];
        let valid = perm.len() == src.len()
            && perm.iter().all(|&p| p < seen.len() && !std::mem::replace(&mut seen[p], true));
        let out = perm.iter().filter_map(|&p| src.get(p).copied()).collect();
        self.view(valid, "permutation", out)
    }
    fn unfold(&mut self, h: usize, axis: usize, k: usize) -> Result<usize, EagerError> {
        let mut out = self.shapes[h].clone();
        let ok = axis < out.len() && k > 0;
        out.push(k);
        self.kernel(ok, "unfold axis or window", out, self.numel(h), 0)
    }
    fn roll(&mut self, h: usize, axis: usize, _amount: i64) -> Result<usize, EagerError> {
        let out = self.shapes[h].clone();
        self.kernel(axis < out.len(), "roll axis", out, self.numel(h), 0)
    }
    fn strided(&mut self, h: usize, axis: usize, s: usize) -> Result<usize, EagerError> {
        let mut out = self.shapes[h].clone();
        let ok = axis < out.len() && s > 0 && out[axis].is_multiple_of(s);
        if ok {
            out[axis] /= s;
        }
        self.view(ok, "stride divisibility", out)
    }
    fn repeat(&mut self, h: usize, axis: usize, times: usize) -> Result<usize, EagerError> {
        let mut out = self.shapes[h].clone();
        let ok = axis <= out.len();
        if ok {
            out.insert(axis, times);
        }
        self.view(ok, "repeat axis", out)
    }
    fn sum_axis(&mut self, h: usize, axis: usize) -> Result<usize, EagerError> {
        let mut out = self.shapes[h].clone();
        let ok = axis < out.len();
        if ok {
            out.remove(axis);
        }
        self.kernel(ok, "sum axis", out, self.numel(h), self.numel(h))
    }
    fn einsum(&mut self, spec: &str, inputs: &[usize]) -> Result<usize, EagerError> {
        let shapes: Vec<&[usize]> = inputs.iter().map(|&h| self.shapes[h].as_slice()).collect();
        let bound = syno_tensor::EinsumSpec::parse(spec)
            .and_then(|parsed| Ok((parsed.bind_extents(&shapes)?, parsed.output)));
        let (extents, output) = bound.map_err(|_| EagerError::ShapeMismatch("einsum extent binding"))?;
        let out = output.iter().map(|c| extents[c]).collect();
        let read = inputs.iter().map(|&h| self.numel(h)).sum();
        let flops = extents.values().product::<usize>() * inputs.len();
        self.kernel(true, "einsum", out, read, flops)
    }
    fn differentiates(&self) -> bool {
        self.differentiates
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

/// Lowers and executes `graph` on an executor, returning the output handle.
///
/// `input` must be shaped like the graph's input spec under `valuation`;
/// `weights[w]` like [`weight_shapes`] reports.
///
/// # Errors
///
/// See [`EagerError`].
pub fn lower_eager<E: Executor>(
    exec: &mut E,
    graph: &PGraph,
    valuation: usize,
    input: E::Handle,
    weights: &[E::Handle],
) -> Result<E::Handle, EagerError> {
    let perm = graph.match_input().ok_or(EagerError::Incomplete)?;
    if weights.len() != graph.weight_count() {
        return Err(EagerError::ShapeMismatch("weight count"));
    }
    let eval = |e: ExprId| -> Result<usize, EagerError> {
        graph
            .arena()
            .domain(e)
            .eval(graph.vars(), valuation)
            .map(|v| v as usize)
            .ok_or(EagerError::BadValuation)
    };

    if exec.shape(input) != input_shape(graph, valuation)? {
        return Err(EagerError::ShapeMismatch("input"));
    }

    let points = multiply_points(graph)?;

    // Axes state: axes[i] = frontier coordinate carried by tensor axis i.
    // Start: permute the input so axis i corresponds to frontier coord i.
    // perm[slot] = input dim for frontier slot => permutation for
    // `ops::permute` is exactly `perm` (output axis slot reads input axis
    // perm[slot]).
    let mut current = exec.permute(input, &perm)?;
    let mut axes: Vec<CoordId> = graph.frontier().to_vec();

    // Multiply weights scheduled at T = n (before visiting any node).
    let n = graph.len();
    multiply_due(exec, graph, &points, n, &mut current, &axes, weights)?;

    for t in (0..n).rev() {
        let node = &graph.nodes()[t];
        match &node.action {
            Action::Split { lhs, rhs } => {
                // Reverse: axis(product) -> axes (lhs, rhs) via reshape.
                let product = node.produced()[0];
                let pos = axis_of(&axes, product)?;
                let g = eval(graph.coord_expr(*lhs))?;
                let b = eval(graph.coord_expr(*rhs))?;
                let mut shape = exec.shape(current).to_vec();
                shape.splice(pos..=pos, [g, b]);
                current = exec.reshape(current, &shape)?;
                axes.splice(pos..=pos, [*lhs, *rhs]);
            }
            Action::Merge { coord, .. } => {
                // Reverse: axes (q, r) -> axis(coord) via permute+reshape.
                let q = node.produced()[0];
                let r = node.produced()[1];
                let qpos = axis_of(&axes, q)?;
                let rpos = axis_of(&axes, r)?;
                // Bring r right after q.
                if rpos != qpos + 1 {
                    let mut order: Vec<usize> = (0..axes.len()).collect();
                    order.remove(rpos);
                    let qpos_now = order.iter().position(|&i| i == qpos).expect("q present");
                    order.insert(qpos_now + 1, rpos);
                    current = exec.permute(current, &order)?;
                    axes = order.iter().map(|&i| axes[i]).collect();
                }
                let qpos = axis_of(&axes, q)?;
                let mut shape = exec.shape(current).to_vec();
                let merged = shape[qpos] * shape[qpos + 1];
                shape.splice(qpos..=qpos + 1, [merged]);
                current = exec.reshape(current, &shape)?;
                axes.splice(qpos..=qpos + 1, [*coord]);
            }
            Action::Shift { coord } => {
                let out = node.produced()[0];
                let pos = axis_of(&axes, out)?;
                current = exec.roll(current, pos, 1)?;
                axes[pos] = *coord;
            }
            Action::Stride { coord, .. } => {
                let out = node.produced()[0];
                let pos = axis_of(&axes, out)?;
                let k = eval(graph.coord_expr(*coord))?;
                let s = exec.shape(current)[pos].checked_div(k);
                let s = s.ok_or(EagerError::ShapeMismatch("stride divisibility"))?;
                current = exec.strided(current, pos, s)?;
                axes[pos] = *coord;
            }
            Action::Unfold { base, window } => {
                let out = node.produced()[0];
                let pos = axis_of(&axes, out)?;
                let k = eval(graph.coord_expr(*window))?;
                current = exec.unfold(current, pos, k)?;
                axes[pos] = *base;
                axes.push(*window);
            }
            Action::Expand { coord } => {
                let times = eval(graph.coord_expr(*coord))?;
                let pos = axes.len();
                current = exec.repeat(current, pos, times)?;
                axes.push(*coord);
            }
            Action::Reduce { .. } => {
                let out = node.produced()[0];
                let pos = axis_of(&axes, out)?;
                current = exec.sum_axis(current, pos)?;
                axes.remove(pos);
            }
            Action::Share { coord, .. } => {
                let copy = node.produced()[0];
                let pos = axis_of(&axes, copy)?;
                axes[pos] = *coord;
            }
            Action::MatchWeight { coord, .. } => {
                // Reverse: create a broadcast axis; the weight einsum (at an
                // earlier reverse step, i.e. already executed) selected it.
                // Here the axis must be *introduced* since below this node
                // the coordinate exists on the frontier.
                let times = eval(graph.coord_expr(*coord))?;
                let pos = axes.len();
                current = exec.repeat(current, pos, times)?;
                axes.push(*coord);
            }
        }
        multiply_due(exec, graph, &points, t, &mut current, &axes, weights)?;
    }

    // Axes now carry the output coordinates; order them per output spec.
    let out_coords: Vec<CoordId> = graph.output_coords();
    if axes.len() != out_coords.len() {
        return Err(EagerError::Incomplete);
    }
    let perm_out: Vec<usize> = out_coords
        .iter()
        .map(|c| axis_of(&axes, *c))
        .collect::<Result<_, _>>()?;
    exec.permute(current, &perm_out)
}

fn axis_of(axes: &[CoordId], coord: CoordId) -> Result<usize, EagerError> {
    axes.iter()
        .position(|&c| c == coord)
        .ok_or(EagerError::Incomplete)
}

/// Multiplies every weight whose scheduled point is `t` into the current
/// tensor via a single elementwise-shared einsum.
#[allow(clippy::too_many_arguments)]
fn multiply_due<E: Executor>(
    exec: &mut E,
    graph: &PGraph,
    points: &[usize],
    t: usize,
    current: &mut E::Handle,
    axes: &[CoordId],
    weights: &[E::Handle],
) -> Result<(), EagerError> {
    for (w, &point) in points.iter().enumerate() {
        if point != t {
            continue;
        }
        let weight = &graph.weights()[w];
        // Bind each weight dim to the live axis carrying its expression;
        // the multiply is a pure elementwise-shared einsum (reductions are
        // handled by the Reduce nodes themselves).
        let data_letters: Vec<u8> = (0..axes.len()).map(|i| LETTERS[i]).collect();
        let mut weight_letters = Vec::new();
        for dim in &weight.dims {
            let axis = axes.iter().position(|&c| graph.coord_expr(c) == dim.expr);
            match axis {
                Some(pos) => weight_letters.push(data_letters[pos]),
                // Scheduling guarantees liveness; a miss means the graph is
                // not eager-realizable after all.
                None => return Err(EagerError::WeightNotRealizable(w)),
            }
        }
        let diagonal = (1..weight_letters.len())
            .any(|i| weight_letters[..i].contains(&weight_letters[i]));
        if diagonal && exec.differentiates() {
            return Err(EagerError::DiagonalWeight(w));
        }
        let spec = format!(
            "{},{}->{}",
            String::from_utf8_lossy(&data_letters),
            String::from_utf8_lossy(&weight_letters),
            String::from_utf8_lossy(&data_letters),
        );
        *current = exec.einsum(&spec, &[*current, weights[w]])?;
    }
    Ok(())
}

/// Lowers `graph` on shapes alone: `Ok` exactly when [`lower_eager`] succeeds
/// on tensors shaped per the spec and [`weight_shapes`] — on an executor that
/// differentiates its einsums when `differentiates` — at the cost of no
/// tensor op. Returns the kernels the lowering launches, in order.
///
/// # Errors
///
/// See [`EagerError`].
pub fn validate(
    graph: &PGraph,
    valuation: usize,
    differentiates: bool,
) -> Result<Vec<ShapeOp>, EagerError> {
    let mut exec = ShapeExecutor {
        differentiates,
        ..ShapeExecutor::default()
    };
    let input = exec.insert(input_shape(graph, valuation)?);
    let weights: Vec<usize> = weight_shapes(graph, valuation)?
        .into_iter()
        .map(|shape| exec.insert(shape))
        .collect();
    lower_eager(&mut exec, graph, valuation, input, &weights)?;
    Ok(exec.log)
}

/// Executes `graph` eagerly on plain tensors.
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
    let mut exec = TensorExecutor::new();
    let ih = exec.insert(input.clone());
    let whs: Vec<usize> = weights.iter().map(|w| exec.insert(w.clone())).collect();
    let out = lower_eager(&mut exec, graph, valuation, ih, &whs)?;
    Ok(exec.tensor(out).clone())
}

/// Records `graph`'s forward pass on an autodiff tape.
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
    let mut exec = TapeExecutor::new(tape);
    lower_eager(&mut exec, graph, valuation, input, weights)
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

    /// One call per precondition a tensor op asserts, each violating it on a
    /// `[2, 3]` operand `h`.
    fn violate<E: Executor<Handle = usize>>(exec: &mut E, h: usize, case: usize) -> Result<usize, EagerError> {
        match case {
            0 => exec.reshape(h, &[5]),
            1 => exec.permute(h, &[0, 0]),
            2 => exec.permute(h, &[0]),
            3 => exec.unfold(h, 2, 3),
            4 => exec.unfold(h, 0, 0),
            5 => exec.roll(h, 2, 1),
            6 => exec.strided(h, 1, 2),
            7 => exec.strided(h, 0, 0),
            8 => exec.repeat(h, 3, 2),
            9 => exec.sum_axis(h, 2),
            10 => exec.einsum("ab,b->a", &[h, h]),
            11 => exec.einsum("ab,ca->b", &[h, h]),
            _ => exec.einsum("ab->c", &[h]),
        }
    }

    /// No graph `PGraph::apply` admits lowers to a violating op, so the
    /// preconditions are exercised on the executors directly: where the
    /// tensor executor panics, the shape executor returns the typed error.
    #[test]
    fn shape_executor_types_what_the_tensor_ops_assert() {
        for case in 0..=12 {
            let mut shapes = ShapeExecutor::default();
            let h = shapes.insert(vec![2, 3]);
            let typed = violate(&mut shapes, h, case);
            assert!(matches!(typed, Err(EagerError::ShapeMismatch(_))), "case {case}: {typed:?}");
            assert!(shapes.log.is_empty(), "case {case}: a refused op is not logged");

            let mut tensors = TensorExecutor::new();
            let h = tensors.insert(Tensor::zeros(&[2, 3]));
            let panicked = catch_unwind(AssertUnwindSafe(|| violate(&mut tensors, h, case)));
            assert!(panicked.is_err(), "case {case}: the tensor op asserts this");
        }
    }

    #[test]
    fn shape_executor_logs_kernels_not_views() {
        let mut shapes = ShapeExecutor::default();
        let h = shapes.insert(vec![2, 3]);
        let u = shapes.unfold(h, 1, 3).unwrap();
        let p = shapes.permute(u, &[0, 2, 1]).unwrap();
        let w = shapes.insert(vec![3, 3]);
        let e = shapes.einsum("acb,bc->ab", &[p, w]).unwrap();
        let s = shapes.sum_axis(e, 1).unwrap();
        assert_eq!(shapes.shape(s), &[2]);
        let op = |read, written, flops| ShapeOp { read, written, flops };
        assert_eq!(shapes.log, [op(6, 18, 0), op(27, 6, 36), op(6, 2, 6)]);
    }
}
