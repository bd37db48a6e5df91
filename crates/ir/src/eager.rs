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
//! (computed from a forward replay of frontier states); `MatchWeight` dims
//! become broadcast axes first, so the weight product is always a pure
//! elementwise einsum over shared axes.
//!
//! The generator is generic over an [`Executor`] so the identical lowering
//! drives both the plain tensor runtime (inference) and the autodiff tape
//! (training).

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
pub trait Executor {
    /// Handle to a tensor value.
    type Handle: Copy;

    /// Shape of a handle, borrowed from the executor — implementations
    /// return their stored shape directly instead of cloning a `Vec` per
    /// call (the eager walk queries shapes at every step).
    fn shape(&self, h: Self::Handle) -> &[usize];
    /// Reinterpret shape.
    fn reshape(&mut self, h: Self::Handle, shape: &[usize]) -> Self::Handle;
    /// Permute axes.
    fn permute(&mut self, h: Self::Handle, perm: &[usize]) -> Self::Handle;
    /// Sliding-window extraction (zero-padded), trailing window axis.
    fn unfold(&mut self, h: Self::Handle, axis: usize, k: usize) -> Self::Handle;
    /// Axis rotation.
    fn roll(&mut self, h: Self::Handle, axis: usize, amount: i64) -> Self::Handle;
    /// Strided selection.
    fn strided(&mut self, h: Self::Handle, axis: usize, s: usize) -> Self::Handle;
    /// Axis insertion with repetition.
    fn repeat(&mut self, h: Self::Handle, axis: usize, times: usize) -> Self::Handle;
    /// Axis summation.
    fn sum_axis(&mut self, h: Self::Handle, axis: usize) -> Self::Handle;
    /// Einstein summation.
    fn einsum(&mut self, spec: &str, inputs: &[Self::Handle]) -> Self::Handle;
    /// `true` when [`Executor::einsum`] records a VJP, which rules out an
    /// operand with a repeated index (see [`EagerError::DiagonalWeight`]).
    fn differentiates(&self) -> bool {
        false
    }
}

/// Plain-tensor executor with a scratch-buffer pool and a cached einsum
/// engine: [`TensorExecutor::reset`] reclaims every value buffer while
/// keeping the compiled plans, so repeated executions of the same operator
/// stop allocating after the first.
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

    /// Creates an empty executor whose einsums run under `policy` (thread
    /// count and deterministic reduction-tree width).
    pub fn with_policy(policy: syno_tensor::ExecPolicy) -> Self {
        TensorExecutor {
            engine: syno_tensor::EinsumEngine::with_policy(policy),
            ..Self::default()
        }
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

    /// Drops all values, recycling their buffers for the next execution;
    /// compiled einsum plans survive.
    pub fn reset(&mut self) {
        let TensorExecutor { values, pool, .. } = self;
        for t in values.drain(..) {
            pool.recycle(t);
        }
    }
}

impl Executor for TensorExecutor {
    type Handle = usize;

    fn shape(&self, h: usize) -> &[usize] {
        self.values[h].shape()
    }
    fn reshape(&mut self, h: usize, shape: &[usize]) -> usize {
        let t = ops::reshape_in(&mut self.pool, &self.values[h], shape);
        self.insert(t)
    }
    fn permute(&mut self, h: usize, perm: &[usize]) -> usize {
        let t = ops::permute_in(&mut self.pool, &self.values[h], perm);
        self.insert(t)
    }
    fn unfold(&mut self, h: usize, axis: usize, k: usize) -> usize {
        let t = ops::unfold_in(&mut self.pool, &self.values[h], axis, k);
        self.insert(t)
    }
    fn roll(&mut self, h: usize, axis: usize, amount: i64) -> usize {
        let t = ops::roll_in(&mut self.pool, &self.values[h], axis, amount);
        self.insert(t)
    }
    fn strided(&mut self, h: usize, axis: usize, s: usize) -> usize {
        let t = ops::strided_in(&mut self.pool, &self.values[h], axis, s);
        self.insert(t)
    }
    fn repeat(&mut self, h: usize, axis: usize, times: usize) -> usize {
        let t = ops::repeat_in(&mut self.pool, &self.values[h], axis, times);
        self.insert(t)
    }
    fn sum_axis(&mut self, h: usize, axis: usize) -> usize {
        let t = ops::sum_axis_in(&mut self.pool, &self.values[h], axis);
        self.insert(t)
    }
    fn einsum(&mut self, spec: &str, inputs: &[usize]) -> usize {
        let TensorExecutor { values, pool, engine } = self;
        let tensors: Vec<&Tensor> = inputs.iter().map(|&h| &values[h]).collect();
        let t = engine
            .einsum(spec, &tensors, pool)
            .expect("eager einsum shapes are consistent");
        self.insert(t)
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
    fn reshape(&mut self, h: Var, shape: &[usize]) -> Var {
        self.tape.reshape(h, shape)
    }
    fn permute(&mut self, h: Var, perm: &[usize]) -> Var {
        self.tape.permute(h, perm)
    }
    fn unfold(&mut self, h: Var, axis: usize, k: usize) -> Var {
        self.tape.unfold(h, axis, k)
    }
    fn roll(&mut self, h: Var, axis: usize, amount: i64) -> Var {
        self.tape.roll(h, axis, amount)
    }
    fn strided(&mut self, h: Var, axis: usize, s: usize) -> Var {
        self.tape.strided(h, axis, s)
    }
    fn repeat(&mut self, h: Var, axis: usize, times: usize) -> Var {
        self.tape.repeat(h, axis, times)
    }
    fn sum_axis(&mut self, h: Var, axis: usize) -> Var {
        self.tape.sum_axis(h, axis)
    }
    fn einsum(&mut self, spec: &str, inputs: &[Var]) -> Var {
        self.tape.einsum(spec, inputs)
    }
    fn differentiates(&self) -> bool {
        true
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

/// Per-slot multiply points: the latest node index `T` such that every dim
/// expression of the slot is live in the frontier after node `T`.
fn multiply_points(graph: &PGraph) -> Result<Vec<usize>, EagerError> {
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
    let vars = graph.vars().clone();
    let perm = graph.match_input().ok_or(EagerError::Incomplete)?;
    if weights.len() != graph.weight_count() {
        return Err(EagerError::ShapeMismatch("weight count"));
    }
    let eval = |e: ExprId| -> Result<usize, EagerError> {
        graph
            .arena()
            .domain(e)
            .eval(&vars, valuation)
            .map(|v| v as usize)
            .ok_or(EagerError::BadValuation)
    };

    // Check declared input shape.
    let want_input: Vec<usize> = graph
        .spec()
        .input
        .eval(&vars, valuation)
        .ok_or(EagerError::BadValuation)?
        .iter()
        .map(|&v| v as usize)
        .collect();
    if exec.shape(input) != want_input.as_slice() {
        return Err(EagerError::ShapeMismatch("input"));
    }

    let points = multiply_points(graph)?;

    // Axes state: axes[i] = frontier coordinate carried by tensor axis i.
    // Start: permute the input so axis i corresponds to frontier coord i.
    // perm[slot] = input dim for frontier slot => permutation for
    // `ops::permute` is exactly `perm` (output axis slot reads input axis
    // perm[slot]).
    let mut current = exec.permute(input, &perm);
    let mut axes: Vec<CoordId> = graph.frontier().to_vec();

    // Multiply weights scheduled at T = n (before visiting any node).
    let n = graph.len();
    multiply_due(exec, graph, &points, n, &mut current, &axes, weights)?;

    for t in (0..n).rev() {
        let node = &graph.nodes()[t];
        match &node.action {
            Action::Split { lhs, rhs } => {
                // Reverse: axis(product) -> axes (lhs, rhs) via reshape.
                let product = node.produced[0];
                let pos = axis_of(&axes, product)?;
                let g = eval(graph.coord_expr(*lhs))?;
                let b = eval(graph.coord_expr(*rhs))?;
                let mut shape = exec.shape(current).to_vec();
                shape.splice(pos..=pos, [g, b]);
                current = exec.reshape(current, &shape);
                axes.splice(pos..=pos, [*lhs, *rhs]);
            }
            Action::Merge { coord, .. } => {
                // Reverse: axes (q, r) -> axis(coord) via permute+reshape.
                let q = node.produced[0];
                let r = node.produced[1];
                let qpos = axis_of(&axes, q)?;
                let rpos = axis_of(&axes, r)?;
                // Bring r right after q.
                if rpos != qpos + 1 {
                    let mut order: Vec<usize> = (0..axes.len()).collect();
                    order.remove(rpos);
                    let qpos_now = order.iter().position(|&i| i == qpos).expect("q present");
                    order.insert(qpos_now + 1, rpos);
                    current = exec.permute(current, &order);
                    axes = order.iter().map(|&i| axes[i]).collect();
                }
                let qpos = axis_of(&axes, q)?;
                let mut shape = exec.shape(current).to_vec();
                let merged = shape[qpos] * shape[qpos + 1];
                shape.splice(qpos..=qpos + 1, [merged]);
                current = exec.reshape(current, &shape);
                axes.splice(qpos..=qpos + 1, [*coord]);
            }
            Action::Shift { coord } => {
                let out = node.produced[0];
                let pos = axis_of(&axes, out)?;
                current = exec.roll(current, pos, 1);
                axes[pos] = *coord;
            }
            Action::Stride { coord, .. } => {
                let out = node.produced[0];
                let pos = axis_of(&axes, out)?;
                let k = eval(graph.coord_expr(*coord))?;
                let total = exec.shape(current)[pos];
                current = exec.strided(current, pos, total / k);
                axes[pos] = *coord;
            }
            Action::Unfold { base, window } => {
                let out = node.produced[0];
                let pos = axis_of(&axes, out)?;
                let k = eval(graph.coord_expr(*window))?;
                current = exec.unfold(current, pos, k);
                axes[pos] = *base;
                axes.push(*window);
            }
            Action::Expand { coord } => {
                let times = eval(graph.coord_expr(*coord))?;
                let pos = axes.len();
                current = exec.repeat(current, pos, times);
                axes.push(*coord);
            }
            Action::Reduce { .. } => {
                let out = node.produced[0];
                let pos = axis_of(&axes, out)?;
                current = exec.sum_axis(current, pos);
                axes.remove(pos);
            }
            Action::Share { coord, .. } => {
                let copy = node.produced[0];
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
                current = exec.repeat(current, pos, times);
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
    Ok(exec.permute(current, &perm_out))
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
        *current = exec.einsum(&spec, &[*current, weights[w]]);
    }
    Ok(())
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
