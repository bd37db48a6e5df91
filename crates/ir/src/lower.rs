//! Lowering complete pGraphs to loop-nest kernels, including the
//! *materialized reduction* optimization of §8 (Fig. 4).
//!
//! A complete pGraph denotes
//!
//! ```text
//! out[o₀…] = Σ_{reduce atoms} input[frontier exprs] · Π_w weight_w[dim exprs]
//! ```
//!
//! The naive lowering emits this as a single loop nest, iterating the
//! product of all output and reduction domains. The optimized lowering
//! enumerates *plans* — ordered partitions of the reduction atoms — and for
//! each group emits a stage that sums only the operands reaching those
//! atoms, materializing an intermediate buffer indexed by the maximal
//! subexpressions free of the group ("cuts"). Exactly as the paper observes,
//! summing *before* a 1-to-many `Unfold` duplicates data cuts FLOPs from
//! `k·H` to `(1 + k/s)·H` in the Fig. 4 example.

use crate::kernel::{Kernel, LoopDef, Operand, OperandRef, Stage};
use syno_core::expr::{AtomId, AtomKind, ExprArena, ExprId, ExprNode};
use syno_core::graph::PGraph;
use syno_core::primitive::Action;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Errors from lowering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LowerError {
    /// The graph's frontier does not match its input specification.
    Incomplete,
    /// A symbolic size failed to evaluate under the chosen valuation.
    BadValuation,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Incomplete => write!(f, "graph is not complete"),
            LowerError::BadValuation => write!(f, "sizes do not evaluate under the valuation"),
        }
    }
}

impl Error for LowerError {}

impl From<LowerError> for syno_core::error::SynoError {
    fn from(e: LowerError) -> Self {
        syno_core::error::SynoError::lower(e)
    }
}

/// Does `expr` mention any atom in `atoms`?
fn mentions(arena: &ExprArena, expr: ExprId, atoms: &HashSet<AtomId>) -> bool {
    arena.atoms_of(expr).iter().any(|a| atoms.contains(a))
}

/// Does `expr` contain an `Unfold` (i.e. carry zero-padding clip semantics)?
fn has_clip(arena: &ExprArena, expr: ExprId) -> bool {
    match *arena.node(expr) {
        ExprNode::Atom(_) => false,
        ExprNode::Affine { lhs, rhs, .. } => has_clip(arena, lhs) || has_clip(arena, rhs),
        ExprNode::Div { inner, .. }
        | ExprNode::Mod { inner, .. }
        | ExprNode::Shift { inner, .. }
        | ExprNode::Stride { inner, .. } => has_clip(arena, inner),
        ExprNode::Unfold { .. } => true,
    }
}

/// Collects maximal subtrees of `expr` that do not mention `atoms`.
fn cuts_of(arena: &ExprArena, expr: ExprId, atoms: &HashSet<AtomId>, out: &mut Vec<ExprId>) {
    if !mentions(arena, expr, atoms) {
        if !out.contains(&expr) {
            out.push(expr);
        }
        return;
    }
    match *arena.node(expr) {
        ExprNode::Atom(_) => {} // a reduced atom itself: no cut below it
        ExprNode::Affine { lhs, rhs, .. } => {
            cuts_of(arena, lhs, atoms, out);
            cuts_of(arena, rhs, atoms, out);
        }
        ExprNode::Div { inner, .. }
        | ExprNode::Mod { inner, .. }
        | ExprNode::Shift { inner, .. }
        | ExprNode::Stride { inner, .. } => cuts_of(arena, inner, atoms, out),
        ExprNode::Unfold { base, window, .. } => {
            cuts_of(arena, base, atoms, out);
            cuts_of(arena, window, atoms, out);
        }
    }
}

/// Rewrites `expr`, replacing every expression in `subst` by its image.
fn substitute(
    arena: &mut ExprArena,
    expr: ExprId,
    subst: &HashMap<ExprId, ExprId>,
) -> ExprId {
    if let Some(&to) = subst.get(&expr) {
        return to;
    }
    match arena.node(expr).clone() {
        ExprNode::Atom(_) => expr,
        ExprNode::Affine { lhs, rhs, .. } => {
            let l = substitute(arena, lhs, subst);
            let r = substitute(arena, rhs, subst);
            arena.affine(l, r)
        }
        ExprNode::Div { inner, block } => {
            let i = substitute(arena, inner, subst);
            arena.div(i, block)
        }
        ExprNode::Mod { inner, block } => {
            let i = substitute(arena, inner, subst);
            arena.modulo(i, block)
        }
        ExprNode::Shift { inner, .. } => {
            let i = substitute(arena, inner, subst);
            arena.shift(i)
        }
        ExprNode::Stride { inner, stride } => {
            let i = substitute(arena, inner, subst);
            arena.stride(i, stride)
        }
        ExprNode::Unfold { base, window, .. } => {
            let b = substitute(arena, base, subst);
            let w = substitute(arena, window, subst);
            arena.unfold(b, w)
        }
    }
}

/// A lowering plan: reduction atoms, partitioned into ordered groups.
type Plan = Vec<Vec<AtomId>>;

/// Enumerates ordered set partitions of `atoms` (all orders of all
/// partitions); for more than `cap` atoms only the single-group plan is
/// returned.
fn ordered_partitions(atoms: &[AtomId], cap: usize) -> Vec<Plan> {
    if atoms.is_empty() {
        return vec![vec![]];
    }
    if atoms.len() > cap {
        return vec![vec![atoms.to_vec()]];
    }
    // Recursive: choose the first group (any non-empty subset), recurse.
    let mut plans = Vec::new();
    let n = atoms.len();
    for mask in 1u32..(1 << n) {
        let first: Vec<AtomId> = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| atoms[i]).collect();
        let rest: Vec<AtomId> = (0..n).filter(|i| mask & (1 << i) == 0).map(|i| atoms[i]).collect();
        for mut tail in ordered_partitions(&rest, cap) {
            let mut plan = vec![first.clone()];
            plan.append(&mut tail);
            plans.push(plan);
        }
    }
    plans
}

/// Lowers `graph` under `plan` at `valuation`.
fn lower_with_plan(graph: &PGraph, valuation: usize, plan: &Plan) -> Result<Kernel, LowerError> {
    let perm = graph.match_input().ok_or(LowerError::Incomplete)?;
    let vars = graph.vars().clone();
    let mut arena = graph.arena().clone();
    let eval = |arena: &ExprArena, e: ExprId| -> Result<u64, LowerError> {
        arena
            .domain(e)
            .eval(&vars, valuation)
            .ok_or(LowerError::BadValuation)
    };

    // Concrete boundary shapes.
    let input_shape: Vec<usize> = graph
        .spec()
        .input
        .eval(&vars, valuation)
        .ok_or(LowerError::BadValuation)?
        .iter()
        .map(|&v| v as usize)
        .collect();
    let output_shape: Vec<usize> = graph
        .spec()
        .output
        .eval(&vars, valuation)
        .ok_or(LowerError::BadValuation)?
        .iter()
        .map(|&v| v as usize)
        .collect();
    let mut weight_shapes = Vec::new();
    for w in graph.weights() {
        let mut dims = Vec::new();
        for d in &w.dims {
            dims.push(
                d.domain
                    .eval(&vars, valuation)
                    .ok_or(LowerError::BadValuation)? as usize,
            );
        }
        weight_shapes.push(dims);
    }

    // Initial operands: input (indices ordered by input dimension) and
    // weights (indices in dim order).
    let mut input_index_slots: Vec<Option<ExprId>> = vec![None; input_shape.len()];
    for (slot, &coord) in graph.frontier().iter().enumerate() {
        input_index_slots[perm[slot]] = Some(graph.coord_expr(coord));
    }
    let input_indices: Vec<ExprId> = input_index_slots
        .into_iter()
        .map(|e| e.expect("match_input covers every input dimension"))
        .collect();
    let mut operands: Vec<Operand> = vec![Operand {
        source: OperandRef::Input,
        indices: input_indices,
    }];
    for (w, weight) in graph.weights().iter().enumerate() {
        operands.push(Operand {
            source: OperandRef::Weight(w),
            indices: weight.dims.iter().map(|d| d.expr).collect(),
        });
    }

    // Clip predicates of coordinates discarded by `Expand`: no operand reads
    // them, but an `Unfold` in their history still zeroes out-of-window
    // terms, so they must survive lowering as stage guards.
    let mut pending_guards: Vec<ExprId> = graph
        .nodes()
        .iter()
        .filter(|node| matches!(node.action, Action::Expand { .. }))
        .filter_map(|node| node.action.operands().next())
        .map(|coord| graph.coord_expr(coord))
        .filter(|&e| has_clip(&arena, e))
        .collect();

    let mut stages: Vec<Stage> = Vec::new();

    for group in plan {
        let group_set: HashSet<AtomId> = group.iter().copied().collect();
        // Partition operands: those mentioning the group get consumed.
        let (consumed, kept): (Vec<Operand>, Vec<Operand>) = operands
            .into_iter()
            .partition(|op| op.indices.iter().any(|&e| mentions(&arena, e, &group_set)));
        // Guards binding the group's atoms must be evaluated inside this
        // stage's reduction.
        let (consumed_guards, kept_guards): (Vec<ExprId>, Vec<ExprId>) = pending_guards
            .into_iter()
            .partition(|&e| mentions(&arena, e, &group_set));
        pending_guards = kept_guards;
        // A reduction no operand mentions is a pure multiplier; summing all
        // remaining operands over it keeps the semantics.
        let (consumed, kept) = if consumed.is_empty() {
            (kept, Vec::new())
        } else {
            (consumed, kept)
        };
        let (stage, mut new_op) =
            build_stage(&mut arena, &vars, valuation, consumed, consumed_guards, group)?;
        stages.push(stage);
        new_op.source = OperandRef::Buffer(stages.len() - 1);
        operands = kept;
        operands.insert(0, new_op);
    }

    // Final combine stage over the output atoms (skipped when the last
    // intermediate already *is* the output up to permutation).
    let output_atoms = graph.output_atoms().to_vec();
    let out_exprs: Vec<ExprId> = {
        // Bare atom expressions already exist in the arena (they seeded the
        // frontier), so interning them again is a lookup.
        let mut v = Vec::new();
        for &a in &output_atoms {
            v.push(arena.expr_atom(a));
        }
        v
    };

    let identity_final = pending_guards.is_empty()
        && operands.len() == 1
        && matches!(operands[0].source, OperandRef::Buffer(_))
        && {
            let key = &operands[0].indices;
            key.len() == out_exprs.len() && {
                let mut remaining: Vec<ExprId> = out_exprs.clone();
                key.iter().all(|e| {
                    if let Some(pos) = remaining.iter().position(|o| o == e) {
                        remaining.remove(pos);
                        true
                    } else {
                        false
                    }
                })
            }
        };

    let (final_loops_key, output_perm) = if identity_final {
        // Map output dim d to the buffer axis holding its atom.
        let key = operands[0].indices.clone();
        let perm: Vec<usize> = out_exprs
            .iter()
            .map(|e| key.iter().position(|k| k == e).expect("matched above"))
            .collect();
        (None, perm)
    } else {
        (Some(out_exprs.clone()), (0..out_exprs.len()).collect())
    };

    if let Some(key) = final_loops_key {
        let mut loops = Vec::new();
        for (&a, &e) in output_atoms.iter().zip(&key) {
            let extent = eval(&arena, e)?;
            loops.push(LoopDef { atom: a, extent });
        }
        stages.push(Stage {
            loops,
            reduce: Vec::new(),
            operands,
            guards: pending_guards,
            output_key: key,
        });
    }

    Ok(Kernel {
        arena,
        vars,
        valuation,
        input_shape,
        weight_shapes,
        output_shape,
        stages,
        output_perm,
    })
}

/// Builds one reduction stage over `group`, returning the stage and the
/// operand later stages use to read its buffer.
fn build_stage(
    arena: &mut ExprArena,
    vars: &std::sync::Arc<syno_core::var::VarTable>,
    valuation: usize,
    consumed: Vec<Operand>,
    guards: Vec<ExprId>,
    group: &[AtomId],
) -> Result<(Stage, Operand), LowerError> {
    let group_set: HashSet<AtomId> = group.iter().copied().collect();
    // Collect cuts across all consumed index expressions (guards included:
    // their group-independent subtrees must become stage axes too, so the
    // buffer is materialized per guard-relevant value).
    let mut cuts: Vec<ExprId> = Vec::new();
    for op in &consumed {
        for &e in &op.indices {
            cuts_of(arena, e, &group_set, &mut cuts);
        }
    }
    for &e in &guards {
        cuts_of(arena, e, &group_set, &mut cuts);
    }
    // Fresh atoms substitute for the cuts inside this stage.
    let mut subst: HashMap<ExprId, ExprId> = HashMap::new();
    let mut loops = Vec::new();
    for &cut in &cuts {
        let extent = arena
            .domain(cut)
            .eval(vars, valuation)
            .ok_or(LowerError::BadValuation)?;
        let fresh = arena.atom(AtomKind::Output, arena.domain(cut).clone());
        let fresh_expr = arena.expr_atom(fresh);
        subst.insert(cut, fresh_expr);
        loops.push(LoopDef {
            atom: fresh,
            extent,
        });
    }
    let mut reduce = Vec::new();
    for &a in group {
        let extent = arena
            .atom_info(a)
            .domain
            .eval(vars, valuation)
            .ok_or(LowerError::BadValuation)?;
        reduce.push(LoopDef { atom: a, extent });
    }
    let operands: Vec<Operand> = consumed
        .into_iter()
        .map(|op| {
            let indices = op
                .indices
                .iter()
                .map(|&e| substitute(arena, e, &subst))
                .collect();
            Operand {
                source: op.source,
                indices,
            }
        })
        .collect();
    let guards = guards
        .into_iter()
        .map(|e| substitute(arena, e, &subst))
        .collect();
    let stage = Stage {
        loops,
        reduce,
        operands,
        guards,
        output_key: cuts.clone(),
    };
    Ok((
        stage,
        Operand {
            // Patched by the caller to the just-pushed stage's buffer id.
            source: OperandRef::Buffer(0),
            indices: cuts,
        },
    ))
}

/// Lowers `graph` as a single fused loop nest (no materialization).
///
/// # Errors
///
/// Returns [`LowerError::Incomplete`] for incomplete graphs and
/// [`LowerError::BadValuation`] when sizes fail to evaluate.
pub fn lower_naive(graph: &PGraph, valuation: usize) -> Result<Kernel, LowerError> {
    let reduce_atoms = graph.reduce_atoms().to_vec();
    let plan: Plan = if reduce_atoms.is_empty() {
        vec![]
    } else {
        vec![reduce_atoms]
    };
    lower_with_plan(graph, valuation, &plan)
}

/// Lowers `graph`, choosing the materialization plan with minimum FLOPs —
/// the §8 materialized-reduction optimization.
///
/// # Errors
///
/// Returns [`LowerError::Incomplete`] for incomplete graphs and
/// [`LowerError::BadValuation`] when sizes fail to evaluate.
pub fn lower_optimized(graph: &PGraph, valuation: usize) -> Result<Kernel, LowerError> {
    let reduce_atoms = graph.reduce_atoms().to_vec();
    let mut best: Option<Kernel> = None;
    for plan in ordered_partitions(&reduce_atoms, 4) {
        let kernel = lower_with_plan(graph, valuation, &plan)?;
        match &best {
            Some(b) if b.flops() <= kernel.flops() => {}
            _ => best = Some(kernel),
        }
    }
    best.ok_or(LowerError::Incomplete)
}
