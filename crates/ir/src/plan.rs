//! Stride-compiled execution of lowered kernels.
//!
//! The reference interpreter in [`crate::kernel`] re-walks each operand's
//! [`ExprArena`] index-expression tree for **every element** of every stage
//! — a recursive descent with a symbolic [`Size`](syno_core::size::Size)
//! evaluation at each node. This module compiles each [`Stage`] once into a
//! flat program:
//!
//! * every expression node becomes one instruction over an `i64` register
//!   file, with all symbolic sizes evaluated to constants at compile time;
//! * every instruction carries a *level* — one past the deepest loop
//!   (spatial then reduction, in interpreter order) it depends on — and the
//!   instruction list is sorted by level, so when loop `d` ticks only the
//!   suffix `first_at_level[d + 1]..` is re-evaluated (the "incremental per
//!   loop level" evaluation);
//! * `Unfold` clips become per-register poison flags that propagate through
//!   dependent instructions, exactly mirroring the `Option` threading of
//!   [`ExprArena::eval`];
//! * [`Stage::guards`] whose registers depend only on spatial loops are
//!   **hoisted**: they are checked once per output element, skipping the
//!   entire reduction nest (which would have contributed zero anyway).
//!
//! One further pass runs at compile (record) time, **innermost
//! specialization**: when every operand's index registers are affine in the
//! innermost loop counter and every relevant guard is invariant to it
//! (decided by a compile-time slope analysis), the innermost loop runs as a
//! tight constant-stride loop: bounds are checked once at the run's
//! endpoints and the register file is bypassed entirely. Runs that straddle
//! a clip boundary fall back to the general per-iteration body, so order —
//! and therefore every bit — is preserved.
//!
//! Every stage is materialized and its buffer is read like the input or a
//! weight. Lowering emits one stage per reduction group, so none of its
//! stages is a pure view that another stage reads (`tests/properties.rs`
//! pins this): composing views into their reader would have nothing to save.
//!
//! Iteration order — and therefore FP summation order — is identical to the
//! reference interpreter, so compiled and interpreted execution are
//! **bit-identical**; the differential test suite pins this. A stage whose
//! expressions cannot be compiled (an atom outside the stage's loops, which
//! a well-formed lowering never produces) falls back to the reference
//! interpreter for the whole kernel.

use crate::kernel::{Kernel, OperandRef, Stage};
use syno_core::expr::{ExprArena, ExprId, ExprNode};
use syno_tensor::Tensor;

use std::collections::HashMap;

/// One compiled expression node. `dst`/`src` index the stage's register
/// file; all block/stride/window sizes are pre-evaluated constants.
#[derive(Clone, Copy, Debug)]
enum Instr {
    /// `r[dst] = block * r[lhs] + r[rhs]`.
    Affine { dst: usize, lhs: usize, rhs: usize, block: i64 },
    /// `r[dst] = r[src].div_euclid(block)`.
    Div { dst: usize, src: usize, block: i64 },
    /// `r[dst] = r[src].rem_euclid(block)`.
    Mod { dst: usize, src: usize, block: i64 },
    /// `r[dst] = (r[src] + 1).rem_euclid(modulus)`.
    Shift { dst: usize, src: usize, modulus: i64 },
    /// `r[dst] = factor * r[src]`.
    Mul { dst: usize, src: usize, factor: i64 },
    /// `r[dst] = r[base] + r[window] - half`, poisoned outside `[0, extent)`.
    Unfold {
        dst: usize,
        base: usize,
        window: usize,
        half: i64,
        extent: i64,
    },
    /// A size failed to evaluate at compile time: the register is always
    /// poisoned (the reference interpreter's per-element `None`).
    Poison { dst: usize },
}

/// One axis of one operand: which register indexes it, the axis extent to
/// bounds-check against, and the row-major stride to scale by.
#[derive(Clone, Copy, Debug)]
struct AxisRef {
    reg: usize,
    dim: i64,
    stride: usize,
}

/// A compiled operand: its data source plus per-axis access program.
#[derive(Clone, Debug)]
struct OperandAccess {
    source: OperandRef,
    axes: Vec<AxisRef>,
}

/// The compiled program for one [`Stage`].
#[derive(Clone, Debug)]
struct StageProgram {
    /// Spatial extents (the stage buffer shape).
    spatial_dims: Vec<usize>,
    /// Reduction extents.
    reduce_dims: Vec<usize>,
    /// Register count; registers `0..n_loops` are the loop counters
    /// (spatial then reduction, interpreter order).
    n_regs: usize,
    /// Instructions sorted ascending by level.
    instrs: Vec<Instr>,
    /// `first_at_level[d]`: index of the first instruction at level ≥ `d`.
    /// Levels run `0..=n_loops`; level `d` means "depends on loop `d − 1`".
    first_at_level: Vec<usize>,
    /// Compiled operand accesses.
    operands: Vec<OperandAccess>,
    /// Guard registers depending only on spatial loops — checked once per
    /// output element, skipping the whole reduction nest (the hoist).
    spatial_guards: Vec<usize>,
    /// Guard registers that bind reduction loops — checked per reduction
    /// point, as the interpreter does.
    reduce_guards: Vec<usize>,
    /// Innermost-loop specialization, when the slope analysis admits one.
    spec: Option<SpecInfo>,
}

/// Per-operand data for the innermost tight loop.
#[derive(Clone, Debug)]
struct OpSpec {
    /// Flat-offset advance per innermost tick: Σ axis-slope × stride.
    step: i64,
    /// d(axis register)/d(innermost counter), one per operand axis — used
    /// for the endpoint bounds check.
    axis_slopes: Vec<i64>,
}

/// An `Unfold` whose value moves with the innermost counter: its clip (and
/// thus every poison flag downstream of it) is only run-invariant when the
/// value stays inside `[0, extent)` across the whole run — checked at the
/// endpoints before any other classification.
#[derive(Clone, Copy, Debug)]
struct UnfoldCheck {
    reg: usize,
    extent: i64,
    slope: i64,
}

/// Compile-time proof that the innermost loop is dense affine: every
/// operand axis register moves linearly with the innermost counter and all
/// relevant guards' poison flags are invariant to it (conditional on the
/// unfold endpoint checks passing).
#[derive(Clone, Debug)]
struct SpecInfo {
    ops: Vec<OpSpec>,
    unfold_checks: Vec<UnfoldCheck>,
}

/// How one innermost run executes, decided per run at its `t = 0` state.
enum RunKind {
    /// Every term is clipped (or guarded out): the run contributes nothing.
    Skip,
    /// All bounds hold across the whole run: tight constant-stride loop.
    Tight,
    /// Mixed (a clip boundary crosses the run): fall back to the general
    /// per-iteration body for this run only.
    PerIter,
}

/// A kernel compiled for repeated execution.
///
/// Built by [`Kernel::compile`]; execution is bit-identical to
/// [`Kernel::execute_reference`].
#[derive(Clone, Debug)]
pub struct CompiledKernel<'k> {
    kernel: &'k Kernel,
    /// `None` when some stage could not be compiled — execution falls back
    /// to the reference interpreter.
    stages: Option<Vec<StageProgram>>,
}

struct StageCompiler<'a> {
    arena: &'a ExprArena,
    kernel: &'a Kernel,
    /// Atom index → loop register, for atoms bound by this stage's loops.
    atom_reg: HashMap<usize, usize>,
    /// Memoized expression registers (expressions are hash-consed, so one
    /// register per distinct subexpression per stage).
    expr_reg: HashMap<ExprId, usize>,
    /// Level per register (`0` = loop-invariant).
    reg_level: Vec<usize>,
    /// Emitted instructions with their levels, in postorder.
    emitted: Vec<(usize, Instr)>,
    n_loops: usize,
}

impl<'a> StageCompiler<'a> {
    fn new(kernel: &'a Kernel, stage: &Stage) -> Self {
        let mut atom_reg = HashMap::new();
        let n_loops = stage.loops.len() + stage.reduce.len();
        for (j, l) in stage.loops.iter().chain(&stage.reduce).enumerate() {
            atom_reg.insert(l.atom.index(), j);
        }
        StageCompiler {
            arena: &kernel.arena,
            kernel,
            atom_reg,
            expr_reg: HashMap::new(),
            // Loop-counter registers: register j is loop j, level j + 1.
            reg_level: (1..=n_loops).collect(),
            emitted: Vec::new(),
            n_loops,
        }
    }

    fn eval_size(&self, size: &syno_core::size::Size) -> Option<i64> {
        size.eval(&self.kernel.vars, self.kernel.valuation)
            .map(|v| v as i64)
    }

    fn fresh(&mut self, level: usize) -> usize {
        self.reg_level.push(level);
        self.reg_level.len() - 1
    }

    /// Compiles `expr`, returning its register, or `None` when the
    /// expression references an atom outside the stage's loops (fallback).
    fn compile_expr(&mut self, expr: ExprId) -> Option<usize> {
        if let Some(&reg) = self.expr_reg.get(&expr) {
            return Some(reg);
        }
        let reg = match *self.arena.node(expr) {
            ExprNode::Atom(a) => *self.atom_reg.get(&a.index())?,
            ExprNode::Affine { lhs, rhs, ref block } => {
                let block = block.clone();
                let l = self.compile_expr(lhs)?;
                let r = self.compile_expr(rhs)?;
                let level = self.reg_level[l].max(self.reg_level[r]);
                let dst = self.fresh(level);
                match self.eval_size(&block) {
                    Some(b) => self.emitted.push((
                        level,
                        Instr::Affine {
                            dst,
                            lhs: l,
                            rhs: r,
                            block: b,
                        },
                    )),
                    None => self.emitted.push((0, Instr::Poison { dst })),
                }
                dst
            }
            ExprNode::Div { inner, ref block } => {
                let block = block.clone();
                self.unary(inner, &block, |dst, src, b| Instr::Div { dst, src, block: b })?
            }
            ExprNode::Mod { inner, ref block } => {
                let block = block.clone();
                self.unary(inner, &block, |dst, src, b| Instr::Mod { dst, src, block: b })?
            }
            ExprNode::Shift { inner, ref domain } => {
                let domain = domain.clone();
                self.unary(inner, &domain, |dst, src, m| Instr::Shift {
                    dst,
                    src,
                    modulus: m,
                })?
            }
            ExprNode::Stride { inner, ref stride } => {
                let stride = stride.clone();
                self.unary(inner, &stride, |dst, src, f| Instr::Mul {
                    dst,
                    src,
                    factor: f,
                })?
            }
            ExprNode::Unfold {
                base,
                window,
                ref window_size,
            } => {
                let window_size = window_size.clone();
                let extent = self.arena.domain(base).clone();
                let b = self.compile_expr(base)?;
                let w = self.compile_expr(window)?;
                let level = self.reg_level[b].max(self.reg_level[w]);
                let dst = self.fresh(level);
                match (self.eval_size(&window_size), self.eval_size(&extent)) {
                    (Some(k), Some(n)) => self.emitted.push((
                        level,
                        Instr::Unfold {
                            dst,
                            base: b,
                            window: w,
                            half: k / 2,
                            extent: n,
                        },
                    )),
                    _ => self.emitted.push((0, Instr::Poison { dst })),
                }
                dst
            }
        };
        self.expr_reg.insert(expr, reg);
        Some(reg)
    }

    /// Emits a single-child instruction whose constant is `size`.
    fn unary(
        &mut self,
        inner: ExprId,
        size: &syno_core::size::Size,
        build: impl FnOnce(usize, usize, i64) -> Instr,
    ) -> Option<usize> {
        let src = self.compile_expr(inner)?;
        let level = self.reg_level[src];
        let dst = self.fresh(level);
        match self.eval_size(size) {
            Some(v) => self.emitted.push((level, build(dst, src, v))),
            None => self.emitted.push((0, Instr::Poison { dst })),
        }
        Some(dst)
    }

    /// Concrete shape of an operand source.
    fn operand_dims(&self, source: OperandRef) -> Vec<usize> {
        match source {
            OperandRef::Input => self.kernel.input_shape.clone(),
            OperandRef::Weight(w) => self.kernel.weight_shapes[w].clone(),
            OperandRef::Buffer(b) => self.kernel.stages[b].shape(),
        }
    }

    /// Compiles one operand access.
    fn compile_operand(&mut self, op: &crate::kernel::Operand) -> Option<OperandAccess> {
        let regs: Vec<usize> = op
            .indices
            .iter()
            .map(|&e| self.compile_expr(e))
            .collect::<Option<_>>()?;
        let dims = self.operand_dims(op.source);
        let strides = Tensor::strides_of(&dims);
        let axes = regs
            .iter()
            .zip(dims.iter().zip(&strides))
            .map(|(&reg, (&dim, &stride))| AxisRef {
                reg,
                dim: dim as i64,
                stride,
            })
            .collect();
        Some(OperandAccess {
            source: op.source,
            axes,
        })
    }

    fn finish(self, stage: &Stage, operands: Vec<OperandAccess>, guards: Vec<usize>) -> StageProgram {
        let mut emitted = self.emitted;
        // Stable by level: children precede parents within a level because
        // they were emitted first (postorder), and levels never decrease
        // from child to parent.
        emitted.sort_by_key(|&(level, _)| level);
        let mut first_at_level = vec![emitted.len(); self.n_loops + 2];
        for (i, &(level, _)) in emitted.iter().enumerate().rev() {
            for slot in first_at_level.iter_mut().take(level + 1) {
                *slot = i;
            }
        }
        let m = stage.loops.len();
        let (spatial_guards, reduce_guards) = guards
            .into_iter()
            .partition(|&reg| self.reg_level[reg] <= m);
        let mut program = StageProgram {
            spatial_dims: stage.loops.iter().map(|l| l.extent as usize).collect(),
            reduce_dims: stage.reduce.iter().map(|l| l.extent as usize).collect(),
            n_regs: self.reg_level.len(),
            instrs: emitted.into_iter().map(|(_, i)| i).collect(),
            first_at_level,
            operands,
            spatial_guards,
            reduce_guards,
            spec: None,
        };
        program.spec = analyze_spec(&program);
        program
    }
}

/// Compile-time slope analysis: per register, `Some(s)` when its value is
/// affine in the innermost loop counter with slope `s` (`None` = non-affine)
/// plus whether its *poison flag* is invariant to that counter.
fn analyze_spec(p: &StageProgram) -> Option<SpecInfo> {
    let m = p.spatial_dims.len();
    let k = p.reduce_dims.len();
    let n_loops = m + k;
    if n_loops == 0 {
        return None;
    }
    let inner = n_loops - 1;
    let mut slope: Vec<Option<i64>> = vec![Some(0); p.n_regs];
    // `stable[r]`: the poison flag of `r` is run-invariant, *conditional on*
    // every collected unfold endpoint check passing.
    let mut stable = vec![true; p.n_regs];
    let mut unfold_checks = Vec::new();
    for (j, s) in slope.iter_mut().enumerate().take(n_loops) {
        *s = Some(i64::from(j == inner));
    }
    // Instructions are in dependency order (children precede parents).
    for instr in &p.instrs {
        match *instr {
            Instr::Affine { dst, lhs, rhs, block } => {
                slope[dst] = match (slope[lhs], slope[rhs]) {
                    (Some(a), Some(b)) => Some(block * a + b),
                    _ => None,
                };
                stable[dst] = stable[lhs] && stable[rhs];
            }
            Instr::Div { dst, src, .. } | Instr::Mod { dst, src, .. } | Instr::Shift { dst, src, .. } => {
                slope[dst] = (slope[src] == Some(0)).then_some(0);
                stable[dst] = stable[src];
            }
            Instr::Mul { dst, src, factor } => {
                slope[dst] = slope[src].map(|s| factor * s);
                stable[dst] = stable[src];
            }
            Instr::Unfold { dst, base, window, extent, .. } => {
                slope[dst] = match (slope[base], slope[window]) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
                stable[dst] = stable[base] && stable[window] && slope[dst].is_some();
                // A moving clip window stays run-invariant only while the
                // value holds inside [0, extent) — endpoint-checked per run.
                if stable[dst] {
                    if let Some(s) = slope[dst] {
                        if s != 0 {
                            unfold_checks.push(UnfoldCheck {
                                reg: dst,
                                extent,
                                slope: s,
                            });
                        }
                    }
                }
            }
            Instr::Poison { dst } => {
                slope[dst] = Some(0);
                stable[dst] = true; // constantly poisoned
            }
        }
    }
    // Guards evaluated inside the innermost loop only contribute their
    // poison flag, which must be run-invariant (given the checks).
    let hot_guards = if k > 0 { &p.reduce_guards } else { &p.spatial_guards };
    if !hot_guards.iter().all(|&g| stable[g]) {
        return None;
    }
    let mut ops = Vec::with_capacity(p.operands.len());
    for op in &p.operands {
        let mut step = 0i64;
        let mut axis_slopes = Vec::with_capacity(op.axes.len());
        for ax in &op.axes {
            let s = slope[ax.reg]?;
            if !stable[ax.reg] {
                return None;
            }
            axis_slopes.push(s);
            step += s * ax.stride as i64;
        }
        ops.push(OpSpec { step, axis_slopes });
    }
    Some(SpecInfo { ops, unfold_checks })
}

/// Compiles one stage; `None` requests interpreter fallback.
fn compile_stage(kernel: &Kernel, stage: &Stage) -> Option<StageProgram> {
    let mut c = StageCompiler::new(kernel, stage);
    let operands = stage
        .operands
        .iter()
        .map(|op| c.compile_operand(op))
        .collect::<Option<_>>()?;
    let guards = stage
        .guards
        .iter()
        .map(|&g| c.compile_expr(g))
        .collect::<Option<_>>()?;
    Some(c.finish(stage, operands, guards))
}

/// Advances a little-endian-last odometer; returns the outermost changed
/// dim (everything deeper was reset to zero).
fn advance(idx: &mut [usize], dims: &[usize]) -> usize {
    for d in (0..idx.len()).rev() {
        idx[d] += 1;
        if idx[d] < dims[d] {
            return d;
        }
        idx[d] = 0;
    }
    0
}

impl StageProgram {
    /// Re-evaluates instructions from `from` (a `first_at_level` entry).
    fn run_instrs(&self, from: usize, regs: &mut [i64], poison: &mut [bool]) {
        for instr in &self.instrs[from..] {
            match *instr {
                Instr::Affine { dst, lhs, rhs, block } => {
                    regs[dst] = block * regs[lhs] + regs[rhs];
                    poison[dst] = poison[lhs] || poison[rhs];
                }
                Instr::Div { dst, src, block } => {
                    regs[dst] = regs[src].div_euclid(block);
                    poison[dst] = poison[src];
                }
                Instr::Mod { dst, src, block } => {
                    regs[dst] = regs[src].rem_euclid(block);
                    poison[dst] = poison[src];
                }
                Instr::Shift { dst, src, modulus } => {
                    regs[dst] = (regs[src] + 1).rem_euclid(modulus);
                    poison[dst] = poison[src];
                }
                Instr::Mul { dst, src, factor } => {
                    regs[dst] = factor * regs[src];
                    poison[dst] = poison[src];
                }
                Instr::Unfold {
                    dst,
                    base,
                    window,
                    half,
                    extent,
                } => {
                    let v = regs[base] + regs[window] - half;
                    regs[dst] = v;
                    poison[dst] = poison[base] || poison[window] || v < 0 || v >= extent;
                }
                Instr::Poison { dst } => poison[dst] = true,
            }
        }
    }

    /// One reduction term at the current register state: the product of all
    /// operand reads; an index that is poisoned or out of range clips (skips)
    /// the whole term.
    #[inline]
    fn accumulate_term(&self, sources: &[&[f32]], regs: &[i64], poison: &[bool], acc: &mut f32) {
        let mut product = 1.0f32;
        for (op, data) in self.operands.iter().zip(sources) {
            let mut off = 0usize;
            for ax in &op.axes {
                let v = regs[ax.reg];
                if poison[ax.reg] || v < 0 || v >= ax.dim {
                    return;
                }
                off += v as usize * ax.stride;
            }
            product *= data[off];
        }
        *acc += product;
    }

    /// Classifies one innermost run of `t_len` iterations at its `t = 0`
    /// register state, filling `offs` with per-operand (base offset, step)
    /// when the run is tight. `hot_guards` are the guards evaluated inside
    /// the innermost loop (reduce guards, or spatial guards for pure maps).
    fn classify_run(
        &self,
        spec: &SpecInfo,
        hot_guards: &[usize],
        regs: &[i64],
        poison: &[bool],
        t_len: i64,
        offs: &mut Vec<(i64, i64)>,
    ) -> RunKind {
        // Moving unfold clips first: while an unfold value stays inside its
        // window, every poison flag is run-invariant and the `t = 0` flags
        // below can be trusted; once it crosses the boundary mid-run, only
        // the general per-iteration body is faithful.
        for c in &spec.unfold_checks {
            let v0 = regs[c.reg];
            let v_last = v0 + c.slope * (t_len - 1);
            if v0 < 0 || v0 >= c.extent || v_last < 0 || v_last >= c.extent {
                return RunKind::PerIter;
            }
        }
        if hot_guards.iter().any(|&g| poison[g]) {
            return RunKind::Skip;
        }
        offs.clear();
        let mut per_iter = false;
        let in_run = |reg: usize, s: i64, dim: i64| {
            let v0 = regs[reg];
            let v_last = v0 + s * (t_len - 1);
            v0 >= 0 && v0 < dim && v_last >= 0 && v_last < dim
        };
        for (op, os) in self.operands.iter().zip(&spec.ops) {
            let mut off = 0i64;
            for (ax, &s) in op.axes.iter().zip(&os.axis_slopes) {
                if poison[ax.reg] {
                    // A clip invariant over the run.
                    return RunKind::Skip;
                }
                if !in_run(ax.reg, s, ax.dim) {
                    // A clip boundary crosses the run.
                    per_iter = true;
                    continue;
                }
                off += regs[ax.reg] * ax.stride as i64;
            }
            offs.push((off, os.step));
        }
        if per_iter {
            RunKind::PerIter
        } else {
            RunKind::Tight
        }
    }

    /// The tight innermost loop: accumulates `t_len` terms whose operand
    /// offsets advance by a constant stride. `1.0 * x` and `x * y` match the
    /// general body's product fold bit-for-bit.
    #[inline]
    fn tight_reduce(&self, sources: &[&[f32]], offs: &[(i64, i64)], t_len: i64, acc: &mut f32) {
        match offs {
            [(o0, s0)] => {
                let d0 = sources[0];
                for t in 0..t_len {
                    *acc += d0[(o0 + t * s0) as usize];
                }
            }
            [(o0, s0), (o1, s1)] => {
                let (d0, d1) = (sources[0], sources[1]);
                for t in 0..t_len {
                    *acc += d0[(o0 + t * s0) as usize] * d1[(o1 + t * s1) as usize];
                }
            }
            _ => {
                for t in 0..t_len {
                    let mut product = 1.0f32;
                    for ((o, s), data) in offs.iter().zip(sources) {
                        product *= data[(o + t * s) as usize];
                    }
                    *acc += product;
                }
            }
        }
    }

    /// General per-iteration body for one innermost run (spec fallback for
    /// runs that straddle a clip boundary). Restores the `t = 0` register
    /// state on exit so subsequent runs see a consistent file.
    fn per_iter_run(
        &self,
        regs: &mut [i64],
        poison: &mut [bool],
        inner_reg: usize,
        inner_level: usize,
        t_len: i64,
        mut body: impl FnMut(&Self, &[i64], &[bool]),
    ) {
        for t in 0..t_len {
            if t > 0 {
                regs[inner_reg] = t;
                self.run_instrs(self.first_at_level[inner_level], regs, poison);
            }
            body(self, regs, poison);
        }
        if t_len > 1 {
            regs[inner_reg] = 0;
            self.run_instrs(self.first_at_level[inner_level], regs, poison);
        }
    }

    /// Executes the stage into `out` (zeroed, of the stage's spatial size).
    fn execute(
        &self,
        out: &mut [f32],
        input: &Tensor,
        weights: &[Tensor],
        buffers: &[Tensor],
    ) {
        let data_of = |source: OperandRef| -> &[f32] {
            match source {
                OperandRef::Input => input.data(),
                OperandRef::Weight(w) => weights[w].data(),
                OperandRef::Buffer(b) => buffers[b].data(),
            }
        };
        let sources: Vec<&[f32]> = self.operands.iter().map(|op| data_of(op.source)).collect();
        match &self.spec {
            Some(spec) if self.reduce_dims.last().copied().unwrap_or(0) > 1 => {
                self.execute_spec_reduce(out, &sources, spec)
            }
            Some(spec)
                if self.reduce_dims.is_empty()
                    && self.spatial_dims.last().copied().unwrap_or(0) > 1 =>
            {
                self.execute_spec_map(out, &sources, spec)
            }
            _ => self.execute_general(out, &sources),
        }
    }

    /// The fully general interpreter-order loop nest (also the dispatch
    /// fallback when the innermost extent makes specialization pointless).
    fn execute_general(&self, out: &mut [f32], sources: &[&[f32]]) {
        let m = self.spatial_dims.len();
        let k = self.reduce_dims.len();
        let spatial_total: usize = self.spatial_dims.iter().product::<usize>().max(1);
        let reduce_total: usize = self.reduce_dims.iter().product::<usize>().max(1);

        let mut regs = vec![0i64; self.n_regs];
        let mut poison = vec![false; self.n_regs];
        let mut sidx = vec![0usize; m];
        let mut ridx = vec![0usize; k];
        // All loop counters start at zero; evaluate everything once.
        self.run_instrs(0, &mut regs, &mut poison);

        for (flat, slot) in out.iter_mut().enumerate().take(spatial_total) {
            if flat > 0 {
                let d = advance(&mut sidx, &self.spatial_dims);
                for (j, &v) in sidx.iter().enumerate().skip(d) {
                    regs[j] = v as i64;
                }
                // Reduction counters restart for this output element.
                for (j, r) in ridx.iter_mut().enumerate() {
                    *r = 0;
                    regs[m + j] = 0;
                }
                self.run_instrs(self.first_at_level[d + 1], &mut regs, &mut poison);
            }
            // Hoisted guards: a clipped spatial-only guard zeroes the whole
            // reduction (every term would have been skipped).
            if self.spatial_guards.iter().any(|&g| poison[g]) {
                *slot = 0.0;
                continue;
            }
            let mut acc = 0.0f32;
            for rflat in 0..reduce_total {
                if rflat > 0 {
                    let d = advance(&mut ridx, &self.reduce_dims);
                    for (j, &v) in ridx.iter().enumerate().skip(d) {
                        regs[m + j] = v as i64;
                    }
                    self.run_instrs(self.first_at_level[m + d + 1], &mut regs, &mut poison);
                }
                if self.reduce_guards.iter().any(|&g| poison[g]) {
                    continue;
                }
                self.accumulate_term(sources, &regs, &poison, &mut acc);
            }
            *slot = acc;
        }
    }

    /// Specialized nest for stages with a reduction: the innermost reduction
    /// loop runs tight when its run is clean. Bit-identical to
    /// [`StageProgram::execute_general`] by construction.
    fn execute_spec_reduce(&self, out: &mut [f32], sources: &[&[f32]], spec: &SpecInfo) {
        let m = self.spatial_dims.len();
        let k = self.reduce_dims.len();
        let spatial_total: usize = self.spatial_dims.iter().product::<usize>().max(1);
        let outer_dims = &self.reduce_dims[..k - 1];
        let outer_total: usize = outer_dims.iter().product::<usize>().max(1);
        let t_len = self.reduce_dims[k - 1] as i64;
        let inner_reg = m + k - 1;
        let inner_level = m + k;

        let mut regs = vec![0i64; self.n_regs];
        let mut poison = vec![false; self.n_regs];
        let mut sidx = vec![0usize; m];
        let mut ridx = vec![0usize; k - 1];
        let mut offs: Vec<(i64, i64)> = Vec::with_capacity(self.operands.len());
        self.run_instrs(0, &mut regs, &mut poison);

        for (flat, slot) in out.iter_mut().enumerate().take(spatial_total) {
            if flat > 0 {
                let d = advance(&mut sidx, &self.spatial_dims);
                for (j, &v) in sidx.iter().enumerate().skip(d) {
                    regs[j] = v as i64;
                }
                for (j, r) in ridx.iter_mut().enumerate() {
                    *r = 0;
                    regs[m + j] = 0;
                }
                regs[inner_reg] = 0;
                self.run_instrs(self.first_at_level[d + 1], &mut regs, &mut poison);
            }
            if self.spatial_guards.iter().any(|&g| poison[g]) {
                *slot = 0.0;
                continue;
            }
            let mut acc = 0.0f32;
            for orflat in 0..outer_total {
                if orflat > 0 {
                    let d = advance(&mut ridx, outer_dims);
                    for (j, &v) in ridx.iter().enumerate().skip(d) {
                        regs[m + j] = v as i64;
                    }
                    // The innermost counter is pinned at 0 between runs.
                    self.run_instrs(self.first_at_level[m + d + 1], &mut regs, &mut poison);
                }
                match self.classify_run(spec, &self.reduce_guards, &regs, &poison, t_len, &mut offs)
                {
                    RunKind::Skip => {}
                    RunKind::Tight => self.tight_reduce(sources, &offs, t_len, &mut acc),
                    RunKind::PerIter => self.per_iter_run(
                        &mut regs,
                        &mut poison,
                        inner_reg,
                        inner_level,
                        t_len,
                        |p, regs, poison| {
                            if !p.reduce_guards.iter().any(|&g| poison[g]) {
                                p.accumulate_term(sources, regs, poison, &mut acc);
                            }
                        },
                    ),
                }
            }
            *slot = acc;
        }
    }

    /// Specialized nest for pure-map stages (no reduction): the innermost
    /// spatial loop writes a contiguous run of output slots.
    fn execute_spec_map(&self, out: &mut [f32], sources: &[&[f32]], spec: &SpecInfo) {
        let m = self.spatial_dims.len();
        let outer_dims = &self.spatial_dims[..m - 1];
        let outer_total: usize = outer_dims.iter().product::<usize>().max(1);
        let t_len = self.spatial_dims[m - 1] as i64;
        let inner_reg = m - 1;
        let inner_level = m;

        let mut regs = vec![0i64; self.n_regs];
        let mut poison = vec![false; self.n_regs];
        let mut sidx = vec![0usize; m - 1];
        let mut offs: Vec<(i64, i64)> = Vec::with_capacity(self.operands.len());
        self.run_instrs(0, &mut regs, &mut poison);

        for (run, chunk) in out.chunks_exact_mut(t_len as usize).enumerate().take(outer_total) {
            if run > 0 {
                let d = advance(&mut sidx, outer_dims);
                for (j, &v) in sidx.iter().enumerate().skip(d) {
                    regs[j] = v as i64;
                }
                regs[inner_reg] = 0;
                self.run_instrs(self.first_at_level[d + 1], &mut regs, &mut poison);
            }
            match self.classify_run(spec, &self.spatial_guards, &regs, &poison, t_len, &mut offs) {
                RunKind::Skip => chunk.fill(0.0),
                RunKind::Tight => match offs.as_slice() {
                    [(o0, s0)] => {
                        let d0 = sources[0];
                        for (t, slot) in chunk.iter_mut().enumerate() {
                            *slot = 0.0 + d0[(o0 + t as i64 * s0) as usize];
                        }
                    }
                    _ => {
                        for (t, slot) in chunk.iter_mut().enumerate() {
                            let mut product = 1.0f32;
                            for ((o, s), data) in offs.iter().zip(sources) {
                                product *= data[(o + t as i64 * s) as usize];
                            }
                            *slot = 0.0 + product;
                        }
                    }
                },
                RunKind::PerIter => {
                    let mut t = 0usize;
                    self.per_iter_run(
                        &mut regs,
                        &mut poison,
                        inner_reg,
                        inner_level,
                        t_len,
                        |p, regs, poison| {
                            let mut acc = 0.0f32;
                            if !p.spatial_guards.iter().any(|&g| poison[g]) {
                                p.accumulate_term(sources, regs, poison, &mut acc);
                            }
                            chunk[t] = acc;
                            t += 1;
                        },
                    );
                }
            }
        }
    }
}

impl<'k> CompiledKernel<'k> {
    /// Compiles `kernel`, falling back to the reference interpreter when a
    /// stage is not compilable.
    pub fn new(kernel: &'k Kernel) -> Self {
        let stages = kernel
            .stages
            .iter()
            .map(|stage| compile_stage(kernel, stage))
            .collect();
        CompiledKernel { kernel, stages }
    }

    /// `true` when every stage runs the stride-compiled fast path.
    pub fn is_compiled(&self) -> bool {
        self.stages.is_some()
    }

    /// Always 0: every stage is materialized. Kept only because
    /// `benchmark/src/layers.rs` reads it for `ir.plan.fused_stage_frac`;
    /// the two retire together (ROADMAP, Collapse (a)).
    #[doc(hidden)]
    pub fn fused_stages(&self) -> usize {
        0
    }

    /// Number of stages whose innermost loop compiled to the tight
    /// constant-stride form.
    pub fn specialized_stages(&self) -> usize {
        let Some(stages) = &self.stages else { return 0 };
        stages.iter().filter(|p| p.spec.is_some()).count()
    }

    /// Executes the kernel; bit-identical to
    /// [`Kernel::execute_reference`].
    ///
    /// # Panics
    ///
    /// Panics when tensor shapes disagree with the kernel's declared shapes.
    pub fn execute(&self, input: &Tensor, weights: &[Tensor]) -> Tensor {
        let Some(stages) = &self.stages else {
            return self.kernel.execute_reference(input, weights);
        };
        let kernel = self.kernel;
        assert_eq!(input.shape(), &kernel.input_shape[..], "input shape");
        assert_eq!(weights.len(), kernel.weight_shapes.len(), "weight count");
        for (w, s) in weights.iter().zip(&kernel.weight_shapes) {
            assert_eq!(w.shape(), &s[..], "weight shape");
        }

        let mut buffers: Vec<Tensor> = Vec::with_capacity(stages.len());
        for (program, stage) in stages.iter().zip(&kernel.stages) {
            let mut out = Tensor::zeros(&stage.shape());
            program.execute(out.data_mut(), input, weights, &buffers);
            buffers.push(out);
        }
        let last = buffers.pop().expect("at least one stage");
        syno_tensor::ops::permute(&last, &kernel.output_perm)
    }
}
