//! The loop-nest kernel IR (the paper's TVM-TE lowering target, §8).
//!
//! A [`Kernel`] is a sequence of [`Stage`]s; each stage is a perfect loop
//! nest
//!
//! ```text
//! for (spatial loops)            // one per output dimension
//!   for (reduction loops)        // summed
//!     out[spatial] += Π operand[index exprs]
//! ```
//!
//! where index expressions live in a (kernel-owned) coordinate-expression
//! arena: the same [`ExprArena`] machinery the synthesis core uses, so the
//! out-of-bounds clipping semantics of `Unfold` carry over unchanged. The
//! *materialized reduction* optimization (§8, Fig. 4) shows up as multiple
//! stages: an early stage sums a sub-graph into an intermediate buffer that
//! later stages index by coarser expressions.

use syno_core::expr::{AtomId, ExprArena, ExprId};
use syno_core::var::VarTable;
use syno_tensor::Tensor;

use std::fmt;
use std::sync::Arc;

/// What a stage operand reads from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperandRef {
    /// The operator's data input tensor.
    Input,
    /// Weight tensor `w` of the operator.
    Weight(usize),
    /// The output buffer of an earlier stage.
    Buffer(usize),
}

/// One multiplicand in a stage body.
#[derive(Clone, Debug)]
pub struct Operand {
    /// The tensor being read.
    pub source: OperandRef,
    /// Index expression per dimension of the source.
    pub indices: Vec<ExprId>,
}

/// One loop of a stage.
#[derive(Clone, Debug)]
pub struct LoopDef {
    /// The iterator atom (in the kernel arena).
    pub atom: AtomId,
    /// Concrete extent.
    pub extent: u64,
}

/// One perfect loop nest writing one buffer.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Spatial loops — one per dimension of the stage's buffer.
    pub loops: Vec<LoopDef>,
    /// Reduction loops (summed).
    pub reduce: Vec<LoopDef>,
    /// Multiplicands.
    pub operands: Vec<Operand>,
    /// Clip predicates: expressions that must evaluate (an `Unfold` clip
    /// makes evaluation fail) for an iteration point to contribute. These
    /// arise from coordinates discarded by `Expand` — no operand reads them,
    /// but their zero-padding window still gates the sum.
    pub guards: Vec<ExprId>,
    /// Expressions (in the pre-substitution atom space) by which *later*
    /// stages index this buffer; parallel to `loops`.
    pub output_key: Vec<ExprId>,
}

impl Stage {
    /// Iteration count of the nest.
    pub fn iterations(&self) -> u128 {
        let spatial: u128 = self.loops.iter().map(|l| l.extent as u128).product();
        let red: u128 = self.reduce.iter().map(|l| l.extent as u128).product();
        spatial * red
    }

    /// FLOPs: one multiply per extra operand plus one accumulate, per
    /// iteration point (matches `syno_core::analysis::naive_flops` for
    /// single-stage kernels).
    pub fn flops(&self) -> u128 {
        self.iterations() * self.operands.len().max(1) as u128
    }

    /// Buffer shape.
    pub fn shape(&self) -> Vec<usize> {
        self.loops.iter().map(|l| l.extent as usize).collect()
    }
}

/// A lowered, concrete-shape kernel, run by the interpreter
/// [`Kernel::execute`]. No search or scoring path runs a kernel:
/// `syno-compiler` prices its stages without running them, and training
/// runs on the eager einsum tape.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel-owned expression arena (graph arena plus substitution atoms).
    pub arena: ExprArena,
    /// Variable table used to evaluate symbolic sizes.
    pub vars: Arc<VarTable>,
    /// Which valuation concretized the shapes.
    pub valuation: usize,
    /// Concrete input shape.
    pub input_shape: Vec<usize>,
    /// Concrete weight shapes.
    pub weight_shapes: Vec<Vec<usize>>,
    /// Concrete output shape.
    pub output_shape: Vec<usize>,
    /// Stages in execution order; the last one produces the output.
    pub stages: Vec<Stage>,
    /// Maps output dimension `d` to the last stage's loop index producing it.
    pub output_perm: Vec<usize>,
}

impl Kernel {
    /// Total FLOPs across stages — the §8 materialized-reduction objective.
    pub fn flops(&self) -> u128 {
        self.stages.iter().map(Stage::flops).sum()
    }

    /// Executes the kernel on concrete tensors: the one kernel executor, an
    /// interpreter that re-evaluates every index expression per element
    /// through [`ExprArena::eval`] and sums each output element's terms in
    /// loop order. The tests check it against [`crate::eager::execute`]
    /// under both lowerings and against closed-form answers.
    ///
    /// # Panics
    ///
    /// Panics when tensor shapes disagree with the kernel's declared shapes.
    pub fn execute(&self, input: &Tensor, weights: &[Tensor]) -> Tensor {
        assert_eq!(input.shape(), &self.input_shape[..], "input shape");
        assert_eq!(weights.len(), self.weight_shapes.len(), "weight count");
        for (w, s) in weights.iter().zip(&self.weight_shapes) {
            assert_eq!(w.shape(), &s[..], "weight shape");
        }

        let mut buffers: Vec<Tensor> = Vec::with_capacity(self.stages.len());
        let mut atom_values = vec![0i64; self.arena.atom_count()];
        for stage in &self.stages {
            let shape = stage.shape();
            let mut out = Tensor::zeros(&shape);
            let spatial_total: usize = shape.iter().product::<usize>().max(1);
            let reduce_dims: Vec<u64> = stage.reduce.iter().map(|l| l.extent).collect();
            let reduce_total: u64 = reduce_dims.iter().product::<u64>().max(1);
            // Each operand's data, dimensions and strides, read once a stage.
            let sources: Vec<(&[f32], &[usize], Vec<usize>)> = stage
                .operands
                .iter()
                .map(|op| {
                    let t = match op.source {
                        OperandRef::Input => input,
                        OperandRef::Weight(w) => &weights[w],
                        OperandRef::Buffer(b) => &buffers[b],
                    };
                    (t.data(), t.shape(), Tensor::strides_of(t.shape()))
                })
                .collect();

            for flat in 0..spatial_total {
                // Decode spatial index into atom values.
                let mut rem = flat;
                for (d, l) in stage.loops.iter().enumerate().rev() {
                    let extent = shape[d].max(1);
                    atom_values[l.atom.index()] = (rem % extent) as i64;
                    rem /= extent;
                }
                let mut acc = 0.0f32;
                for rflat in 0..reduce_total {
                    let mut rrem = rflat;
                    for (d, l) in stage.reduce.iter().enumerate().rev() {
                        let extent = reduce_dims[d].max(1);
                        atom_values[l.atom.index()] = (rrem % extent) as i64;
                        rrem /= extent;
                    }
                    let mut product = 1.0f32;
                    let mut clipped = stage.guards.iter().any(|&guard| {
                        self.arena
                            .eval(guard, &atom_values, &self.vars, self.valuation)
                            .is_none()
                    });
                    for (op, (data, dims, strides)) in stage.operands.iter().zip(&sources) {
                        if clipped {
                            break;
                        }
                        let mut off = 0usize;
                        for (expr, (&dim, &stride)) in
                            op.indices.iter().zip(dims.iter().zip(strides))
                        {
                            match self
                                .arena
                                .eval(*expr, &atom_values, &self.vars, self.valuation)
                            {
                                Some(v) if v >= 0 && (v as usize) < dim => {
                                    off += v as usize * stride;
                                }
                                _ => {
                                    clipped = true;
                                    break;
                                }
                            }
                        }
                        if clipped {
                            break;
                        }
                        product *= data[off];
                    }
                    if !clipped {
                        acc += product;
                    }
                }
                out.data_mut()[flat] = acc;
            }
            buffers.push(out);
        }

        // Permute the last buffer's axes into output-dimension order.
        let last = buffers.pop().expect("at least one stage");
        syno_tensor::ops::permute(&last, &self.output_perm)
    }

    /// Benchmark shim, retired with the `ir.plan.*` probes: no compile step.
    #[doc(hidden)]
    pub fn compile(&self) -> &Kernel {
        self
    }
    /// Benchmark shim, retired with the `ir.plan.*` probes: always `true`.
    #[doc(hidden)]
    pub fn is_compiled(&self) -> bool {
        true
    }
    /// Benchmark shim, retired with the `ir.plan.*` probes: fuses nothing.
    #[doc(hidden)]
    pub fn fused_stages(&self) -> usize {
        0
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel: input {:?} -> output {:?}, {} stage(s), {} flops",
            self.input_shape,
            self.output_shape,
            self.stages.len(),
            self.flops()
        )?;
        for (i, s) in self.stages.iter().enumerate() {
            writeln!(
                f,
                "  stage {i}: shape {:?}, reduce {:?}, {} operand(s)",
                s.shape(),
                s.reduce.iter().map(|l| l.extent).collect::<Vec<_>>(),
                s.operands.len()
            )?;
        }
        Ok(())
    }
}
