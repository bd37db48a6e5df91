//! Operator characterization: everything the cost model needs, extracted
//! from a lowered kernel and from the eager op chain.
//!
//! A [`OperatorProfile`] captures, per loop-nest stage, the FLOPs, ideal
//! memory traffic (each element touched once) and worst-case traffic (a miss
//! per access), plus whether the stage is *matmul-shaped* (contraction of
//! two operands — eligible for tensor-core templates). It also records the
//! eager op chain (one entry per PyTorch-style op the §8 eager generator
//! would emit), which is what the TorchInductor-style compiler charges when
//! it falls back to ATen kernels instead of generating native code.

use syno_core::graph::PGraph;
use syno_ir::eager;
use syno_ir::{lower_optimized, Kernel, LowerError};

/// Whether the operator is a stock library operator or a Syno discovery.
///
/// ATen ships hand-tuned kernels for stock operators; novel operators can
/// only run as compositions of primitive ops unless a compiler generates
/// native code (§9.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OperatorClass {
    /// Convolution / matmul / pooling with a dedicated library kernel.
    Standard,
    /// A synthesized operator with no library kernel.
    Novel,
}

/// Per-stage characterization.
#[derive(Clone, Debug)]
pub struct StageProfile {
    /// Multiply-accumulate FLOPs.
    pub flops: f64,
    /// Bytes if every element is touched exactly once.
    pub ideal_bytes: f64,
    /// Bytes if every access misses.
    pub worst_bytes: f64,
    /// Number of multiplicands.
    pub operands: usize,
    /// Largest spatial-loop extent (vectorization feasibility proxy).
    pub max_spatial_extent: u64,
    /// Total iteration count.
    pub iterations: f64,
    /// `true` for two-operand contractions with nontrivial reduction — the
    /// shape tensor-core templates accept.
    pub matmul_shaped: bool,
}

/// One eager-chain op (the ATen-fallback unit of §9.2).
#[derive(Clone, Debug)]
pub struct ChainOp {
    /// Bytes read plus written by this op.
    pub bytes: f64,
    /// FLOPs performed (nonzero only for einsums/reductions).
    pub flops: f64,
}

/// A characterized operator, ready for compilation.
#[derive(Clone, Debug)]
pub struct OperatorProfile {
    /// Human-readable label.
    pub name: String,
    /// Stage characterizations of the FLOPs-optimal lowering.
    pub stages: Vec<StageProfile>,
    /// The eager op chain (ATen fallback path).
    pub chain: Vec<ChainOp>,
    /// Stock or novel.
    pub class: OperatorClass,
    /// Parameter count.
    pub params: u64,
    /// Output elements.
    pub output_elems: u64,
    /// Whether weights fit in a mobile-class cache (drives the Operator-2
    /// effect of §9.2: few-parameter operators keep weights resident).
    pub total_flops: f64,
}

impl OperatorProfile {
    /// Total ideal memory traffic across stages.
    pub fn ideal_bytes(&self) -> f64 {
        self.stages.iter().map(|s| s.ideal_bytes).sum()
    }

    /// Arithmetic intensity of the whole operator.
    pub fn intensity(&self) -> f64 {
        self.total_flops / self.ideal_bytes().max(1.0)
    }
}

/// Characterizes a complete pGraph under `valuation`.
///
/// # Errors
///
/// Propagates [`LowerError`] from kernel lowering.
pub fn profile_graph(
    graph: &PGraph,
    valuation: usize,
    class: OperatorClass,
    name: &str,
) -> Result<OperatorProfile, LowerError> {
    let kernel = lower_optimized(graph, valuation)?;
    let stages = profile_kernel(&kernel);
    let chain = eager_chain(graph, valuation);
    let params = syno_core::analysis::parameter_count(graph, valuation).unwrap_or(0) as u64;
    let output_elems = syno_core::analysis::output_numel(graph, valuation).unwrap_or(0) as u64;
    let total_flops = stages.iter().map(|s| s.flops).sum();
    Ok(OperatorProfile {
        name: name.to_owned(),
        stages,
        chain,
        class,
        params,
        output_elems,
        total_flops,
    })
}

/// Per-stage profile of a lowered kernel.
pub fn profile_kernel(kernel: &Kernel) -> Vec<StageProfile> {
    let mut out = Vec::new();
    for stage in &kernel.stages {
        let iters = stage.iterations() as f64;
        let out_elems: f64 = stage.shape().iter().product::<usize>() as f64;
        let mut in_elems = 0.0;
        for op in &stage.operands {
            let dims: f64 = match op.source {
                syno_ir::kernel::OperandRef::Input => {
                    kernel.input_shape.iter().product::<usize>() as f64
                }
                syno_ir::kernel::OperandRef::Weight(w) => {
                    kernel.weight_shapes[w].iter().product::<usize>() as f64
                }
                syno_ir::kernel::OperandRef::Buffer(b) => {
                    kernel.stages[b].shape().iter().product::<usize>() as f64
                }
            };
            in_elems += dims;
        }
        let reduce_total: u64 = stage.reduce.iter().map(|l| l.extent).product::<u64>().max(1);
        out.push(StageProfile {
            flops: stage.flops() as f64,
            ideal_bytes: (in_elems + out_elems) * 4.0,
            worst_bytes: iters * (stage.operands.len() as f64 + 1.0) * 4.0,
            operands: stage.operands.len(),
            max_spatial_extent: stage.loops.iter().map(|l| l.extent).max().unwrap_or(1),
            iterations: iters,
            matmul_shaped: stage.operands.len() == 2 && reduce_total >= 8,
        });
    }
    out
}

/// The eager op chain of a graph (empty when the graph is not
/// eager-realizable; such operators always fall back at full kernel cost):
/// the kernels its [`eager::Program`] logs, at four bytes an element.
pub fn eager_chain(graph: &PGraph, valuation: usize) -> Vec<ChainOp> {
    let Ok(program) = eager::Program::new(graph, valuation) else {
        return Vec::new();
    };
    let chain_op = |op: &eager::ShapeOp| ChainOp {
        bytes: (op.read + op.written) as f64 * 4.0,
        flops: op.flops as f64,
    };
    program.kernels().iter().map(chain_op).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use syno_core::ops;
    use syno_core::var::{VarKind, VarTable};

    fn conv_fixture() -> syno_core::graph::PGraph {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 1), (cin, 16), (cout, 32), (h, 16), (w, 16), (k, 3)]);
        let vars: Arc<VarTable> = vars.into_shared();
        ops::conv2d(&vars, n, cin, cout, h, w, k).unwrap()
    }

    #[test]
    fn conv_profile_matches_closed_form() {
        let g = conv_fixture();
        let p = profile_graph(&g, 0, OperatorClass::Standard, "conv3x3").unwrap();
        // 2 * N*Cout*H*W*Cin*k*k
        let expect = 2.0 * (32.0 * 16.0 * 16.0) * (16.0 * 9.0);
        assert!((p.total_flops - expect).abs() < 1.0);
        assert_eq!(p.params, 32 * 16 * 9);
        assert!(p.intensity() > 10.0, "conv is compute-bound");
        assert!(!p.chain.is_empty(), "conv has an eager chain");
    }

    #[test]
    fn pooled_profile_is_memory_bound() {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 4096), (s, 2)]);
        let vars = vars.into_shared();
        let pool = ops::avg_pool1d(&vars, h, s).unwrap();
        let p = profile_graph(&pool, 0, OperatorClass::Standard, "pool").unwrap();
        assert!(p.intensity() < 1.0, "pooling is memory-bound");
        assert_eq!(p.params, 0);
    }

    #[test]
    fn matmul_stage_is_matmul_shaped() {
        let mut vars = VarTable::new();
        let m = vars.declare("M", VarKind::Primary);
        let n = vars.declare("Nv", VarKind::Primary);
        let k = vars.declare("K", VarKind::Primary);
        vars.push_valuation(vec![(m, 64), (n, 64), (k, 64)]);
        let vars = vars.into_shared();
        let mm = ops::matmul(&vars, m, n, k).unwrap();
        let p = profile_graph(&mm, 0, OperatorClass::Standard, "mm").unwrap();
        assert!(p.stages.iter().any(|s| s.matmul_shaped));
    }
}
