//! Static analysis of complete pGraphs: FLOPs and parameters.
//!
//! As §8 notes, the FLOP count of a Syno operator depends only on the output
//! iterators and the `Reduce` domains — the loop nest iterates over their
//! product. The *naive* count here assumes a single fused loop nest; the
//! materialized-reduction optimization (implemented in `syno-ir`) can lower
//! this further by splitting reducible sub-graphs into stages. During search
//! the naive count serves as the hard FLOPs ceiling of §7.2.

use crate::graph::PGraph;
use crate::size::Size;

/// Symbolic iteration count: product of all output and reduction domains,
/// or `None` when it leaves the size range.
pub fn iteration_domain(graph: &PGraph) -> Option<Size> {
    let arena = graph.arena();
    let atoms = graph.output_atoms().iter().chain(graph.reduce_atoms());
    Size::product(atoms.map(|&a| &arena.atom_info(a).domain))
}

/// Naive FLOPs under `valuation`: two FLOPs (multiply + accumulate) per
/// point of the iteration domain, times the extra multiplies needed when
/// more than one weight tensor participates.
pub fn naive_flops(graph: &PGraph, valuation: usize) -> Option<u128> {
    let iters = iteration_domain(graph)?.eval(graph.vars(), valuation)? as u128;
    // Each iteration multiplies the input against every weight tensor and
    // accumulates: weight_count multiplies + 1 add.
    let per_iter = graph.weight_count() as u128 + 1;
    Some(iters * per_iter)
}

/// Concrete parameter count under `valuation`.
pub fn parameter_count(graph: &PGraph, valuation: usize) -> Option<u128> {
    let mut total: u128 = 0;
    for w in graph.weights() {
        total += w.numel()?.eval(graph.vars(), valuation)? as u128;
    }
    Some(total)
}

/// Concrete output element count under `valuation`.
pub fn output_numel(graph: &PGraph, valuation: usize) -> Option<u128> {
    graph
        .spec()
        .output
        .numel()?
        .eval(graph.vars(), valuation)
        .map(|v| v as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::var::{VarKind, VarTable};

    fn conv_graph() -> PGraph {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 1), (cin, 4), (cout, 8), (h, 6), (w, 6), (k, 3)]);
        ops::conv2d(&vars.into_shared(), n, cin, cout, h, w, k).expect("conv builds")
    }

    #[test]
    fn conv_flops_match_closed_form() {
        let g = conv_graph();
        // 2 * N*Cout*H*W * Cin*k*k (one weight tensor).
        let expected = 2u128 * (8 * 6 * 6) * (4 * 3 * 3);
        assert_eq!(naive_flops(&g, 0), Some(expected));
    }

    #[test]
    fn conv_params_match_closed_form() {
        let g = conv_graph();
        // Cout*Cin*k*k
        assert_eq!(parameter_count(&g, 0), Some(8 * 4 * 3 * 3));
    }

    #[test]
    fn iteration_domain_is_symbolic() {
        let g = conv_graph();
        let iters = iteration_domain(&g).unwrap();
        // N*Cout*H*W*Cin*k*k evaluates consistently.
        assert_eq!(iters.eval(g.vars(), 0), Some(8 * 6 * 6 * 4 * 3 * 3));
    }
}
