//! Reference operators composed from Syno primitives (Table 2 / Fig. 2).
//!
//! These builders assemble the paper's worked examples — conv2d, matrix
//! multiplication, average pooling, pixel shuffle, plus grouped and
//! depthwise convolutions used by the backbone models — as canonical
//! primitive sequences. They double as executable documentation, as the
//! seed operators for benchmarks, and as fixtures for the semantics tests.

use crate::graph::{ApplyError, CoordId, PGraph};
use crate::primitive::Action;
use crate::size::Size;
use crate::spec::{OperatorSpec, TensorShape};
use crate::var::{VarId, VarTable};
use std::sync::Arc;

/// Shorthand: apply a sequence, propagating errors.
fn chain(mut graph: PGraph, actions: &[Action]) -> Result<PGraph, ApplyError> {
    for action in actions {
        graph = graph.apply(action)?;
    }
    Ok(graph)
}

/// The first coordinate produced by the most recent primitive — the robust
/// way to name e.g. a fresh `Share` data copy (which replaces its operand
/// in-place rather than landing at the frontier's end).
fn last(graph: &PGraph) -> CoordId {
    graph
        .last_node()
        .expect("at least one primitive applied")
        .produced()[0]
}

/// Builds the 2D convolution pGraph of Fig. 2:
/// `[N,Cout,H,W] ← [N,Cin,H,W]` with a `[Cout,Cin,k,k]` weight.
///
/// # Errors
///
/// Returns an error if the valuations violate primitive validity (e.g. the
/// kernel size `k` is not materially smaller than `H`/`W`).
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::ops;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let n = vars.declare("N", VarKind::Primary);
/// let cin = vars.declare("Cin", VarKind::Primary);
/// let cout = vars.declare("Cout", VarKind::Primary);
/// let h = vars.declare("H", VarKind::Primary);
/// let w = vars.declare("W", VarKind::Primary);
/// let k = vars.declare("k", VarKind::Coefficient);
/// vars.push_valuation(vec![(n, 1), (cin, 4), (cout, 8), (h, 8), (w, 8), (k, 3)]);
/// let conv = ops::conv2d(&vars.into_shared(), n, cin, cout, h, w, k)?;
/// assert!(conv.is_complete());
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    vars: &Arc<VarTable>,
    n: VarId,
    cin: VarId,
    cout: VarId,
    h: VarId,
    w: VarId,
    k: VarId,
) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(n), Size::var(cin), Size::var(h), Size::var(w)]),
        TensorShape::new(vec![Size::var(n), Size::var(cout), Size::var(h), Size::var(w)]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let [_, i_co, i_h, i_w]: [CoordId; 4] = g.frontier().try_into().expect("rank 4");

    let g = g.apply(&Action::Reduce { domain: Size::var(cin) })?;
    let r_ci = last(&g);
    let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
    let r_kh = last(&g);
    let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
    let r_kw = last(&g);

    let g = g.apply(&Action::Share { coord: r_ci, weight: 0 })?;
    let g = g.apply(&Action::Share { coord: r_kh, weight: 0 })?;
    let win_h = last(&g);
    let g = g.apply(&Action::Unfold { base: i_h, window: win_h })?;
    let g = g.apply(&Action::Share { coord: r_kw, weight: 0 })?;
    let win_w = last(&g);
    let g = g.apply(&Action::Unfold { base: i_w, window: win_w })?;
    let g = g.apply(&Action::MatchWeight { coord: i_co, weight: 0 })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

/// Builds the matrix-multiplication pGraph of Table 2:
/// `[M,N] ← [M,K]` with a `[K,N]` weight.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
pub fn matmul(vars: &Arc<VarTable>, m: VarId, n: VarId, k: VarId) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(m), Size::var(k)]),
        TensorShape::new(vec![Size::var(m), Size::var(n)]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let j = g.frontier()[1];
    let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
    let r_k = last(&g);
    let g = g.apply(&Action::Share { coord: r_k, weight: 0 })?;
    let g = g.apply(&Action::MatchWeight { coord: j, weight: 0 })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

/// Builds the 1D average-pooling pGraph of Table 2 (without the `1/s`
/// scaling, which is a constant the non-linear stack absorbs):
/// `[s⁻¹H] ← [H]`, no weights.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
pub fn avg_pool1d(vars: &Arc<VarTable>, h: VarId, s: VarId) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let i = g.frontier()[0];
    let g = g.apply(&Action::Reduce { domain: Size::var(s) })?;
    let r_s = last(&g);
    let g = g.apply(&Action::Split { lhs: i, rhs: r_s })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

/// Builds the pixel-shuffle pGraph of Table 2: `[H] ← [H]` rearranging
/// blocks, `out(i) = input((H/B)·(i%B) + i/B)`.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
pub fn pixel_shuffle(vars: &Arc<VarTable>, h: VarId, b: VarId) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h)]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let i = g.frontier()[0];
    let g = g.apply(&Action::Merge { coord: i, block: Size::var(b) })?;
    let q = g.frontier()[0];
    let r = g.frontier()[1];
    let g = g.apply(&Action::Split { lhs: r, rhs: q })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

/// Builds a grouped 2D convolution with `g` groups (interleaved-channel
/// canonical form): `[N,Cout,H,W] ← [N,Cin,H,W]` with a
/// `[Cin/g,k,k,g,Cout/g] ≅ [Cout,Cin/g,k,k]` weight.
///
/// The group index is `co % g`; the `Share`+`Expand` pair plays the role of
/// `MatchWeight` for the non-atomic `co/g` coordinate.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
#[allow(clippy::too_many_arguments)]
pub fn grouped_conv2d(
    vars: &Arc<VarTable>,
    n: VarId,
    cin: VarId,
    cout: VarId,
    h: VarId,
    w: VarId,
    k: VarId,
    groups: VarId,
) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(n), Size::var(cin), Size::var(h), Size::var(w)]),
        TensorShape::new(vec![Size::var(n), Size::var(cout), Size::var(h), Size::var(w)]),
    );
    let g0 = PGraph::new(Arc::clone(vars), spec);
    let [_, i_co, i_h, i_w]: [CoordId; 4] = g0.frontier().try_into().expect("rank 4");
    let gsize = Size::var(groups);
    let cig = Size::var(cin).div(&gsize);

    // Decompose output channels into (co/g, co%g); the remainder is the
    // group index.
    let g1 = g0.apply(&Action::Merge { coord: i_co, block: gsize })?;
    let co_q = g1.frontier()[1];
    let co_r = g1.frontier()[2];

    // Reduce over the within-group channels, then immediately combine the
    // reduction iterator with the group index into the full input channel
    // `g*c + (co % g)` — splitting *before* sharing keeps the sequence
    // canonical (a weight reshape absorbs the difference).
    let g2 = g1.apply(&Action::Reduce { domain: cig })?;
    let r_c = last(&g2);
    let g2 = g2.apply(&Action::Split { lhs: r_c, rhs: co_r })?;
    let channel = g2.frontier()[g2.frontier().len() - 1];
    let g2 = chain(
        g2,
        &[
            Action::Reduce { domain: Size::var(k) },
            Action::Reduce { domain: Size::var(k) },
        ],
    )?;
    let len = g2.frontier().len();
    let (r_kh, r_kw) = (g2.frontier()[len - 2], g2.frontier()[len - 1]);

    // Share channel and kernel windows into the weight; the group quotient
    // `co/g` joins the weight via Share+Expand (the non-atomic analogue of
    // MatchWeight).
    let g3 = g2.apply(&Action::Share { coord: channel, weight: 0 })?;
    let g3 = g3.apply(&Action::Share { coord: r_kh, weight: 0 })?;
    let win_h = last(&g3);
    let g3 = g3.apply(&Action::Unfold { base: i_h, window: win_h })?;
    let g3 = g3.apply(&Action::Share { coord: r_kw, weight: 0 })?;
    let win_w = last(&g3);
    let g3 = g3.apply(&Action::Unfold { base: i_w, window: win_w })?;
    let g3 = g3.apply(&Action::Share { coord: co_q, weight: 0 })?;
    let qcopy = last(&g3);
    let g3 = g3.apply(&Action::Expand { coord: qcopy })?;
    debug_assert!(g3.is_complete(), "grouped conv:\n{}", g3.render());
    Ok(g3)
}

/// Builds a depthwise 2D convolution (`groups == Cin == Cout`):
/// `[N,C,H,W] ← [N,C,H,W]` with a `[C,k,k]` weight.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
pub fn depthwise_conv2d(
    vars: &Arc<VarTable>,
    n: VarId,
    c: VarId,
    h: VarId,
    w: VarId,
    k: VarId,
) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]),
        TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let [_, i_c, i_h, i_w]: [CoordId; 4] = g.frontier().try_into().expect("rank 4");
    let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
    let r_kh = last(&g);
    let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
    let r_kw = last(&g);
    let g = g.apply(&Action::Share { coord: r_kh, weight: 0 })?;
    let win_h = last(&g);
    let g = g.apply(&Action::Unfold { base: i_h, window: win_h })?;
    let g = g.apply(&Action::Share { coord: r_kw, weight: 0 })?;
    let win_w = last(&g);
    let g = g.apply(&Action::Unfold { base: i_w, window: win_w })?;
    // Per-channel weight: share the channel itself.
    let g = g.apply(&Action::Share { coord: i_c, weight: 0 })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

/// Builds a pointwise (1×1) convolution: `[N,Cout,H,W] ← [N,Cin,H,W]` with a
/// `[Cout,Cin]` weight — the per-pixel matmul used by DenseNet transitions
/// and bottleneck blocks.
///
/// # Errors
///
/// Propagates [`ApplyError`] from primitive application.
pub fn pointwise_conv(
    vars: &Arc<VarTable>,
    n: VarId,
    cin: VarId,
    cout: VarId,
    h: VarId,
    w: VarId,
) -> Result<PGraph, ApplyError> {
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(n), Size::var(cin), Size::var(h), Size::var(w)]),
        TensorShape::new(vec![Size::var(n), Size::var(cout), Size::var(h), Size::var(w)]),
    );
    let g = PGraph::new(Arc::clone(vars), spec);
    let i_co = g.frontier()[1];
    let g = g.apply(&Action::Reduce { domain: Size::var(cin) })?;
    let r = last(&g);
    let g = g.apply(&Action::Share { coord: r, weight: 0 })?;
    let g = g.apply(&Action::MatchWeight { coord: i_co, weight: 0 })?;
    debug_assert!(g.is_complete());
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::canon::CanonRules;
    use crate::var::VarKind;

    struct Fixture {
        vars: Arc<VarTable>,
        n: VarId,
        cin: VarId,
        cout: VarId,
        h: VarId,
        w: VarId,
        k: VarId,
        s: VarId,
        g: VarId,
    }

    fn fixture() -> Fixture {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        let s = vars.declare("s", VarKind::Coefficient);
        let g = vars.declare("g", VarKind::Coefficient);
        vars.push_valuation(vec![
            (n, 2),
            (cin, 8),
            (cout, 16),
            (h, 12),
            (w, 12),
            (k, 3),
            (s, 2),
            (g, 4),
        ]);
        Fixture {
            vars: vars.into_shared(),
            n,
            cin,
            cout,
            h,
            w,
            k,
            s,
            g,
        }
    }

    /// Replays a builder's actions through the canonicalization rules,
    /// asserting the sequence is canonical (the builders define the
    /// references the enumerator must be able to reach).
    fn assert_canonical(graph: &PGraph) {
        let rules = CanonRules::default();
        let mut replay = PGraph::new(Arc::clone(graph.vars()), graph.spec().clone());
        for node in graph.nodes() {
            rules
                .allows(&replay, &node.action)
                .unwrap_or_else(|v| panic!("uncanonical step {:?}: {v}", node.action));
            replay = replay.apply(&node.action).expect("replay applies");
        }
    }

    #[test]
    fn conv2d_is_complete_and_canonical() {
        let f = fixture();
        let g = conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
        assert!(g.is_complete());
        assert_canonical(&g);
        assert_eq!(analysis::parameter_count(&g, 0), Some(16 * 8 * 9));
    }

    #[test]
    fn matmul_is_complete_and_canonical() {
        let f = fixture();
        let g = matmul(&f.vars, f.cin, f.cout, f.h).unwrap();
        assert!(g.is_complete());
        assert_canonical(&g);
        // Weight [K, N] = [H=12, Cout=16].
        assert_eq!(analysis::parameter_count(&g, 0), Some(12 * 16));
        assert_eq!(analysis::naive_flops(&g, 0), Some(2 * 8 * 16 * 12));
    }

    #[test]
    fn avg_pool_is_complete_and_weightless() {
        let f = fixture();
        let g = avg_pool1d(&f.vars, f.h, f.s).unwrap();
        assert!(g.is_complete());
        assert_canonical(&g);
        assert_eq!(g.weight_count(), 0);
        assert_eq!(analysis::parameter_count(&g, 0), Some(0));
    }

    #[test]
    fn pixel_shuffle_is_complete() {
        let f = fixture();
        let g = pixel_shuffle(&f.vars, f.h, f.s).unwrap();
        assert!(g.is_complete());
        assert_canonical(&g);
        assert_eq!(g.weight_count(), 0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn grouped_conv_parameters_shrink_by_g() {
        let f = fixture();
        let dense = conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
        let grouped = grouped_conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k, f.g).unwrap();
        assert!(grouped.is_complete());
        let dense_params = analysis::parameter_count(&dense, 0).unwrap();
        let grouped_params = analysis::parameter_count(&grouped, 0).unwrap();
        assert_eq!(dense_params, grouped_params * 4); // g = 4
    }

    #[test]
    fn depthwise_conv_parameters() {
        let f = fixture();
        let g = depthwise_conv2d(&f.vars, f.n, f.cin, f.h, f.w, f.k).unwrap();
        assert!(g.is_complete());
        // C*k*k
        assert_eq!(analysis::parameter_count(&g, 0), Some(8 * 9));
    }

    #[test]
    fn pointwise_conv_is_matmul_per_pixel() {
        let f = fixture();
        let g = pointwise_conv(&f.vars, f.n, f.cin, f.cout, f.h, f.w).unwrap();
        assert!(g.is_complete());
        assert_canonical(&g);
        assert_eq!(analysis::parameter_count(&g, 0), Some(8 * 16));
        // 2 * N*Cout*H*W * Cin
        assert_eq!(
            analysis::naive_flops(&g, 0),
            Some(2 * 2 * 16 * 12 * 12 * 8)
        );
    }

    #[test]
    fn distinct_operators_have_distinct_hashes() {
        let f = fixture();
        let conv = conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
        let pw = pointwise_conv(&f.vars, f.n, f.cin, f.cout, f.h, f.w).unwrap();
        let dw = depthwise_conv2d(&f.vars, f.n, f.cin, f.h, f.w, f.k).unwrap();
        assert_ne!(conv.state_hash(), pw.state_hash());
        assert_ne!(conv.state_hash(), dw.state_hash());
    }
}
