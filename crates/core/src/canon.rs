//! Canonicalization (§6): on-the-fly rejection of redundant candidates.
//!
//! The search space of primitive compositions contains huge numbers of
//! operators with identical or near-identical semantics — exactly the
//! variants a tensor compiler would explore anyway. Syno marks one member of
//! each equivalence class as *canonical* and rejects the rest **while
//! synthesizing**, by checking every candidate action against the current
//! partial pGraph (`IsCanonical` in Algorithm 1).
//!
//! The rules implemented here and their §6 provenance:
//!
//! * **Weight finality / Share symmetry** — weights receive no views and sit
//!   on the right of `Share`; structural in [`PGraph`].
//! * **Merge-above-Split** (Fig. 3a): `Merge` may not consume a `Split`
//!   output; the term-rewrite system shows the pushed-down form is simpler.
//! * **Split-reassembles-Merge**: `Split(q, r)` over the two outputs of one
//!   `Merge` in original roles is the identity.
//! * **View/contraction interleaving** (Fig. 3b): independent adjacent
//!   actions must appear in non-decreasing canonical order, with views
//!   ranked before contractions — "push down 1-to-1 views after
//!   contractions" expressed as an ordering normal form.
//! * **Views of Share copies**: a 1-to-1 view applied to a `Share` data copy
//!   is equivalent (up to an offline weight permutation) to applying the view
//!   first and sharing the results, so the former is rejected.
//! * **Expand/Reduce futility**: `Expand` may not discard a coordinate with
//!   no output-iterator dependence (that only scales the result by a
//!   constant), and `Shift` of such a coordinate is a no-op under the
//!   enclosing reduction.
//! * **Unfold reduction limit**: at most one `Unfold` operand may derive from
//!   a `Reduce`.
//! * **Approximate simplification** (Fig. 3c): `Merge(B)` may not consume an
//!   `Unfold` output whose window `K` satisfies `B ≫ K` under every
//!   valuation — the two forms agree at almost every point.
//! * **Stride pairing** (§5.2): `Stride` outputs may only be consumed as
//!   `Unfold` windows, and occurrence limits apply to `Expand`, `Stride` and
//!   `Shift`.
//! * **Diagonal weights**: `Share` may not add a dimension whose expression
//!   already indexes the same weight tensor (only the diagonal would be
//!   trained).

use crate::graph::{CoordId, PGraph};
use crate::primitive::{Action, PrimKind};
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

/// Why an action was rejected as uncanonical.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CanonViolation {
    /// `Merge` consumed a `Split` output (Fig. 3a).
    MergeAboveSplit,
    /// `Split` reassembled the two outputs of one `Merge`.
    SplitReassemblesMerge,
    /// 1-to-1 view applied to a `Share` data copy.
    ViewOfShareCopy,
    /// `Expand` of a coordinate with no output-iterator dependence.
    ExpandOfReduceOnly,
    /// `Shift` of a coordinate with no output-iterator dependence, or a
    /// `Shift` chain.
    ShiftRedundant,
    /// Both `Unfold` operands derive from `Reduce`.
    UnfoldBothReduce,
    /// `Merge` above `Unfold` with `block ≫ window` (Fig. 3c).
    ApproxMergeAboveUnfold,
    /// A `Stride` output consumed by anything but an `Unfold` window.
    StrideMisuse,
    /// Occurrence limit for the primitive kind exceeded.
    OccurrenceLimit(PrimKind),
    /// Independent adjacent actions out of canonical order.
    InterleavingOrder,
    /// Weight-tensor count limit exceeded.
    WeightLimit,
    /// `Share` would create a diagonal (self-indexed) weight.
    DiagonalWeight,
}

impl fmt::Display for CanonViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CanonViolation::MergeAboveSplit => "merge above split",
            CanonViolation::SplitReassemblesMerge => "split reassembles a merge",
            CanonViolation::ViewOfShareCopy => "1-to-1 view of a share copy",
            CanonViolation::ExpandOfReduceOnly => "expand of a reduce-only coordinate",
            CanonViolation::ShiftRedundant => "redundant shift",
            CanonViolation::UnfoldBothReduce => "unfold of two reduce-derived coordinates",
            CanonViolation::ApproxMergeAboveUnfold => "merge above unfold with block >> window",
            CanonViolation::StrideMisuse => "stride output not consumed by an unfold window",
            CanonViolation::OccurrenceLimit(_) => "primitive occurrence limit exceeded",
            CanonViolation::InterleavingOrder => "independent actions out of canonical order",
            CanonViolation::WeightLimit => "weight tensor limit exceeded",
            CanonViolation::DiagonalWeight => "share would create a diagonal weight",
        };
        f.write_str(msg)
    }
}

impl Error for CanonViolation {}

/// Configurable canonicalization rule set.
///
/// # Examples
///
/// ```
/// use syno_core::canon::CanonRules;
///
/// let rules = CanonRules::default();
/// assert_eq!(rules.max_shifts, 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonRules {
    /// Maximum `Shift` applications per operator.
    pub max_shifts: u32,
    /// Maximum `Expand` applications per operator (§5.2: restricted use).
    pub max_expands: u32,
    /// Maximum `Stride` applications per operator (§5.2: restricted use).
    pub max_strides: u32,
    /// Maximum number of weight tensors.
    pub max_weights: usize,
    /// The `≫` threshold for approximate rules (Fig. 3c).
    pub much_greater_factor: u64,
    /// Enable the interleaving (adjacent-commutation) normal form.
    pub enforce_interleaving: bool,
}

impl Default for CanonRules {
    fn default() -> Self {
        CanonRules {
            max_shifts: 2,
            max_expands: 2,
            max_strides: 1,
            max_weights: 2,
            much_greater_factor: 8,
            enforce_interleaving: true,
        }
    }
}

impl CanonRules {
    /// A permissive rule set that only keeps hard quality requirements
    /// (used by the Table-3 ablation to sample *without* canonicalization).
    pub fn permissive() -> Self {
        CanonRules {
            max_shifts: u32::MAX,
            max_expands: u32::MAX,
            max_strides: u32::MAX,
            max_weights: 4,
            much_greater_factor: u64::MAX,
            enforce_interleaving: false,
        }
    }

    /// Checks whether applying `action` to `graph` keeps the graph canonical.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn allows(&self, graph: &PGraph, action: &Action) -> Result<(), CanonViolation> {
        self.allows_in_any_order(graph, action)?;
        if self.enforce_interleaving {
            self.check_interleaving(graph, action)?;
        }
        Ok(())
    }

    /// Every rule of [`allows`](CanonRules::allows) but the interleaving
    /// one, which the child filter asks first, on its own
    /// ([`out_of_order`](CanonRules::out_of_order)): most refusals are
    /// that one.
    pub(crate) fn allows_in_any_order(
        &self,
        graph: &PGraph,
        action: &Action,
    ) -> Result<(), CanonViolation> {
        self.check_occurrences(graph, action)?;
        self.check_stride_consumption(graph, action)?;
        match action {
            Action::Merge { coord, block } => {
                match graph.producer_kind(*coord) {
                    Some(PrimKind::Split) => return Err(CanonViolation::MergeAboveSplit),
                    Some(PrimKind::Share) => return Err(CanonViolation::ViewOfShareCopy),
                    Some(PrimKind::Unfold) => {
                        // Fig. 3c: approximate equivalence when block >> window.
                        let (node, _) = graph.producer(*coord).expect("has producer");
                        let Action::Unfold { window, .. } = node.action else {
                            unreachable!("an unfold node holds an unfold action")
                        };
                        let wdom = graph.coord_domain(window);
                        if block.is_much_greater(wdom, graph.vars(), self.much_greater_factor) {
                            return Err(CanonViolation::ApproxMergeAboveUnfold);
                        }
                    }
                    _ => {}
                }
            }
            Action::Split { lhs, rhs } => {
                if let (Some((ln, lp)), Some((rn, rp))) =
                    (graph.producer(*lhs), graph.producer(*rhs))
                {
                    let same_merge = ln.action.kind() == PrimKind::Merge
                        && rn.action.kind() == PrimKind::Merge
                        && std::ptr::eq(ln, rn);
                    if same_merge && lp == 0 && rp == 1 {
                        return Err(CanonViolation::SplitReassemblesMerge);
                    }
                }
                // A Split of two Share copies is an offline weight reshape
                // (redundant); with only one copy operand the Split ties the
                // weight to part of a larger index — a genuinely different
                // operator (the Operator-1 grouping pattern) — so it stays.
                if graph.producer_kind(*lhs) == Some(PrimKind::Share)
                    && graph.producer_kind(*rhs) == Some(PrimKind::Share)
                {
                    return Err(CanonViolation::ViewOfShareCopy);
                }
            }
            Action::Shift { coord } => {
                if !graph.arena().depends_on_output(graph.coord_expr(*coord)) {
                    return Err(CanonViolation::ShiftRedundant);
                }
                if graph.producer_kind(*coord) == Some(PrimKind::Shift) {
                    return Err(CanonViolation::ShiftRedundant);
                }
                if graph.producer_kind(*coord) == Some(PrimKind::Share) {
                    return Err(CanonViolation::ViewOfShareCopy);
                }
            }
            Action::Expand { coord } => {
                if !graph.arena().depends_on_output(graph.coord_expr(*coord)) {
                    return Err(CanonViolation::ExpandOfReduceOnly);
                }
            }
            Action::Unfold { base, window } => {
                let arena = graph.arena();
                if arena.depends_on_reduce(graph.coord_expr(*base))
                    && arena.depends_on_reduce(graph.coord_expr(*window))
                {
                    return Err(CanonViolation::UnfoldBothReduce);
                }
            }
            Action::Stride { coord, .. } => {
                if graph.producer_kind(*coord) == Some(PrimKind::Stride) {
                    return Err(CanonViolation::StrideMisuse);
                }
            }
            Action::Share { coord, weight } => {
                if *weight == graph.weight_count() && graph.weight_count() >= self.max_weights {
                    return Err(CanonViolation::WeightLimit);
                }
                if let Some(w) = graph.weights().get(*weight) {
                    let expr = graph.coord_expr(*coord);
                    if w.dims.iter().any(|d| d.expr == expr) {
                        return Err(CanonViolation::DiagonalWeight);
                    }
                }
            }
            Action::Reduce { .. } | Action::MatchWeight { .. } => {}
        }
        Ok(())
    }

    fn check_occurrences(&self, graph: &PGraph, action: &Action) -> Result<(), CanonViolation> {
        let kind = action.kind();
        let limit = match kind {
            PrimKind::Shift => self.max_shifts,
            PrimKind::Expand => self.max_expands,
            PrimKind::Stride => self.max_strides,
            _ => u32::MAX,
        };
        if graph.count(kind) >= limit {
            return Err(CanonViolation::OccurrenceLimit(kind));
        }
        Ok(())
    }

    /// `Stride` outputs may only be consumed as the window of an `Unfold`.
    fn check_stride_consumption(
        &self,
        graph: &PGraph,
        action: &Action,
    ) -> Result<(), CanonViolation> {
        let is_stride = |c: CoordId| graph.producer_kind(c) == Some(PrimKind::Stride);
        match action {
            Action::Unfold { base, window } => {
                if is_stride(*base) {
                    return Err(CanonViolation::StrideMisuse);
                }
                let _ = window; // stride windows are the sanctioned use
                Ok(())
            }
            other => {
                if other.operands().any(is_stride) {
                    Err(CanonViolation::StrideMisuse)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// `true` when the interleaving rule of [`allows`](CanonRules::allows)
    /// refuses `action`: one comparison with the last action.
    pub(crate) fn out_of_order(&self, graph: &PGraph, action: &Action) -> bool {
        self.enforce_interleaving && self.check_interleaving(graph, action).is_err()
    }

    /// Independent adjacent actions must be applied in non-decreasing
    /// canonical order; dependent ones (consuming the previous action's
    /// products or touching the same weight slot) are unconstrained.
    fn check_interleaving(&self, graph: &PGraph, action: &Action) -> Result<(), CanonViolation> {
        let Some(last) = graph.last_node() else {
            return Ok(());
        };
        // A later kind is in order whatever the dependence.
        if action.kind().rank() > last.action.kind().rank() {
            return Ok(());
        }
        let consumes_last = action.operands().any(|c| last.produced().contains(&c));
        let same_weight = match (action.weight_slot(), last.action.weight_slot()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if consumes_last || same_weight {
            return Ok(());
        }
        if action.cmp_canonical(&last.action) == Ordering::Less {
            return Err(CanonViolation::InterleavingOrder);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;
    use crate::spec::{OperatorSpec, TensorShape};
    use crate::var::{VarKind, VarTable};
    use std::sync::Arc;

    fn setup() -> PGraph {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 2), (c, 16), (h, 32), (k, 3), (s, 2)]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h)]),
            TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h)]),
        );
        PGraph::new(Arc::new(vars), spec)
    }

    fn size(g: &PGraph, name: &str) -> Size {
        Size::var(g.vars().find(name).unwrap())
    }

    #[test]
    fn merge_above_split_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let c = g.frontier()[1];
        let h = g.frontier()[2];
        let g = g.apply(&Action::Split { lhs: c, rhs: h }).unwrap();
        let split_out = g.frontier()[1];
        let action = Action::Merge {
            coord: split_out,
            block: Size::constant(2),
        };
        assert_eq!(
            rules.allows(&g, &action),
            Err(CanonViolation::MergeAboveSplit)
        );
    }

    #[test]
    fn split_reassembling_merge_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let h = g.frontier()[2];
        let g = g
            .apply(&Action::Merge {
                coord: h,
                block: Size::constant(4),
            })
            .unwrap();
        let q = g.frontier()[2];
        let r = g.frontier()[3];
        // Identity reassembly q,r -> 4*q + r.
        assert_eq!(
            rules.allows(&g, &Action::Split { lhs: q, rhs: r }),
            Err(CanonViolation::SplitReassemblesMerge)
        );
        // The pixel-shuffle order (r, q) is canonical.
        assert_eq!(rules.allows(&g, &Action::Split { lhs: r, rhs: q }), Ok(()));
    }

    #[test]
    fn view_of_share_copy_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let c = g.frontier()[1];
        let g = g.apply(&Action::Share { coord: c, weight: 0 }).unwrap();
        let copy = g.frontier()[1];
        assert_eq!(
            rules.allows(
                &g,
                &Action::Merge {
                    coord: copy,
                    block: Size::constant(2),
                }
            ),
            Err(CanonViolation::ViewOfShareCopy)
        );
        assert_eq!(
            rules.allows(&g, &Action::Shift { coord: copy }),
            Err(CanonViolation::ViewOfShareCopy)
        );
    }

    #[test]
    fn expand_of_reduce_only_rejected() {
        let g0 = setup();
        let rules = CanonRules::default();
        let g = g0
            .apply(&Action::Reduce {
                domain: Size::constant(3),
            })
            .unwrap();
        let r = *g.frontier().last().unwrap();
        assert_eq!(
            rules.allows(&g, &Action::Expand { coord: r }),
            Err(CanonViolation::ExpandOfReduceOnly)
        );
        // Expanding an output coordinate is fine (before the Reduce — the
        // interleaving normal form puts views first).
        let c = g0.frontier()[1];
        assert_eq!(rules.allows(&g0, &Action::Expand { coord: c }), Ok(()));
    }

    #[test]
    fn shift_chain_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let h = g.frontier()[2];
        let g = g.apply(&Action::Shift { coord: h }).unwrap();
        let shifted = g.frontier()[2];
        assert_eq!(
            rules.allows(&g, &Action::Shift { coord: shifted }),
            Err(CanonViolation::ShiftRedundant)
        );
    }

    #[test]
    fn unfold_of_two_reduce_coords_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let g = g
            .apply(&Action::Reduce {
                domain: size(&g, "k").mul(&size(&g, "s").pow(2)),
            })
            .unwrap();
        let g = g
            .apply(&Action::Reduce {
                domain: size(&g, "k"),
            })
            .unwrap();
        let big = g.frontier()[3];
        let small = g.frontier()[4];
        assert_eq!(
            rules.allows(
                &g,
                &Action::Unfold {
                    base: big,
                    window: small
                }
            ),
            Err(CanonViolation::UnfoldBothReduce)
        );
    }

    #[test]
    fn approx_merge_above_unfold() {
        let g = setup();
        let rules = CanonRules::default();
        // Reduce(k=3) then Unfold(H, r) then Merge(16) with 16 >= 8*... no:
        // 16 >= 8*3 is false, so use a bigger block via s^4 = 16 < 24. Use
        // constant 32 >= 24.
        let g = g
            .apply(&Action::Reduce {
                domain: size(&g, "k"),
            })
            .unwrap();
        let h = g.frontier()[2];
        let r = *g.frontier().last().unwrap();
        let g = g.apply(&Action::Unfold { base: h, window: r }).unwrap();
        let u = g.frontier()[2];
        let reject = Action::Merge {
            coord: u,
            block: Size::constant(32),
        };
        assert_eq!(
            rules.allows(&g, &reject),
            Err(CanonViolation::ApproxMergeAboveUnfold)
        );
        // A small block (2 < 8*3) stays canonical.
        let accept = Action::Merge {
            coord: u,
            block: Size::constant(2),
        };
        assert_eq!(rules.allows(&g, &accept), Ok(()));
    }

    #[test]
    fn stride_output_only_feeds_unfold_window() {
        let g = setup();
        let rules = CanonRules::default();
        let g = g
            .apply(&Action::Reduce {
                domain: size(&g, "k"),
            })
            .unwrap();
        let r = *g.frontier().last().unwrap();
        let g = g
            .apply(&Action::Stride {
                coord: r,
                stride: size(&g, "s"),
            })
            .unwrap();
        let sr = *g.frontier().last().unwrap();
        let h = g.frontier()[2];
        // Consuming as window: ok (dilated convolution pattern).
        assert_eq!(
            rules.allows(&g, &Action::Unfold { base: h, window: sr }),
            Ok(())
        );
        // Anything else: rejected.
        assert_eq!(
            rules.allows(&g, &Action::Share { coord: sr, weight: 0 }),
            Err(CanonViolation::StrideMisuse)
        );
        assert_eq!(
            rules.allows(&g, &Action::Unfold { base: sr, window: h }),
            Err(CanonViolation::StrideMisuse)
        );
    }

    #[test]
    fn occurrence_limits_enforced() {
        let g = setup();
        let rules = CanonRules {
            max_shifts: 1,
            ..CanonRules::default()
        };
        let h = g.frontier()[2];
        let g = g.apply(&Action::Shift { coord: h }).unwrap();
        let c = g.frontier()[1];
        assert_eq!(
            rules.allows(&g, &Action::Shift { coord: c }),
            Err(CanonViolation::OccurrenceLimit(PrimKind::Shift))
        );
    }

    #[test]
    fn interleaving_orders_independent_actions() {
        let g = setup();
        let rules = CanonRules::default();
        // Reduce first, then an independent Shift (rank 2 < 6) is rejected...
        let g2 = g
            .apply(&Action::Reduce {
                domain: size(&g, "k"),
            })
            .unwrap();
        let h = g2.frontier()[2];
        assert_eq!(
            rules.allows(&g2, &Action::Shift { coord: h }),
            Err(CanonViolation::InterleavingOrder)
        );
        // ...because the canonical program shifts first.
        let g3 = g.apply(&Action::Shift { coord: h }).unwrap();
        assert_eq!(
            rules.allows(
                &g3,
                &Action::Reduce {
                    domain: size(&g, "k"),
                }
            ),
            Ok(())
        );
    }

    #[test]
    fn dependent_actions_ignore_ordering() {
        let g = setup();
        let rules = CanonRules::default();
        // Reduce then a Split CONSUMING the reduce output is dependent and
        // therefore allowed despite its lower rank (average-pooling pattern).
        let g = g
            .apply(&Action::Reduce {
                domain: size(&g, "s"),
            })
            .unwrap();
        let r = *g.frontier().last().unwrap();
        let h = g.frontier()[2];
        assert_eq!(rules.allows(&g, &Action::Split { lhs: h, rhs: r }), Ok(()));
    }

    #[test]
    fn diagonal_weight_rejected() {
        let g = setup();
        let rules = CanonRules::default();
        let c = g.frontier()[1];
        let g = g.apply(&Action::Share { coord: c, weight: 0 }).unwrap();
        let copy = g.frontier()[1];
        // Same expression into the same slot: diagonal.
        assert_eq!(
            rules.allows(&g, &Action::Share { coord: copy, weight: 0 }),
            Err(CanonViolation::DiagonalWeight)
        );
        // Into a fresh slot: the Operator-2 weight-sharing pattern.
        assert_eq!(
            rules.allows(&g, &Action::Share { coord: copy, weight: 1 }),
            Ok(())
        );
    }

    #[test]
    fn weight_limit_enforced() {
        let g = setup();
        let rules = CanonRules {
            max_weights: 1,
            ..CanonRules::default()
        };
        let c = g.frontier()[1];
        let g = g.apply(&Action::Share { coord: c, weight: 0 }).unwrap();
        let h = g.frontier()[2];
        assert_eq!(
            rules.allows(&g, &Action::Share { coord: h, weight: 1 }),
            Err(CanonViolation::WeightLimit)
        );
    }
}
