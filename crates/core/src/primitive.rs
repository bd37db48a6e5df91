//! The Syno primitive library (Table 1 of the paper) and synthesis actions.
//!
//! Primitives transform coordinate expressions *bottom-up*: synthesis starts
//! from the output iterators and each applied primitive consumes zero, one or
//! two coordinates of the current frontier and produces zero, one or two new
//! ones. Reading the same pGraph *top-down* gives the tensor semantics used
//! by code generation (`Merge` flattens two dimensions, `Unfold` extracts
//! sliding windows, `Share` multiplies against a weight, …).
//!
//! | Class | Primitive | Bottom | Top | Top-down semantics |
//! |-------|-----------|--------|-----|--------------------|
//! | view 1-to-1 | `Split` | `[i,j]:[G,B]` | `[B*i+j]:[G*B]` | partition into blocks |
//! | view 1-to-1 | `Merge(B)` | `[i]:[N]` | `[i/B, i%B]:[N/B,B]` | flatten two dims |
//! | view 1-to-1 | `Shift` | `[i]:[N]` | `[(i+1)%N]:[N]` | rotate a dimension |
//! | view 1-to-many | `Expand` | `[i]:[C]` | `[]:[]` | repeat / up-sample |
//! | view 1-to-many | `Unfold` | `[i,j]:[N,K]` | `[i+j-K/2]:[N]` | sliding windows |
//! | view many-to-1 | `Stride(S)` | `[i]:[K]` | `[S*i]:[S*K]` | strided access |
//! | contraction | `Reduce(N)` | `[]:[]` | `Σᵢ [i]:[N]` | sum a dimension |
//! | contraction | `Share` | `[i]:[N]` | `([i],[i]):([N],[N])` | weight product |
//!
//! The implicit `Match` step of `Share` (§5.3) is modeled as an explicit
//! [`Action::MatchWeight`], assigning an untransformed output iterator
//! entirely to a weight tensor (as `j:N` in matmul or `i_Co:C_out` in conv).

use crate::graph::CoordId;
use crate::size::Size;
use crate::var::VarTable;
use std::cmp::Ordering;
use std::fmt;

/// The primitive kinds, including the explicit `MatchWeight` form of the
/// paper's implicit `Match` step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrimKind {
    /// `[i,j]:[G,B] ← [B*i+j]:[G*B]`.
    Split,
    /// `[i]:[N] ← [i/B, i%B]:[N/B, B]`.
    Merge,
    /// `[i]:[N] ← [(i+1)%N]:[N]`.
    Shift,
    /// `[i]:[K] ← [S*i]:[S*K]`.
    Stride,
    /// `[i,j]:[N,K] ← [i+j-K/2]:[N]` (clipped).
    Unfold,
    /// `[i]:[C] ← []:[]`.
    Expand,
    /// `[]:[] ← Σᵢ[i]:[N]`.
    Reduce,
    /// `[i]:[N] ← ([i],[i]):([N],[N])`.
    Share,
    /// Assign an output iterator to a weight tensor (`Match`, §5.3).
    MatchWeight,
}

impl PrimKind {
    /// All kinds, in canonical rank order.
    pub const ALL: [PrimKind; 9] = [
        PrimKind::Split,
        PrimKind::Merge,
        PrimKind::Shift,
        PrimKind::Stride,
        PrimKind::Unfold,
        PrimKind::Expand,
        PrimKind::Reduce,
        PrimKind::Share,
        PrimKind::MatchWeight,
    ];

    /// Canonical rank used to order independent adjacent actions: 1-to-1
    /// views sort before the other views, which sort before contractions —
    /// implementing the "push down 1-to-1 views after contractions" rule of
    /// §6 / Fig. 3(b) as an interleaving canonical form.
    pub fn rank(self) -> u8 {
        match self {
            PrimKind::Split => 0,
            PrimKind::Merge => 1,
            PrimKind::Shift => 2,
            PrimKind::Stride => 3,
            PrimKind::Unfold => 4,
            PrimKind::Expand => 5,
            PrimKind::Reduce => 6,
            PrimKind::Share => 7,
            PrimKind::MatchWeight => 8,
        }
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PrimKind::Split => "split",
            PrimKind::Merge => "merge",
            PrimKind::Shift => "shift",
            PrimKind::Stride => "stride",
            PrimKind::Unfold => "unfold",
            PrimKind::Expand => "expand",
            PrimKind::Reduce => "reduce",
            PrimKind::Share => "share",
            PrimKind::MatchWeight => "match",
        }
    }
}

impl fmt::Display for PrimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One synthesis step: a primitive applied to specific frontier coordinates
/// with concrete symbolic parameters.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Combine `lhs:[G]` and `rhs:[B]` into `B*lhs+rhs:[G*B]`.
    Split {
        /// Coarse part.
        lhs: CoordId,
        /// Fine part (its domain becomes the block size).
        rhs: CoordId,
    },
    /// Decompose `coord:[N]` into `coord/B:[N/B]` and `coord%B:[B]`.
    Merge {
        /// Coordinate to decompose.
        coord: CoordId,
        /// Block size `B`; must divide the coordinate's domain.
        block: Size,
    },
    /// Replace `coord:[N]` by `(coord+1)%N`.
    Shift {
        /// Coordinate to rotate.
        coord: CoordId,
    },
    /// Drop `coord` from the frontier (output replicated along it).
    Expand {
        /// Coordinate to drop.
        coord: CoordId,
    },
    /// Combine `base:[N]` and `window:[K]` into `base+window-K/2:[N]`.
    Unfold {
        /// Anchor coordinate.
        base: CoordId,
        /// Window coordinate (must be smaller than the anchor).
        window: CoordId,
    },
    /// Replace `coord:[K]` by `S*coord:[S*K]`.
    Stride {
        /// Coordinate to dilate.
        coord: CoordId,
        /// Dilation factor `S`.
        stride: Size,
    },
    /// Introduce a fresh reduction iterator of the given domain.
    Reduce {
        /// Extent of the new reduction loop.
        domain: Size,
    },
    /// Duplicate `coord`: one copy stays on the data side, the other becomes
    /// a dimension of weight tensor `weight` (created when
    /// `weight == graph.weight_count()`).
    Share {
        /// Coordinate to share with a weight.
        coord: CoordId,
        /// Target weight slot.
        weight: usize,
    },
    /// Assign `coord` (an untransformed output iterator) entirely to weight
    /// tensor `weight` — the implicit `Match` step of §5.3.
    MatchWeight {
        /// Coordinate to move to the weight.
        coord: CoordId,
        /// Target weight slot (must already exist).
        weight: usize,
    },
}

impl Action {
    /// The primitive kind of this action.
    pub fn kind(&self) -> PrimKind {
        match self {
            Action::Split { .. } => PrimKind::Split,
            Action::Merge { .. } => PrimKind::Merge,
            Action::Shift { .. } => PrimKind::Shift,
            Action::Expand { .. } => PrimKind::Expand,
            Action::Unfold { .. } => PrimKind::Unfold,
            Action::Stride { .. } => PrimKind::Stride,
            Action::Reduce { .. } => PrimKind::Reduce,
            Action::Share { .. } => PrimKind::Share,
            Action::MatchWeight { .. } => PrimKind::MatchWeight,
        }
    }

    /// The frontier coordinates this action consumes, in operand order: two
    /// or fewer, yielded without allocating.
    pub fn operands(&self) -> impl Iterator<Item = CoordId> {
        let pair = match self {
            Action::Split { lhs, rhs } => [Some(*lhs), Some(*rhs)],
            Action::Unfold { base, window } => [Some(*base), Some(*window)],
            Action::Merge { coord, .. }
            | Action::Shift { coord }
            | Action::Expand { coord }
            | Action::Stride { coord, .. }
            | Action::Share { coord, .. }
            | Action::MatchWeight { coord, .. } => [Some(*coord), None],
            Action::Reduce { .. } => [None, None],
        };
        pair.into_iter().flatten()
    }

    /// The weight slot touched, if any.
    pub fn weight_slot(&self) -> Option<usize> {
        match self {
            Action::Share { weight, .. } | Action::MatchWeight { weight, .. } => Some(*weight),
            _ => None,
        }
    }

    /// The symbolic parameter of the action, if any.
    pub fn param(&self) -> Option<&Size> {
        match self {
            Action::Merge { block, .. } => Some(block),
            Action::Stride { stride, .. } => Some(stride),
            Action::Reduce { domain } => Some(domain),
            _ => None,
        }
    }

    /// Deterministic total order used for the canonical-interleaving rule:
    /// independent adjacent actions must be applied in non-decreasing order.
    pub fn cmp_canonical(&self, other: &Action) -> Ordering {
        self.kind()
            .rank()
            .cmp(&other.kind().rank())
            .then_with(|| self.operands().cmp(other.operands()))
            .then_with(|| match (self.param(), other.param()) {
                (Some(a), Some(b)) => a.cmp_key(b),
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
            })
            .then_with(|| self.weight_slot().cmp(&other.weight_slot()))
    }

    /// Renders the action with variable names, e.g. `merge(c3, s)`.
    pub fn render(&self, vars: &VarTable) -> String {
        let kind = self.kind();
        let ops: Vec<String> = self.operands().map(|c| format!("c{}", c.0)).collect();
        let mut parts = ops;
        if let Some(p) = self.param() {
            parts.push(format!("{}", p.display(vars)));
        }
        if let Some(w) = self.weight_slot() {
            parts.push(format!("w{w}"));
        }
        format!("{kind}({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CoordId;

    #[test]
    fn ranks_order_views_before_contractions() {
        assert!(PrimKind::Split.rank() < PrimKind::Reduce.rank());
        assert!(PrimKind::Merge.rank() < PrimKind::Share.rank());
        assert!(PrimKind::Unfold.rank() < PrimKind::Reduce.rank());
        assert!(PrimKind::Share.rank() < PrimKind::MatchWeight.rank());
    }

    #[test]
    fn action_metadata() {
        let a = Action::Split {
            lhs: CoordId(0),
            rhs: CoordId(1),
        };
        assert_eq!(a.kind(), PrimKind::Split);
        assert!(a.operands().eq([CoordId(0), CoordId(1)]));
        assert_eq!(a.param(), None);
        assert_eq!(a.weight_slot(), None);

        let r = Action::Reduce {
            domain: Size::constant(3),
        };
        assert_eq!(r.operands().next(), None);
        assert_eq!(r.param(), Some(&Size::constant(3)));

        let s = Action::Share {
            coord: CoordId(2),
            weight: 0,
        };
        assert_eq!(s.weight_slot(), Some(0));
    }

    #[test]
    fn canonical_order_is_total_on_samples() {
        let a = Action::Shift { coord: CoordId(0) };
        let b = Action::Shift { coord: CoordId(1) };
        let c = Action::Reduce {
            domain: Size::constant(2),
        };
        let d = Action::Reduce {
            domain: Size::constant(3),
        };
        assert_eq!(a.cmp_canonical(&b), Ordering::Less);
        assert_eq!(b.cmp_canonical(&a), Ordering::Greater);
        assert_eq!(a.cmp_canonical(&c), Ordering::Less);
        assert_eq!(c.cmp_canonical(&d), Ordering::Less);
        assert_eq!(c.cmp_canonical(&c.clone()), Ordering::Equal);
    }

    #[test]
    fn every_kind_has_unique_rank() {
        let mut ranks: Vec<u8> = PrimKind::ALL.iter().map(|k| k.rank()).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), PrimKind::ALL.len());
    }
}
