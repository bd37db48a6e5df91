//! The primitive graph (*pGraph*, §5.1): Syno's operator representation.
//!
//! A pGraph records a sequence of primitive applications over a *frontier*
//! of coordinate expressions. The frontier starts as the output tensor's
//! iterators; each [`Action`] consumes and produces frontier coordinates
//! bottom-up. A graph is *complete* when the frontier matches the desired
//! input shape (up to permutation — the paper allows a final transpose) and
//! every quality invariant holds; a complete graph denotes the operator
//!
//! ```text
//! out[i₀, …, iₙ] = Σ_{reduce iters} input[top exprs] · Π_w weight_w[its exprs]
//! ```
//!
//! Graphs are persistent values: [`PGraph::apply`] returns a new graph,
//! leaving the original untouched, which is what the tree search needs.

use crate::expr::{AtomId, AtomKind, ExprArena, ExprId};
use crate::primitive::{Action, PrimKind};
use crate::size::Size;
use crate::spec::OperatorSpec;
use crate::var::{VarKind, VarTable};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifies a coordinate (an edge of the pGraph). Coordinates are never
/// deleted; the frontier lists the currently live ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoordId(pub(crate) u32);

impl CoordId {
    /// Dense index of this coordinate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies an applied primitive (a node of the pGraph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a coordinate came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoordOrigin {
    /// Seeded from output dimension `dim` of the specification.
    OutputDim(usize),
    /// Produced by `node` at output port `port`.
    Node {
        /// The producing primitive application.
        node: NodeId,
        /// Which of the node's outputs this is.
        port: u8,
    },
}

/// Metadata for one coordinate.
#[derive(Clone, Debug)]
pub struct CoordInfo {
    /// The coordinate expression.
    pub expr: ExprId,
    /// Provenance.
    pub origin: CoordOrigin,
    /// `true` once the coordinate's history passes through a contraction
    /// (`Reduce`/`Share`); used by ordering canonicalization diagnostics.
    pub after_contraction: bool,
}

/// One applied primitive.
#[derive(Clone, Debug)]
pub struct Node {
    /// The action that was applied; its [`operands`](Action::operands) are
    /// the coordinates it consumed from the frontier.
    pub action: Action,
    /// The first `ports` entries are the coordinates produced onto the
    /// frontier; inline, so cloning a graph allocates nothing per node.
    produced: [CoordId; 2],
    ports: u8,
}

impl Node {
    /// Coordinates produced onto the frontier, in port order.
    pub fn produced(&self) -> &[CoordId] {
        &self.produced[..usize::from(self.ports)]
    }
}

/// One dimension of a weight tensor.
#[derive(Clone, Debug)]
pub struct WeightDim {
    /// The coordinate expression indexing this weight dimension.
    pub expr: ExprId,
    /// The dimension's extent.
    pub domain: Size,
}

/// A weight tensor assembled from `Share`/`MatchWeight` steps.
#[derive(Clone, Debug, Default)]
pub struct WeightTensor {
    /// Dimensions in creation order.
    pub dims: Vec<WeightDim>,
}

impl WeightTensor {
    /// The symbolic parameter count of this tensor, or `None` when it leaves
    /// the size range.
    pub fn numel(&self) -> Option<Size> {
        Size::product(self.dims.iter().map(|d| &d.domain))
    }
}

/// The refusal of a `Split`, `Merge` or `Stride` whose domain would leave
/// the representable size range.
const OVERFLOW: ApplyError =
    ApplyError::InvalidParam("the resulting domain leaves the size range");

/// Errors returned by [`PGraph::apply`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ApplyError {
    /// An operand is not currently on the frontier.
    NotInFrontier(CoordId),
    /// The same coordinate was passed twice.
    DuplicateOperand(CoordId),
    /// A size parameter is not a valid integer ≥ 2 under every valuation,
    /// violates the primary-variable denominator rule (§5.4), or would make
    /// a domain no [`Size`] can hold (an exponent past `i8`).
    InvalidParam(&'static str),
    /// `Merge`'s block does not divide the coordinate's domain.
    NotDivisible,
    /// `Unfold`'s window is not strictly smaller than its base under every
    /// valuation.
    WindowTooLarge,
    /// A weight slot beyond `weight_count()` was referenced (`Share` may
    /// append exactly one new slot; `MatchWeight` may not create slots).
    BadWeightSlot(usize),
    /// `MatchWeight` applied to a coordinate that is not a bare output
    /// iterator.
    MatchNotAtom,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NotInFrontier(c) => write!(f, "coordinate c{} is not on the frontier", c.0),
            ApplyError::DuplicateOperand(c) => {
                write!(f, "coordinate c{} used as both operands", c.0)
            }
            ApplyError::InvalidParam(why) => write!(f, "invalid size parameter: {why}"),
            ApplyError::NotDivisible => write!(f, "merge block does not divide the domain"),
            ApplyError::WindowTooLarge => write!(f, "unfold window not smaller than its base"),
            ApplyError::BadWeightSlot(w) => write!(f, "weight slot {w} out of range"),
            ApplyError::MatchNotAtom => {
                write!(f, "match requires an untransformed output iterator")
            }
        }
    }
}

impl Error for ApplyError {}

/// What a valid action does to the frontier, decided on the parent alone:
/// the operand slots it vacates and the domains it puts back.
struct FrontierEdit {
    /// Frontier positions of the operands, in operand order.
    gone: [Option<usize>; 2],
    /// Where the produced coordinates go, clamped to the shrunk frontier.
    at: usize,
    /// Domains of the produced coordinates, in port order.
    put: [Option<Size>; 2],
}

/// The primitive graph: a persistent synthesis state.
///
/// # Examples
///
/// Build the matmul pGraph of Table 2 by hand:
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
/// use syno_core::spec::{OperatorSpec, TensorShape};
/// use syno_core::graph::PGraph;
/// use syno_core::primitive::Action;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let m = vars.declare("M", VarKind::Primary);
/// let n = vars.declare("Nv", VarKind::Primary);
/// let k = vars.declare("K", VarKind::Primary);
/// vars.push_valuation(vec![(m, 4), (n, 5), (k, 6)]);
/// let spec = OperatorSpec::new(
///     TensorShape::new(vec![Size::var(m), Size::var(k)]),
///     TensorShape::new(vec![Size::var(m), Size::var(n)]),
/// );
/// let g = PGraph::new(vars.into_shared(), spec);
/// let frontier = g.frontier().to_vec();
/// let g = g.apply(&Action::Reduce { domain: Size::var(k) })?;
/// let r = *g.frontier().last().unwrap();
/// let g = g.apply(&Action::Share { coord: r, weight: 0 })?;
/// let g = g.apply(&Action::MatchWeight { coord: frontier[1], weight: 0 })?;
/// assert!(g.is_complete());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PGraph {
    vars: Arc<VarTable>,
    spec: Arc<OperatorSpec>,
    arena: ExprArena,
    coords: Vec<CoordInfo>,
    nodes: Vec<Node>,
    frontier: Vec<CoordId>,
    weights: Vec<WeightTensor>,
    /// Output atoms in spec-output order.
    output_atoms: Vec<AtomId>,
    /// Reduce atoms in creation order.
    reduce_atoms: Vec<AtomId>,
    counts: [u32; 9],
}

impl PGraph {
    /// Starts a fresh synthesis state whose frontier is the output iterators
    /// of `spec`.
    pub fn new(vars: Arc<VarTable>, spec: OperatorSpec) -> Self {
        let mut arena = ExprArena::new();
        let mut coords = Vec::new();
        let mut frontier = Vec::new();
        let mut output_atoms = Vec::new();
        for (dim, size) in spec.output.dims().iter().enumerate() {
            let atom = arena.atom(AtomKind::Output, size.clone());
            output_atoms.push(atom);
            let expr = arena.expr_atom(atom);
            let id = CoordId(coords.len() as u32);
            coords.push(CoordInfo {
                expr,
                origin: CoordOrigin::OutputDim(dim),
                after_contraction: false,
            });
            frontier.push(id);
        }
        PGraph {
            vars,
            spec: Arc::new(spec),
            arena,
            coords,
            nodes: Vec::new(),
            frontier,
            weights: Vec::new(),
            output_atoms,
            reduce_atoms: Vec::new(),
            counts: [0; 9],
        }
    }

    /// The shared variable table.
    pub fn vars(&self) -> &Arc<VarTable> {
        &self.vars
    }

    /// The specification this graph synthesizes toward.
    pub fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    /// The expression arena (read-only).
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// Current frontier coordinates, in order.
    pub fn frontier(&self) -> &[CoordId] {
        &self.frontier
    }

    /// Domains of the frontier coordinates, in order.
    pub fn frontier_sizes(&self) -> Vec<Size> {
        self.frontier
            .iter()
            .map(|&c| self.coord_domain(c).clone())
            .collect()
    }

    /// Metadata of a coordinate.
    pub fn coord(&self, coord: CoordId) -> &CoordInfo {
        &self.coords[coord.index()]
    }

    /// The expression of a coordinate.
    pub fn coord_expr(&self, coord: CoordId) -> ExprId {
        self.coords[coord.index()].expr
    }

    /// The domain of a coordinate.
    pub fn coord_domain(&self, coord: CoordId) -> &Size {
        self.arena.domain(self.coords[coord.index()].expr)
    }

    /// The primitive kind that produced a coordinate, if any.
    pub fn producer_kind(&self, coord: CoordId) -> Option<PrimKind> {
        match self.coords[coord.index()].origin {
            CoordOrigin::OutputDim(_) => None,
            CoordOrigin::Node { node, .. } => Some(self.nodes[node.index()].action.kind()),
        }
    }

    /// The producing node of a coordinate, if any.
    pub fn producer(&self, coord: CoordId) -> Option<(&Node, u8)> {
        match self.coords[coord.index()].origin {
            CoordOrigin::OutputDim(_) => None,
            CoordOrigin::Node { node, port } => Some((&self.nodes[node.index()], port)),
        }
    }

    /// Applied primitives in application order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The most recently applied primitive.
    pub fn last_node(&self) -> Option<&Node> {
        self.nodes.last()
    }

    /// Number of applied primitives (the paper's *pGraph size*).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no primitive has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of weight tensors.
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// The weight tensors.
    pub fn weights(&self) -> &[WeightTensor] {
        &self.weights
    }

    /// Output iterator atoms, in output-dimension order.
    pub fn output_atoms(&self) -> &[AtomId] {
        &self.output_atoms
    }

    /// The coordinates that seeded the frontier, one per output dimension in
    /// specification order (they are the first `rank` coordinates).
    pub fn output_coords(&self) -> Vec<CoordId> {
        (0..self.spec.output.rank() as u32).map(CoordId).collect()
    }

    /// Reduction iterator atoms, in creation order.
    pub fn reduce_atoms(&self) -> &[AtomId] {
        &self.reduce_atoms
    }

    /// How many times primitives of `kind` were applied.
    pub fn count(&self, kind: PrimKind) -> u32 {
        self.counts[kind.rank() as usize]
    }

    fn frontier_pos(&self, coord: CoordId) -> Result<usize, ApplyError> {
        self.frontier
            .iter()
            .position(|&c| c == coord)
            .ok_or(ApplyError::NotInFrontier(coord))
    }

    fn new_coord(&mut self, expr: ExprId, node: NodeId, port: u8, after_contraction: bool) -> CoordId {
        let id = CoordId(self.coords.len() as u32);
        self.coords.push(CoordInfo {
            expr,
            origin: CoordOrigin::Node { node, port },
            after_contraction,
        });
        id
    }

    fn check_param_coefficient_only(&self, size: &Size) -> Result<(), ApplyError> {
        if !size.is_at_least(&self.vars, 2) {
            return Err(ApplyError::InvalidParam("must be an integer >= 2"));
        }
        let has_primary = size
            .powers()
            .any(|(v, _)| self.vars.kind(v) == VarKind::Primary);
        if has_primary {
            return Err(ApplyError::InvalidParam(
                "primary variables may not appear in expression denominators",
            ));
        }
        Ok(())
    }

    /// Frontier positions of the two distinct operands of `Split`/`Unfold`.
    fn frontier_pair(&self, a: CoordId, b: CoordId) -> Result<(usize, usize), ApplyError> {
        if a == b {
            return Err(ApplyError::DuplicateOperand(a));
        }
        Ok((self.frontier_pos(a)?, self.frontier_pos(b)?))
    }

    /// Decides, on this graph alone, whether `action` is valid and what it
    /// would do to the frontier. The single source of every [`ApplyError`]:
    /// [`peek`](PGraph::peek) and [`apply`](PGraph::apply) both start here,
    /// so a rejected action never costs a clone.
    fn validate(&self, action: &Action) -> Result<FrontierEdit, ApplyError> {
        let dom = |c: &CoordId| self.coord_domain(*c);
        let unary = |pos: usize, put| FrontierEdit {
            gone: [Some(pos), None],
            at: pos,
            put,
        };
        let binary = |(lpos, rpos): (usize, usize), put| FrontierEdit {
            gone: [Some(lpos), Some(rpos)],
            at: lpos,
            put,
        };
        Ok(match action {
            Action::Split { lhs, rhs } => {
                let at = self.frontier_pair(*lhs, *rhs)?;
                let product = dom(lhs).checked_mul(dom(rhs)).ok_or(OVERFLOW)?;
                binary(at, [Some(product), None])
            }
            Action::Merge { coord, block } => {
                let pos = self.frontier_pos(*coord)?;
                self.check_param_coefficient_only(block)?;
                // `block` divides the domain exactly when the quotient is a
                // positive integer under every valuation.
                let quotient = dom(coord).checked_div(block).ok_or(OVERFLOW)?;
                if !quotient.is_at_least(&self.vars, 1) {
                    return Err(ApplyError::NotDivisible);
                }
                unary(pos, [Some(quotient), Some(block.clone())])
            }
            Action::Shift { coord } => {
                unary(self.frontier_pos(*coord)?, [Some(dom(coord).clone()), None])
            }
            Action::Expand { coord } => unary(self.frontier_pos(*coord)?, [None, None]),
            Action::Unfold { base, window } => {
                let at = self.frontier_pair(*base, *window)?;
                if !dom(window).is_at_least(&self.vars, 2) {
                    return Err(ApplyError::InvalidParam("window must be >= 2"));
                }
                // The window must be materially smaller than the base under
                // every valuation (at least 2x), otherwise a large share of
                // the window accesses clip to zero.
                if !dom(base).is_much_greater(dom(window), &self.vars, 2) {
                    return Err(ApplyError::WindowTooLarge);
                }
                binary(at, [Some(dom(base).clone()), None])
            }
            Action::Stride { coord, stride } => {
                let pos = self.frontier_pos(*coord)?;
                self.check_param_coefficient_only(stride)?;
                let product = dom(coord).checked_mul(stride).ok_or(OVERFLOW)?;
                unary(pos, [Some(product), None])
            }
            Action::Reduce { domain } => {
                if !domain.is_at_least(&self.vars, 2) {
                    return Err(ApplyError::InvalidParam("reduce domain must be >= 2"));
                }
                if !domain.primaries_nonnegative(&self.vars) {
                    return Err(ApplyError::InvalidParam(
                        "primary variables may not appear inverted in a reduce domain",
                    ));
                }
                FrontierEdit {
                    gone: [None, None],
                    at: self.frontier.len(),
                    put: [Some(domain.clone()), None],
                }
            }
            Action::Share { coord, weight } => {
                let pos = self.frontier_pos(*coord)?;
                if *weight > self.weights.len() {
                    return Err(ApplyError::BadWeightSlot(*weight));
                }
                unary(pos, [Some(dom(coord).clone()), None])
            }
            Action::MatchWeight { coord, weight } => {
                let pos = self.frontier_pos(*coord)?;
                if *weight >= self.weights.len() {
                    return Err(ApplyError::BadWeightSlot(*weight));
                }
                let bare_output = matches!(
                    self.arena.node(self.coord_expr(*coord)),
                    crate::expr::ExprNode::Atom(a)
                        if self.arena.atom_info(*a).kind == AtomKind::Output
                );
                if !bare_output {
                    return Err(ApplyError::MatchNotAtom);
                }
                unary(pos, [None, None])
            }
        })
    }

    /// The frontier domains `action` would leave behind, in order — exactly
    /// `self.apply(action)?.frontier_sizes()`, with the same error otherwise —
    /// decided on this graph without building the child. Validity and the
    /// child's shape are functions of the parent and the action alone, so
    /// guided synthesis filters candidates here and applies only survivors.
    ///
    /// # Errors
    ///
    /// Returns the [`ApplyError`] that [`apply`](PGraph::apply) would.
    pub fn peek(&self, action: &Action) -> Result<Vec<Size>, ApplyError> {
        let mut sizes = Vec::with_capacity(self.frontier.len() + 1);
        self.peek_into(action, &mut sizes)?;
        Ok(sizes)
    }

    /// [`peek`](PGraph::peek) into `sizes`, which is cleared first: a buffer
    /// of capacity `frontier().len() + 1` holds every child's frontier, so
    /// one buffer serves all of a state's candidates without reallocating.
    pub(crate) fn peek_into(
        &self,
        action: &Action,
        sizes: &mut Vec<Size>,
    ) -> Result<(), ApplyError> {
        let edit = self.validate(action)?;
        sizes.clear();
        for (pos, &c) in self.frontier.iter().enumerate() {
            if !edit.gone.contains(&Some(pos)) {
                sizes.push(self.coord_domain(c).clone());
            }
        }
        let (at, kept) = (edit.at.min(sizes.len()), sizes.len());
        sizes.extend(edit.put.into_iter().flatten());
        let put = sizes.len() - kept;
        sizes[at..].rotate_right(put);
        Ok(())
    }

    /// Applies `action`, returning the successor state.
    ///
    /// This checks *validity* (shape algebra, §5.4 restrictions); whether the
    /// step is *canonical* is a separate question answered by
    /// [`crate::canon::CanonRules::allows`].
    ///
    /// # Errors
    ///
    /// Returns an [`ApplyError`] when an operand is missing from the
    /// frontier, a parameter is malformed, divisibility fails, the unfold
    /// window is too large, or a weight slot is out of range.
    pub fn apply(&self, action: &Action) -> Result<PGraph, ApplyError> {
        let edit = self.validate(action)?;
        let mut g = self.clone();
        let expr = |c: &CoordId| self.coord_expr(*c);
        let after = |c: &CoordId| self.coords[c.index()].after_contraction;

        // Expressions of the produced coordinates in port order, and whether
        // their history passes through a contraction.
        let (exprs, contracted) = match action {
            Action::Split { lhs, rhs } => (
                [Some(g.arena.affine(expr(lhs), expr(rhs))), None],
                after(lhs) || after(rhs),
            ),
            Action::Merge { coord, block } => (
                [
                    Some(g.arena.div(expr(coord), block.clone())),
                    Some(g.arena.modulo(expr(coord), block.clone())),
                ],
                after(coord),
            ),
            Action::Shift { coord } => ([Some(g.arena.shift(expr(coord))), None], after(coord)),
            Action::Unfold { base, window } => (
                [Some(g.arena.unfold(expr(base), expr(window))), None],
                after(base) || after(window),
            ),
            Action::Stride { coord, stride } => (
                [Some(g.arena.stride(expr(coord), stride.clone())), None],
                after(coord),
            ),
            Action::Reduce { domain } => {
                let atom = g.arena.atom(AtomKind::Reduce, domain.clone());
                g.reduce_atoms.push(atom);
                ([Some(g.arena.expr_atom(atom)), None], true)
            }
            Action::Share { coord, weight } | Action::MatchWeight { coord, weight } => {
                if *weight == g.weights.len() {
                    g.weights.push(WeightTensor::default());
                }
                let dim = WeightDim {
                    expr: expr(coord),
                    domain: self.coord_domain(*coord).clone(),
                };
                g.weights[*weight].dims.push(dim);
                let copy = matches!(action, Action::Share { .. }).then(|| expr(coord));
                ([copy, None], true)
            }
            Action::Expand { .. } => ([None, None], false),
        };

        let mut node = Node {
            action: action.clone(),
            produced: [CoordId(0); 2],
            ports: 0,
        };
        let node_id = NodeId(g.nodes.len() as u32);
        for e in exprs.into_iter().flatten() {
            node.produced[usize::from(node.ports)] =
                g.new_coord(e, node_id, node.ports, contracted);
            node.ports += 1;
        }
        g.frontier.retain(|&c| !action.operands().any(|o| o == c));
        let at = edit.at.min(g.frontier.len());
        g.frontier.splice(at..at, node.produced().iter().copied());

        g.counts[action.kind().rank() as usize] += 1;
        g.nodes.push(node);
        Ok(g)
    }

    /// `true` when every `Stride` output has been consumed — leftover strided
    /// coordinates would skip input elements (a quality violation, §5.2).
    pub fn strides_consumed(&self) -> bool {
        self.frontier
            .iter()
            .all(|&c| self.producer_kind(c) != Some(PrimKind::Stride))
    }

    /// Finds a permutation matching the frontier onto the desired input
    /// shape: `perm[frontier_slot] = input_dim`. `None` when the multiset of
    /// domains differs or a quality invariant fails.
    pub fn match_input(&self) -> Option<Vec<usize>> {
        if !self.strides_consumed() {
            return None;
        }
        let want = self.spec.input.dims();
        if self.frontier.len() != want.len() {
            return None;
        }
        let have = self.frontier_sizes();
        // Backtracking bipartite match (shapes are tiny).
        let mut used = vec![false; want.len()];
        let mut perm = vec![usize::MAX; have.len()];
        fn go(
            slot: usize,
            have: &[Size],
            want: &[Size],
            used: &mut [bool],
            perm: &mut [usize],
        ) -> bool {
            if slot == have.len() {
                return true;
            }
            for (dim, w) in want.iter().enumerate() {
                if !used[dim] && &have[slot] == w {
                    used[dim] = true;
                    perm[slot] = dim;
                    if go(slot + 1, have, want, used, perm) {
                        return true;
                    }
                    used[dim] = false;
                }
            }
            false
        }
        if go(0, &have, want, &mut used, &mut perm) {
            Some(perm)
        } else {
            None
        }
    }

    /// `true` when the graph denotes a valid operator for its specification.
    pub fn is_complete(&self) -> bool {
        self.match_input().is_some()
    }

    /// A semantic state hash: identical for graphs whose frontier expression
    /// multiset and weight tensors coincide, regardless of application
    /// history. Used for MCTS transpositions and duplicate filtering.
    ///
    /// Computed with the deterministic
    /// [`StableHasher`](crate::stable::StableHasher) (64-bit FNV-1a), so the
    /// value is identical across platforms and Rust releases — in-memory
    /// dedup and the on-disk keys of the `syno-store` candidate store agree
    /// by construction. `DefaultHasher` must never reappear here: its output
    /// is not stable and would silently invalidate persisted stores.
    pub fn state_hash(&self) -> u64 {
        use crate::stable::StableHasher;
        use std::hash::{Hash, Hasher};
        let mut frontier: Vec<u64> = self
            .frontier
            .iter()
            .map(|&c| self.arena.structural_hash(self.coord_expr(c)))
            .collect();
        frontier.sort_unstable();
        let mut weights: Vec<u64> = self
            .weights
            .iter()
            .map(|w| {
                let mut dims: Vec<u64> = w
                    .dims
                    .iter()
                    .map(|d| self.arena.structural_hash(d.expr))
                    .collect();
                dims.sort_unstable();
                let mut h = StableHasher::new();
                dims.hash(&mut h);
                h.finish()
            })
            .collect();
        weights.sort_unstable();
        let mut h = StableHasher::new();
        frontier.hash(&mut h);
        weights.hash(&mut h);
        h.finish()
    }

    /// The persistent content address of this operator: the semantic
    /// [`state_hash`](PGraph::state_hash) combined with a fingerprint of the
    /// specification it synthesizes toward (shapes and valuations).
    ///
    /// Two graphs share a content hash exactly when they denote the same
    /// operator for the same concrete specification, which is the key the
    /// `syno-store` journal uses for cross-run deduplication and evaluation
    /// caching. Like `state_hash`, the value is computed with the
    /// deterministic [`StableHasher`](crate::stable::StableHasher) and is
    /// safe to persist.
    pub fn content_hash(&self) -> u64 {
        use crate::stable::StableHasher;
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        self.spec.fingerprint(&self.vars).hash(&mut h);
        self.state_hash().hash(&mut h);
        h.finish()
    }

    /// Human-readable multi-line rendering of the graph.
    pub fn render(&self) -> String {
        let vars = &self.vars;
        let mut out = String::new();
        out.push_str(&format!(
            "spec: {} <- {}\n",
            self.spec.output.display(vars),
            self.spec.input.display(vars)
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  {i}: {}\n", n.action.render(vars)));
        }
        out.push_str("frontier:");
        for &c in &self.frontier {
            out.push_str(&format!(
                " {}:{}",
                self.arena.render(self.coord_expr(c), vars),
                self.coord_domain(c).display(vars)
            ));
        }
        out.push('\n');
        for (wi, w) in self.weights.iter().enumerate() {
            out.push_str(&format!("weight {wi}:"));
            for d in &w.dims {
                out.push_str(&format!(
                    " {}:{}",
                    self.arena.render(d.expr, vars),
                    d.domain.display(vars)
                ));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;
    use crate::spec::TensorShape;
    use crate::var::{VarKind, VarTable};

    fn conv_spec() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let ci = vars.declare("Ci", VarKind::Primary);
        let co = vars.declare("Co", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 2), (ci, 8), (co, 16), (h, 12), (w, 12), (k, 3)]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(n), Size::var(ci), Size::var(h), Size::var(w)]),
            TensorShape::new(vec![Size::var(n), Size::var(co), Size::var(h), Size::var(w)]),
        );
        (vars.into_shared(), spec)
    }

    /// Builds the full conv2d pGraph of Fig. 2 and checks completeness.
    #[test]
    fn conv2d_composes() {
        let (vars, spec) = conv_spec();
        let k = Size::var(vars.find("k").unwrap());
        let ci = Size::var(vars.find("Ci").unwrap());
        let g = PGraph::new(vars, spec);
        let [_, i_co, i_h, i_w]: [CoordId; 4] = g.frontier().try_into().unwrap();

        let g = g.apply(&Action::Reduce { domain: ci }).unwrap();
        let r_ci = *g.frontier().last().unwrap();
        let g = g.apply(&Action::Reduce { domain: k.clone() }).unwrap();
        let r_kh = *g.frontier().last().unwrap();
        let g = g.apply(&Action::Reduce { domain: k }).unwrap();
        let r_kw = *g.frontier().last().unwrap();

        let g = g
            .apply(&Action::Share {
                coord: r_ci,
                weight: 0,
            })
            .unwrap();
        let in_ci = *g.frontier().last().unwrap();
        assert_eq!(g.weight_count(), 1);
        let g = g
            .apply(&Action::Share {
                coord: r_kh,
                weight: 0,
            })
            .unwrap();
        let win_h = g.frontier()[g.frontier().len() - 2];
        let g = g
            .apply(&Action::Share {
                coord: r_kw,
                weight: 0,
            })
            .unwrap();
        let win_w = *g.frontier().last().unwrap();

        let g = g
            .apply(&Action::Unfold {
                base: i_h,
                window: win_h,
            })
            .unwrap();
        let g = g
            .apply(&Action::Unfold {
                base: i_w,
                window: win_w,
            })
            .unwrap();
        assert!(!g.is_complete(), "Cout not yet matched");
        let g = g
            .apply(&Action::MatchWeight {
                coord: i_co,
                weight: 0,
            })
            .unwrap();
        assert!(g.is_complete());
        assert_eq!(g.weights()[0].dims.len(), 4); // Ci, k, k, Co
        assert_eq!(g.len(), 9);
        let _ = in_ci;
    }

    #[test]
    fn apply_is_persistent() {
        let (vars, spec) = conv_spec();
        let g0 = PGraph::new(vars, spec);
        let g1 = g0
            .apply(&Action::Reduce {
                domain: Size::constant(3),
            })
            .unwrap();
        assert_eq!(g0.len(), 0);
        assert_eq!(g1.len(), 1);
        assert_eq!(g0.frontier().len(), 4);
        assert_eq!(g1.frontier().len(), 5);
    }

    #[test]
    fn merge_requires_divisibility() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let h = g.frontier()[2];
        // H = 12, block 5 does not divide.
        let err = g
            .apply(&Action::Merge {
                coord: h,
                block: Size::constant(5),
            })
            .unwrap_err();
        assert_eq!(err, ApplyError::NotDivisible);
        // block 3 divides.
        let g2 = g
            .apply(&Action::Merge {
                coord: h,
                block: Size::constant(3),
            })
            .unwrap();
        assert_eq!(g2.frontier().len(), 5);
    }

    #[test]
    fn merge_rejects_primary_blocks() {
        let (vars, spec) = conv_spec();
        let ci = Size::var(vars.find("Ci").unwrap());
        let g = PGraph::new(vars, spec);
        let c = g.frontier()[1];
        let err = g
            .apply(&Action::Merge {
                coord: c,
                block: ci,
            })
            .unwrap_err();
        assert!(matches!(err, ApplyError::InvalidParam(_)));
    }

    #[test]
    fn unfold_window_must_be_smaller() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let h = g.frontier()[2];
        let w = g.frontier()[3];
        // H and W are both 12: window not strictly smaller.
        let err = g
            .apply(&Action::Unfold { base: h, window: w })
            .unwrap_err();
        assert_eq!(err, ApplyError::WindowTooLarge);
    }

    #[test]
    fn match_requires_bare_atom() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let h = g.frontier()[2];
        let g = g.apply(&Action::Shift { coord: h }).unwrap();
        let shifted = g.frontier()[2];
        let g = g
            .apply(&Action::Reduce {
                domain: Size::constant(3),
            })
            .unwrap();
        let r = *g.frontier().last().unwrap();
        let g = g.apply(&Action::Share { coord: r, weight: 0 }).unwrap();
        let err = g
            .apply(&Action::MatchWeight {
                coord: shifted,
                weight: 0,
            })
            .unwrap_err();
        assert_eq!(err, ApplyError::MatchNotAtom);
    }

    #[test]
    fn state_hash_ignores_history_order() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let h = g.frontier()[2];
        let w = g.frontier()[3];
        let a = g
            .apply(&Action::Shift { coord: h })
            .unwrap()
            .apply(&Action::Shift { coord: w })
            .unwrap();
        let b = g
            .apply(&Action::Shift { coord: w })
            .unwrap()
            .apply(&Action::Shift { coord: h })
            .unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        assert_ne!(a.state_hash(), g.state_hash());
    }

    #[test]
    fn state_hash_values_are_pinned() {
        // Regression pins for the stable hashing chain (StableHasher →
        // structural_hash → state_hash/content_hash). These exact values are
        // persisted as keys in syno-store journals: if this test fails, the
        // hash function changed and the store's format version must be
        // bumped, or existing stores silently stop matching.
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        assert_eq!(g.state_hash(), 0x56dd5398d566b721);
        assert_eq!(g.content_hash(), 0xeb5a01d3e41eaac0);
        let h = g.frontier()[2];
        let g2 = g.apply(&Action::Shift { coord: h }).unwrap();
        assert_eq!(g2.state_hash(), 0x74c100f689104ed3);
    }

    #[test]
    fn stride_must_be_consumed() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let h = g.frontier()[2];
        let g = g
            .apply(&Action::Stride {
                coord: h,
                stride: Size::constant(2),
            })
            .unwrap();
        assert!(!g.strides_consumed());
        assert!(g.match_input().is_none());
    }

    #[test]
    fn expand_drops_dimension() {
        let (vars, spec) = conv_spec();
        let g = PGraph::new(vars, spec);
        let co = g.frontier()[1];
        let g = g.apply(&Action::Expand { coord: co }).unwrap();
        assert_eq!(g.frontier().len(), 3);
        // Now a Reduce(Ci) completes the operator: sum over input channels,
        // replicate over output channels.
        let ci = Size::var(g.vars().find("Ci").unwrap());
        let g = g.apply(&Action::Reduce { domain: ci }).unwrap();
        assert!(g.is_complete());
    }
}
