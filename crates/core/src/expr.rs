//! Coordinate expressions (§5.1).
//!
//! A coordinate expression indexes a tensor dimension. The atoms are the
//! *output iterators* of the synthesized operator plus the *reduction
//! iterators* introduced by `Reduce`; primitives compose them into richer
//! expressions (`B*i + j` for `Split`, `i / B` and `i % B` for `Merge`,
//! `i + j - K/2` for `Unfold`, …).
//!
//! Expressions live in an append-only, hash-consed [`ExprArena`]: structurally
//! identical expressions share one [`ExprId`], which makes equality checks,
//! canonicalization and lowering cheap. Every expression carries its *domain*
//! (the symbolic size of its value range `[0, domain)`).
//!
//! Out-of-bounds semantics: `Unfold` is the only constructor whose value can
//! leave its domain (the sliding window pokes past the tensor edge); the paper
//! clips such accesses, i.e. they contribute zero. [`ExprArena::eval`]
//! therefore returns `None` exactly when an `Unfold` value is out of range,
//! and code generators translate `None` into a zero contribution (zero
//! padding).

use crate::size::Size;
use crate::var::VarTable;
use std::fmt;

/// Identifies an atom (an output or reduction iterator).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub(crate) u32);

impl AtomId {
    /// Dense index of this atom.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How an atom came to exist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AtomKind {
    /// One of the output tensor's iterators (a spatial loop).
    Output,
    /// Introduced by a `Reduce` primitive (a reduction loop).
    Reduce,
}

/// An iterator atom: kind plus loop domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Whether this is a spatial (output) or reduction iterator.
    pub kind: AtomKind,
    /// The symbolic extent of the loop.
    pub domain: Size,
}

/// Identifies an expression within an [`ExprArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// Dense index of this expression.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One expression node. Constructed only through [`ExprArena`] methods, which
/// compute domains and perform hash-consing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExprNode {
    /// An iterator atom.
    Atom(AtomId),
    /// `block·lhs + rhs` where `block` is the domain of `rhs` — the `Split`
    /// coordinate expression.
    Affine {
        /// The coarse (block-index) part.
        lhs: ExprId,
        /// The fine (within-block) part, with domain `block`.
        rhs: ExprId,
        /// Domain of `rhs`.
        block: Size,
    },
    /// `inner / block` (floor) — the `Merge` quotient.
    Div {
        /// Expression being divided.
        inner: ExprId,
        /// The block size.
        block: Size,
    },
    /// `inner % block` — the `Merge` remainder.
    Mod {
        /// Expression being reduced modulo `block`.
        inner: ExprId,
        /// The block size.
        block: Size,
    },
    /// `(inner + 1) % domain` — the `Shift` rotation.
    Shift {
        /// Expression being shifted.
        inner: ExprId,
        /// Wrap-around modulus (= the domain of `inner`).
        domain: Size,
    },
    /// `stride · inner` — the `Stride` dilation.
    Stride {
        /// Expression being dilated.
        inner: ExprId,
        /// The stride factor.
        stride: Size,
    },
    /// `base + window − window_size/2`, clipped to the domain of `base` —
    /// the `Unfold` sliding-window access. Out-of-range values denote a
    /// zero-padded read.
    Unfold {
        /// The anchor coordinate (domain `N`).
        base: ExprId,
        /// The window coordinate (domain `window_size`).
        window: ExprId,
        /// Domain of `window`; the offset subtracted is `window_size / 2`.
        window_size: Size,
    },
}

/// Append-only, hash-consed arena of coordinate expressions plus the atom
/// table.
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
/// use syno_core::expr::{ExprArena, AtomKind};
///
/// let mut vars = VarTable::new();
/// let h = vars.declare("H", VarKind::Primary);
/// vars.push_valuation(vec![(h, 8)]);
///
/// let mut arena = ExprArena::new();
/// let i = arena.atom(AtomKind::Output, Size::var(h));
/// let e = arena.expr_atom(i);
/// let q = arena.div(e, Size::constant(2));
/// assert_eq!(arena.domain(q), &Size::var(h).div(&Size::constant(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExprArena {
    atoms: Vec<Atom>,
    exprs: Vec<Interned>,
}

/// One interned expression: its node, domain and structural hash.
#[derive(Clone, Debug)]
struct Interned {
    node: ExprNode,
    domain: Size,
    hash: u64,
}

/// A copy of `items` with room for `extra` more, so that many pushes do not
/// reallocate.
pub(crate) fn with_room<T: Clone>(items: &[T], extra: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() + extra);
    out.extend_from_slice(items);
    out
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy with room for `extra` more expressions.
    pub(crate) fn with_room(&self, extra: usize) -> ExprArena {
        ExprArena {
            atoms: self.atoms.clone(),
            exprs: with_room(&self.exprs, extra),
        }
    }

    /// Declares a new iterator atom and returns its id.
    pub fn atom(&mut self, kind: AtomKind, domain: Size) -> AtomId {
        let id = AtomId(self.atoms.len() as u32);
        self.atoms.push(Atom { kind, domain });
        id
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of interned expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Returns `true` when no expressions are interned.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Looks up atom metadata.
    pub fn atom_info(&self, atom: AtomId) -> &Atom {
        &self.atoms[atom.index()]
    }

    /// Iterates over all atoms as `(id, info)` pairs.
    pub fn atoms(&self) -> impl Iterator<Item = (AtomId, &Atom)> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// Hash-consing by a scan: a graph's arena holds a few dozen
    /// expressions, and a lookup table would be cloned with every child.
    fn intern(&mut self, node: ExprNode, domain: Size) -> ExprId {
        if let Some(at) = self.exprs.iter().position(|e| e.node == node) {
            return ExprId(at as u32);
        }
        let id = ExprId(self.exprs.len() as u32);
        let hash = self.hash_node(&node);
        self.exprs.push(Interned { node, domain, hash });
        id
    }

    fn hash_node(&self, node: &ExprNode) -> u64 {
        use crate::stable::StableHasher;
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        // Hash structurally: children are replaced by their structural hash,
        // making the result stable across arenas with different id orders.
        match node {
            ExprNode::Atom(a) => {
                0u8.hash(&mut h);
                a.hash(&mut h);
            }
            ExprNode::Affine { lhs, rhs, block } => {
                1u8.hash(&mut h);
                self.exprs[lhs.index()].hash.hash(&mut h);
                self.exprs[rhs.index()].hash.hash(&mut h);
                block.hash(&mut h);
            }
            ExprNode::Div { inner, block } => {
                2u8.hash(&mut h);
                self.exprs[inner.index()].hash.hash(&mut h);
                block.hash(&mut h);
            }
            ExprNode::Mod { inner, block } => {
                3u8.hash(&mut h);
                self.exprs[inner.index()].hash.hash(&mut h);
                block.hash(&mut h);
            }
            ExprNode::Shift { inner, domain } => {
                4u8.hash(&mut h);
                self.exprs[inner.index()].hash.hash(&mut h);
                domain.hash(&mut h);
            }
            ExprNode::Stride { inner, stride } => {
                5u8.hash(&mut h);
                self.exprs[inner.index()].hash.hash(&mut h);
                stride.hash(&mut h);
            }
            ExprNode::Unfold {
                base,
                window,
                window_size,
            } => {
                6u8.hash(&mut h);
                self.exprs[base.index()].hash.hash(&mut h);
                self.exprs[window.index()].hash.hash(&mut h);
                window_size.hash(&mut h);
            }
        }
        h.finish()
    }

    /// A structural hash stable under hash-consing.
    ///
    /// Computed with the deterministic [`StableHasher`](crate::stable::StableHasher),
    /// so the value is identical across platforms and Rust releases and is
    /// safe to persist (it feeds [`PGraph::state_hash`](crate::graph::PGraph::state_hash)
    /// and the `syno-store` content keys).
    pub fn structural_hash(&self, expr: ExprId) -> u64 {
        self.exprs[expr.index()].hash
    }

    /// The node backing `expr`.
    pub fn node(&self, expr: ExprId) -> &ExprNode {
        &self.exprs[expr.index()].node
    }

    /// The domain (value-range extent) of `expr`.
    pub fn domain(&self, expr: ExprId) -> &Size {
        &self.exprs[expr.index()].domain
    }

    /// The expression consisting of a bare atom.
    pub fn expr_atom(&mut self, atom: AtomId) -> ExprId {
        let domain = self.atoms[atom.index()].domain.clone();
        self.intern(ExprNode::Atom(atom), domain)
    }

    /// `block·lhs + rhs` (Split). `block` must equal the domain of `rhs`.
    pub fn affine(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        let block = self.domain(rhs).clone();
        let domain = self.domain(lhs).mul(&block);
        self.intern(ExprNode::Affine { lhs, rhs, block }, domain)
    }

    /// `inner / block` (Merge quotient).
    pub fn div(&mut self, inner: ExprId, block: Size) -> ExprId {
        let domain = self.domain(inner).div(&block);
        self.intern(ExprNode::Div { inner, block }, domain)
    }

    /// `inner % block` (Merge remainder).
    pub fn modulo(&mut self, inner: ExprId, block: Size) -> ExprId {
        let domain = block.clone();
        self.intern(ExprNode::Mod { inner, block }, domain)
    }

    /// `(inner + 1) % domain` (Shift).
    pub fn shift(&mut self, inner: ExprId) -> ExprId {
        let domain = self.domain(inner).clone();
        self.intern(
            ExprNode::Shift {
                inner,
                domain: domain.clone(),
            },
            domain,
        )
    }

    /// `stride · inner` (Stride).
    pub fn stride(&mut self, inner: ExprId, stride: Size) -> ExprId {
        let domain = self.domain(inner).mul(&stride);
        self.intern(ExprNode::Stride { inner, stride }, domain)
    }

    /// `base + window − window_size/2` with clipping (Unfold).
    pub fn unfold(&mut self, base: ExprId, window: ExprId) -> ExprId {
        let window_size = self.domain(window).clone();
        let domain = self.domain(base).clone();
        self.intern(
            ExprNode::Unfold {
                base,
                window,
                window_size,
            },
            domain,
        )
    }

    /// Evaluates `expr` with concrete atom values under `valuation`.
    ///
    /// Returns `None` when an `Unfold` clips (zero-padded read) or when a
    /// symbolic size fails to evaluate.
    pub fn eval(
        &self,
        expr: ExprId,
        atom_values: &[i64],
        vars: &VarTable,
        valuation: usize,
    ) -> Option<i64> {
        match self.node(expr) {
            ExprNode::Atom(a) => Some(atom_values[a.index()]),
            ExprNode::Affine { lhs, rhs, block } => {
                let b = block.eval(vars, valuation)? as i64;
                let l = self.eval(*lhs, atom_values, vars, valuation)?;
                let r = self.eval(*rhs, atom_values, vars, valuation)?;
                Some(b * l + r)
            }
            ExprNode::Div { inner, block } => {
                let b = block.eval(vars, valuation)? as i64;
                let v = self.eval(*inner, atom_values, vars, valuation)?;
                Some(v.div_euclid(b))
            }
            ExprNode::Mod { inner, block } => {
                let b = block.eval(vars, valuation)? as i64;
                let v = self.eval(*inner, atom_values, vars, valuation)?;
                Some(v.rem_euclid(b))
            }
            ExprNode::Shift { inner, domain } => {
                let d = domain.eval(vars, valuation)? as i64;
                let v = self.eval(*inner, atom_values, vars, valuation)?;
                Some((v + 1).rem_euclid(d))
            }
            ExprNode::Stride { inner, stride } => {
                let s = stride.eval(vars, valuation)? as i64;
                let v = self.eval(*inner, atom_values, vars, valuation)?;
                Some(s * v)
            }
            ExprNode::Unfold {
                base,
                window,
                window_size,
            } => {
                let k = window_size.eval(vars, valuation)? as i64;
                let n = self.domain(*base).eval(vars, valuation)? as i64;
                let b = self.eval(*base, atom_values, vars, valuation)?;
                let w = self.eval(*window, atom_values, vars, valuation)?;
                let v = b + w - k / 2;
                if v < 0 || v >= n {
                    None // clipped: contributes zero
                } else {
                    Some(v)
                }
            }
        }
    }

    /// Collects the atoms referenced by `expr` (deduplicated, in first-visit
    /// order).
    pub fn atoms_of(&self, expr: ExprId) -> Vec<AtomId> {
        let mut seen = Vec::new();
        self.visit_atoms(expr, &mut seen);
        seen
    }

    fn visit_atoms(&self, expr: ExprId, out: &mut Vec<AtomId>) {
        match self.node(expr) {
            ExprNode::Atom(a) => {
                if !out.contains(a) {
                    out.push(*a);
                }
            }
            ExprNode::Affine { lhs, rhs, .. } => {
                self.visit_atoms(*lhs, out);
                self.visit_atoms(*rhs, out);
            }
            ExprNode::Div { inner, .. }
            | ExprNode::Mod { inner, .. }
            | ExprNode::Shift { inner, .. }
            | ExprNode::Stride { inner, .. } => self.visit_atoms(*inner, out),
            ExprNode::Unfold { base, window, .. } => {
                self.visit_atoms(*base, out);
                self.visit_atoms(*window, out);
            }
        }
    }

    /// `true` when `expr` references an atom of `kind`; stops at the first.
    fn mentions(&self, expr: ExprId, kind: AtomKind) -> bool {
        match self.node(expr) {
            ExprNode::Atom(a) => self.atom_info(*a).kind == kind,
            ExprNode::Affine { lhs: a, rhs: b, .. }
            | ExprNode::Unfold {
                base: a, window: b, ..
            } => self.mentions(*a, kind) || self.mentions(*b, kind),
            ExprNode::Div { inner, .. }
            | ExprNode::Mod { inner, .. }
            | ExprNode::Shift { inner, .. }
            | ExprNode::Stride { inner, .. } => self.mentions(*inner, kind),
        }
    }

    /// `true` when `expr` references at least one `Reduce` atom.
    pub fn depends_on_reduce(&self, expr: ExprId) -> bool {
        self.mentions(expr, AtomKind::Reduce)
    }

    /// `true` when `expr` references at least one `Output` atom.
    pub fn depends_on_output(&self, expr: ExprId) -> bool {
        self.mentions(expr, AtomKind::Output)
    }

    /// Renders `expr` with variable names from `vars`, e.g. `(C*i0+i1)/B`.
    pub fn render(&self, expr: ExprId, vars: &VarTable) -> String {
        match self.node(expr) {
            ExprNode::Atom(a) => {
                let prefix = match self.atom_info(*a).kind {
                    AtomKind::Output => "i",
                    AtomKind::Reduce => "r",
                };
                format!("{prefix}{}", a.index())
            }
            ExprNode::Affine { lhs, rhs, block } => format!(
                "({}*{}+{})",
                block.display(vars),
                self.render(*lhs, vars),
                self.render(*rhs, vars)
            ),
            ExprNode::Div { inner, block } => {
                format!("({}/{})", self.render(*inner, vars), block.display(vars))
            }
            ExprNode::Mod { inner, block } => {
                format!("({}%{})", self.render(*inner, vars), block.display(vars))
            }
            ExprNode::Shift { inner, domain } => format!(
                "(({}+1)%{})",
                self.render(*inner, vars),
                domain.display(vars)
            ),
            ExprNode::Stride { inner, stride } => {
                format!("({}*{})", stride.display(vars), self.render(*inner, vars))
            }
            ExprNode::Unfold {
                base,
                window,
                window_size,
            } => format!(
                "({}+{}-{}/2)",
                self.render(*base, vars),
                self.render(*window, vars),
                window_size.display(vars)
            ),
        }
    }
}

impl fmt::Display for ExprArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExprArena({} atoms, {} exprs)",
            self.atoms.len(),
            self.exprs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarKind, VarTable};

    fn setup() -> (VarTable, ExprArena, AtomId, AtomId) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 8), (k, 3)]);
        let mut arena = ExprArena::new();
        let i = arena.atom(AtomKind::Output, Size::var(h));
        let r = arena.atom(AtomKind::Reduce, Size::var(k));
        (vars, arena, i, r)
    }

    #[test]
    fn hash_consing_dedupes() {
        let (_, mut arena, i, _) = setup();
        let a = arena.expr_atom(i);
        let b = arena.expr_atom(i);
        assert_eq!(a, b);
        let d1 = arena.div(a, Size::constant(2));
        let d2 = arena.div(b, Size::constant(2));
        assert_eq!(d1, d2);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn split_merge_domains() {
        let (vars, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let split = arena.affine(ei, er); // k*i + r : [H*k]
        assert_eq!(
            arena.domain(split),
            &Size::var(vars.find("H").unwrap()).mul(&Size::var(vars.find("k").unwrap()))
        );
        let q = arena.div(ei, Size::constant(2));
        let m = arena.modulo(ei, Size::constant(2));
        assert_eq!(
            arena.domain(q),
            &Size::var(vars.find("H").unwrap()).div(&Size::constant(2))
        );
        assert_eq!(arena.domain(m), &Size::constant(2));
    }

    #[test]
    fn eval_split() {
        let (vars, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let split = arena.affine(ei, er);
        // k = 3: value = 3*i + r
        assert_eq!(arena.eval(split, &[2, 1], &vars, 0), Some(7));
    }

    #[test]
    fn eval_merge_quotient_remainder() {
        let (vars, mut arena, i, _) = setup();
        let ei = arena.expr_atom(i);
        let q = arena.div(ei, Size::constant(4));
        let m = arena.modulo(ei, Size::constant(4));
        assert_eq!(arena.eval(q, &[7, 0], &vars, 0), Some(1));
        assert_eq!(arena.eval(m, &[7, 0], &vars, 0), Some(3));
    }

    #[test]
    fn eval_shift_wraps() {
        let (vars, mut arena, i, _) = setup();
        let ei = arena.expr_atom(i);
        let s = arena.shift(ei);
        assert_eq!(arena.eval(s, &[7, 0], &vars, 0), Some(0)); // (7+1)%8
        assert_eq!(arena.eval(s, &[3, 0], &vars, 0), Some(4));
    }

    #[test]
    fn eval_unfold_clips() {
        let (vars, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let u = arena.unfold(ei, er); // i + r - 1, H=8, k=3
        assert_eq!(arena.eval(u, &[0, 0], &vars, 0), None); // -1 clipped
        assert_eq!(arena.eval(u, &[0, 1], &vars, 0), Some(0));
        assert_eq!(arena.eval(u, &[7, 2], &vars, 0), None); // 8 clipped
        assert_eq!(arena.eval(u, &[7, 1], &vars, 0), Some(7));
    }

    #[test]
    fn eval_stride_dilates() {
        let (vars, mut arena, _, r) = setup();
        let er = arena.expr_atom(r);
        let s = arena.stride(er, Size::constant(2));
        assert_eq!(arena.eval(s, &[0, 2], &vars, 0), Some(4));
        assert_eq!(
            arena.domain(s),
            &Size::var(vars.find("k").unwrap()).mul(&Size::constant(2))
        );
    }

    #[test]
    fn atom_dependencies() {
        let (_, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let u = arena.unfold(ei, er);
        assert!(arena.depends_on_reduce(u));
        assert!(arena.depends_on_output(u));
        assert!(!arena.depends_on_reduce(ei));
        assert_eq!(arena.atoms_of(u), vec![i, r]);
    }

    #[test]
    fn render_is_readable() {
        let (vars, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let u = arena.unfold(ei, er);
        let s = arena.render(u, &vars);
        assert_eq!(s, "(i0+r1-k/2)");
    }

    #[test]
    fn structural_hash_distinguishes() {
        let (_, mut arena, i, r) = setup();
        let ei = arena.expr_atom(i);
        let er = arena.expr_atom(r);
        let a = arena.div(ei, Size::constant(2));
        let b = arena.modulo(ei, Size::constant(2));
        assert_ne!(arena.structural_hash(a), arena.structural_hash(b));
        let u1 = arena.unfold(ei, er);
        let u2 = arena.unfold(ei, er);
        assert_eq!(arena.structural_hash(u1), arena.structural_hash(u2));
    }
}
