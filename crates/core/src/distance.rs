//! Shape distance (§7.1): how many primitives are still needed to match the
//! desired input shape.
//!
//! Random primitive composition almost never lands on the exact input shape,
//! so Algorithm 1 guides synthesis with the *shape distance*: an estimate of
//! the minimum number of further primitives needed to transform the current
//! frontier into the desired shape. A partial pGraph is pruned as soon as
//! `distance > remaining steps` (§9.4 shows unguided sampling finds *zero*
//! valid operators in 500M trials).
//!
//! Following the paper, the estimate is built from *reshape groups*:
//!
//! 1. Exactly matching dimensions cancel first (cost 0).
//! 2. Remaining dimensions are grouped by the primary variables they
//!    mention (union-find over co-occurrence).
//! 3. A group whose primary factors balance costs `max(0, #lhs + #rhs − 2)`
//!    reshape steps (`Merge`/`Split` regroupings), plus one extra step when
//!    its coefficient factors differ (a 1-to-many primitive is then needed).
//! 4. An unbalanced group costs one step per member: each leftover frontier
//!    dimension must be eliminated (`MatchWeight`, `Expand`, or as an
//!    `Unfold` window) and each uncovered desired dimension created
//!    (`Reduce`).
//! 5. Leftover coefficient-only dimensions likewise cost one step each.
//!
//! The result reproduces the paper's worked example: the distance from
//! `[C_in, s⁻¹H, sW, k]` to `[C_in, H, W]` is 3.
//!
//! Synthesis only asks whether the distance fits the steps left, and
//! [`shape_distance_within`] answers most of those questions from step 1
//! alone. Let `L` be the number of dimensions left after cancellation.
//!
//! * The distance is at most `L`: placing every loose dim on its own, each
//!   group costs at most its members and every other dim one step. So
//!   `L <= budget` fits, whatever the sizes.
//! * The distance is at least `L / 3` and at least the rank gap
//!   `|current.len() − desired.len()|`, provided that no size on either side
//!   has a negative exponent on a primary variable. Under that invariant,
//!   every group whose primaries balance holds a dimension of each side,
//!   and its two dimensions are unequal when it has only two. So each group
//!   costs at least a third of its members, and at least the difference
//!   between its two sides. `L > 3·budget` or a gap over `budget` is
//!   refused.
//! * Under the same invariant, a distance of 1 is one group's step: two
//!   dims left, one a side, whose primaries balance; or three, on both
//!   sides, whose two sides' products are equal. A coefficient-only desired
//!   dim costs a step of its own. So two or three dims left settle a budget
//!   of 1, and a fit for any budget, without grouping.
//!
//! Synthesis keeps the invariant where it admits sizes: `Merge` and
//! `Stride` parameters mention no primary, and a `Reduce` domain may not
//! invert one. A spec is not held to it, so [`shape_distance_within`]
//! checks it before using either of the last two rules, and the child
//! filter checks it once per state and on each edit's new domains.

use crate::size::{Size, MAX_VARS};
use crate::var::VarTable;

/// How many desired dimensions have their exact-match flags on the stack; a
/// longer input shape keeps them in one heap buffer instead.
const INLINE_RANK: usize = 16;

/// How many coefficient-only frontier dimensions have their placement
/// enumerated; the rest each cost one step on their own.
const MAX_ENUMERATED: usize = 4;

/// A reshape group: how many primary-bearing dims it holds, and the
/// quotient of (product of its frontier dims) over (product of its desired
/// dims) as a dense exponent row and a constant fraction that is never
/// reduced, so the two products are equal exactly when the row is zero and
/// the fraction is 1.
#[derive(Clone, Copy)]
struct Group {
    members: u32,
    exps: [i32; MAX_VARS],
    ratio: (u128, u128),
}

impl Group {
    const EMPTY: Group = Group {
        members: 0,
        exps: [0; MAX_VARS],
        ratio: (1, 1),
    };

    /// Folds in one dimension: `side` is `+1` on the frontier side and `-1`
    /// on the desired side.
    fn add(&mut self, size: &Size, side: i32) {
        for (e, &x) in self.exps.iter_mut().zip(size.exps()) {
            *e += side * i32::from(x);
        }
        let (num, den) = size.constant_factor();
        let (num, den) = if side > 0 { (num, den) } else { (den, num) };
        self.scale((num.into(), den.into()));
    }

    /// Folds in another group. Saturating products of factors `>= 1` do not
    /// depend on the order they are taken in.
    fn absorb(&mut self, other: &Group) {
        self.members += other.members;
        for (e, &x) in self.exps.iter_mut().zip(&other.exps) {
            *e += x;
        }
        self.scale(other.ratio);
    }

    fn scale(&mut self, (num, den): (u128, u128)) {
        self.ratio = (
            self.ratio.0.saturating_mul(num),
            self.ratio.1.saturating_mul(den),
        );
    }

    /// Whether the frontier and desired products are equal.
    fn balances(&self) -> bool {
        self.ratio.0 == self.ratio.1 && self.exps.iter().all(|&e| e == 0)
    }
}

/// The dimensions left after exact matches cancelled, folded as they come.
/// Dims sharing a primary variable share a reshape group, so the groups are
/// the classes of a union-find over the table's variables: at most
/// [`MAX_VARS`] of them, however long the shapes.
struct Grouping<'a> {
    /// Bit `v` is set when variable `v` is primary.
    primaries: u32,
    /// Union-find parent of each variable.
    parent: [usize; MAX_VARS],
    /// At a root variable: its group (empty until a dim mentions it). Once
    /// packed, the first `count` are the groups.
    groups: [Group; MAX_VARS],
    /// Once packed: whether each group's primaries balance.
    primaries_balance: [bool; MAX_VARS],
    /// Once packed: how many groups there are, which is also the index of
    /// standalone placement.
    count: usize,
    /// The first coefficient-only frontier dims, whose placement is
    /// enumerated.
    loose: [Option<&'a Size>; MAX_ENUMERATED],
    /// How many of `loose` are filled.
    loose_count: usize,
    /// One step per other coefficient-only dim (step 5).
    fixed_cost: u32,
}

impl<'a> Grouping<'a> {
    fn root(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Folds in one dimension left after cancellation (`side` as in
    /// [`Group::add`]), merging the groups of the primaries it mentions.
    fn add(&mut self, size: &'a Size, side: i32) {
        let mut mentioned = (size.exps().iter().enumerate())
            .fold(0, |mask, (v, &e)| mask | u32::from(e != 0) << v)
            & self.primaries;
        if mentioned == 0 {
            match self.loose.iter_mut().find(|slot| slot.is_none()) {
                Some(slot) if side > 0 => *slot = Some(size),
                _ => self.fixed_cost += 1,
            }
            return;
        }
        let top = self.root(mentioned.trailing_zeros() as usize);
        while mentioned != 0 {
            let other = self.root(mentioned.trailing_zeros() as usize);
            mentioned &= mentioned - 1;
            if other != top {
                self.parent[other] = top;
                let merged = self.groups[other];
                self.groups[top].absorb(&merged);
            }
        }
        self.groups[top].members += 1;
        self.groups[top].add(size, side);
    }
    /// Packs the groups (roots holding primary-bearing dims) to the front
    /// and notes whether each one's primaries balance: a property of the
    /// group alone, since the loose dims that may join it mention no primary.
    fn pack(&mut self) {
        for v in 0..MAX_VARS {
            if self.parent[v] == v && self.groups[v].members > 0 {
                let group = self.groups[v];
                self.primaries_balance[self.count] = (0..MAX_VARS)
                    .all(|u| self.primaries >> u & 1 == 0 || group.exps[u] == 0);
                self.groups[self.count] = group;
                self.count += 1;
            }
        }
        self.loose_count = self.loose.iter().flatten().count();
    }
}

/// Steps 3-5 over the packed groups: a placement of the loose dims assigns
/// each to a group or, as index `count`, to standalone elimination.
impl Grouping<'_> {
    /// The cost of one placement.
    fn total(&self, assignment: &[usize]) -> u32 {
        // Cost of group `g` with the loose dims assigned to it attached.
        let group_cost = |g: usize| -> u32 {
            let assigned = || {
                let dims = self.loose.iter().flatten();
                dims.zip(assignment).filter(|(_, &t)| t == g)
            };
            let size = self.groups[g].members + assigned().count() as u32;
            if !self.primaries_balance[g] {
                return size;
            }
            let mut total = self.groups[g];
            for (dim, _) in assigned() {
                total.add(dim, 1);
            }
            size.saturating_sub(2) + u32::from(!total.balances())
        };
        let alone = assignment.iter().filter(|&&t| t == self.count).count();
        (0..self.count).fold(self.fixed_cost + alone as u32, |total, g| {
            total.saturating_add(group_cost(g))
        })
    }

    /// The least cost lies in `floor..=alone`, where `alone` places every
    /// loose dim on its own. A loose dim placed in a group never makes the
    /// group cheaper than it was, save for the one step a group whose
    /// primaries balance and whose whole product does not may lose: so at
    /// most one step per such group, and per loose dim, is saved.
    fn bounds(&self) -> (u32, u32) {
        let alone = self.total(&[self.count; MAX_ENUMERATED][..self.loose_count]);
        let fixable = (0..self.count)
            .filter(|&g| self.primaries_balance[g] && !self.groups[g].balances())
            .count();
        (alone.saturating_sub(fixable.min(self.loose_count) as u32), alone)
    }

    /// Whether the least cost is at most `budget`.
    fn within(&self, budget: u32) -> bool {
        match self.bounds() {
            (_, alone) if alone <= budget => true,
            (floor, _) if floor > budget => false,
            _ => self.least(budget) <= budget,
        }
    }

    /// The least cost over every placement — the paper's "enumerate all
    /// grouping schemes and find the least distance" — or the first cost
    /// found that is at most `enough`.
    fn least(&self, enough: u32) -> u32 {
        let mut best = u32::MAX;
        let mut assignment = [0usize; MAX_ENUMERATED];
        let assignment = &mut assignment[..self.loose_count];
        loop {
            best = best.min(self.total(assignment));
            if best <= enough {
                return best;
            }

            // Next assignment (mixed-radix increment).
            let mut idx = 0;
            loop {
                if idx == assignment.len() {
                    return best;
                }
                assignment[idx] += 1;
                if assignment[idx] <= self.count {
                    break;
                }
                assignment[idx] = 0;
                idx += 1;
            }
        }
    }
}

/// Computes the shape distance between the current frontier sizes and the
/// desired input shape.
///
/// # Examples
///
/// The worked example of §7.1:
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
/// use syno_core::distance::shape_distance;
///
/// let mut vars = VarTable::new();
/// let cin = vars.declare("Cin", VarKind::Primary);
/// let h = vars.declare("H", VarKind::Primary);
/// let w = vars.declare("W", VarKind::Primary);
/// let s = vars.declare("s", VarKind::Coefficient);
/// let k = vars.declare("k", VarKind::Coefficient);
/// vars.push_valuation(vec![(cin, 16), (h, 32), (w, 32), (s, 2), (k, 3)]);
///
/// let current = vec![
///     Size::var(cin),
///     Size::var(h).div(&Size::var(s)),
///     Size::var(w).mul(&Size::var(s)),
///     Size::var(k),
/// ];
/// let desired = vec![Size::var(cin), Size::var(h), Size::var(w)];
/// assert_eq!(shape_distance(&current, &desired, &vars), 3);
/// ```
pub fn shape_distance(current: &[Size], desired: &[Size], vars: &VarTable) -> u32 {
    let packed = Cancelled::new(current, desired).group(vars);
    match packed.bounds() {
        (floor, alone) if floor == alone => alone,
        (floor, _) => packed.least(floor),
    }
}

/// Whether `shape_distance(current, desired, vars) <= budget`, mostly decided
/// by the exact-match cancellation: at most `budget` dims left fit, and more
/// than `3·budget` dims left or a rank gap over `budget` do not; two or
/// three dims left settle a budget of 1 by their products (see the
/// [module docs](self) for the rules and the invariant the last two need,
/// which is checked here first). Anything else computes the whole distance.
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
/// use syno_core::distance::{shape_distance, shape_distance_within};
///
/// let mut vars = VarTable::new();
/// let [c, h, w] = ["C", "H", "W"].map(|n| vars.declare(n, VarKind::Primary));
/// vars.push_valuation(vec![(c, 4), (h, 8), (w, 8)]);
///
/// // `[C, H·W] → [C, H, W]` takes one Split.
/// let current = [Size::var(c), Size::var(h).mul(&Size::var(w))];
/// let desired = [Size::var(c), Size::var(h), Size::var(w)];
/// assert_eq!(shape_distance(&current, &desired, &vars), 1);
/// assert!(!shape_distance_within(&current, &desired, &vars, 0));
/// assert!(shape_distance_within(&current, &desired, &vars, 1));
/// ```
pub fn shape_distance_within(
    current: &[Size],
    desired: &[Size],
    vars: &VarTable,
    budget: u32,
) -> bool {
    let gap = current.len().abs_diff(desired.len());
    let signs = primary_signs(vars);
    let nonnegative = || primaries_nonnegative(current.iter().chain(desired), signs);
    settle(|| current.iter(), desired, gap, budget, signs, nonnegative)
        .unwrap_or_else(|| Cancelled::new(current, desired).group(vars).within(budget))
}

/// What step 1 settles of `distance <= budget`, by the rules of the
/// [module docs](self): `Some` answer, or `None` when only grouping can
/// tell (or past 64 desired dims). `current` yields the current dims, in
/// any order, afresh each call; `gap` is the two shapes' rank gap, and
/// `nonnegative` says whether the invariant holds, asked only before a rule
/// that needs it. `signs` is [`primary_signs`].
pub(crate) fn settle<'a, I: Iterator<Item = &'a Size>>(
    current: impl Fn() -> I,
    desired: &[Size],
    gap: usize,
    budget: u32,
    signs: u128,
    nonnegative: impl Fn() -> bool,
) -> Option<bool> {
    let left = left_after_cancelling(current(), desired)?;
    let wide = budget as usize;
    if left <= wide {
        return Some(true);
    }
    if (left > wide.saturating_mul(3) || gap > wide) && nonnegative() {
        return Some(false);
    }
    if left <= 3 && gap < left && nonnegative() {
        match within_one(current(), desired, left, signs)? {
            true => return Some(true),
            false if budget == 1 => return Some(false),
            false => {}
        }
    }
    None
}

/// How many dims of `current`, in any order, and `desired` together step 1
/// leaves, or `None` past 64 desired dims.
pub(crate) fn left_after_cancelling<'a>(
    current: impl Iterator<Item = &'a Size>,
    desired: &[Size],
) -> Option<usize> {
    let mut left = desired.len();
    cancel(current, desired, |_, gone| if gone { left -= 1 } else { left += 1 })?;
    Some(left)
}

/// Step 1 over `current` in any order: each current dim cancels the first
/// equal desired dim still free, and is passed to `visit` with whether it
/// did. Returns the mask of cancelled desired dims, or `None` past 64 of
/// them. The count cancelled does not depend on the order.
fn cancel<'a>(
    current: impl Iterator<Item = &'a Size>,
    desired: &[Size],
    mut visit: impl FnMut(&'a Size, bool),
) -> Option<u64> {
    if desired.len() > 64 {
        return None;
    }
    let mut matched = 0u64;
    for size in current {
        let free = |(i, d): &(usize, &Size)| matched >> i & 1 == 0 && *d == size;
        let twin = desired.iter().enumerate().find(free).map(|(i, _)| i);
        if let Some(i) = twin {
            matched |= 1 << i;
        }
        visit(size, twin.is_some());
    }
    Some(matched)
}

/// Whether the distance is at most 1 when step 1 leaves two or three dims
/// on both sides of shapes that keep the invariant, or `None` when a
/// product of them leaves the representable range. One step is one
/// group's: two dims whose primaries balance, or three whose two sides'
/// products are equal, with no coefficient-only desired dim, which costs a
/// step of its own.
fn within_one<'a>(
    current: impl Iterator<Item = &'a Size>,
    desired: &[Size],
    left: usize,
    signs: u128,
) -> Option<bool> {
    let lanes = (signs >> 7) * 0xFF;
    let primaries = |size: &Size| u128::from_ne_bytes(size.exps().map(|e| e as u8)) & lanes;
    let mut have = Some(Size::one());
    let matched = cancel(current, desired, |size, gone| {
        if !gone {
            have = have.as_ref().and_then(|have| have.checked_mul(size));
        }
    })?;
    let mut want = Size::one();
    for (i, size) in desired.iter().enumerate() {
        if matched >> i & 1 == 0 {
            if primaries(size) == 0 {
                return Some(false);
            }
            want = want.checked_mul(size)?;
        }
    }
    let have = have?;
    Some(match left {
        2 => primaries(&have) == primaries(&want),
        _ => have == want,
    })
}

/// The sign bit of each primary's exponent byte, where
/// [`primaries_nonnegative`] looks.
pub(crate) fn primary_signs(vars: &VarTable) -> u128 {
    let mut signs = [0u8; MAX_VARS];
    for v in vars.primaries() {
        signs[v.index()] = 0x80;
    }
    u128::from_ne_bytes(signs)
}

/// Whether no size has a negative exponent on a primary variable: the
/// invariant the refusal and one-step rules of [`settle`] rely on.
/// `signs` is [`primary_signs`]: an exponent is one byte, so one mask tests
/// all of a size's at once.
pub(crate) fn primaries_nonnegative<'a>(
    sizes: impl IntoIterator<Item = &'a Size>,
    signs: u128,
) -> bool {
    sizes
        .into_iter()
        .all(|size| u128::from_ne_bytes(size.exps().map(|e| e as u8)) & signs == 0)
}

/// Bit `v` is set when variable `v` is primary.
fn primary_mask(vars: &VarTable) -> u32 {
    vars.primaries().fold(0, |mask, v| mask | 1 << v.index())
}

/// The exact-match flags of step 1, on the stack for ranks up to
/// [`INLINE_RANK`] and in one heap buffer past it.
struct Flags {
    inline: [bool; INLINE_RANK],
    spilled: Vec<bool>,
    len: usize,
}

impl Flags {
    fn new(len: usize) -> Flags {
        let spilled = if len > INLINE_RANK { vec![false; len] } else { Vec::new() };
        Flags {
            inline: [false; INLINE_RANK],
            spilled,
            len,
        }
    }

    fn get(&self) -> &[bool] {
        match self.len {
            len if len > INLINE_RANK => &self.spilled,
            len => &self.inline[..len],
        }
    }

    fn get_mut(&mut self) -> &mut [bool] {
        match self.len {
            len if len > INLINE_RANK => &mut self.spilled,
            len => &mut self.inline[..len],
        }
    }
}

/// Step 1 done: which dims of each side an exact match cancelled.
struct Cancelled<'a> {
    current: &'a [Size],
    desired: &'a [Size],
    /// Per current dim: cancelled.
    gone: Flags,
    /// Per desired dim: cancelled.
    matched: Flags,
}

impl<'a> Cancelled<'a> {
    /// Cancels exact matches: each current dim against the first desired
    /// one still unmatched.
    fn new(current: &'a [Size], desired: &'a [Size]) -> Cancelled<'a> {
        let mut gone = Flags::new(current.len());
        let mut matched = Flags::new(desired.len());
        let flags = matched.get_mut();
        for (size, gone) in current.iter().zip(gone.get_mut()) {
            let twin = (desired.iter().zip(flags.iter())).position(|(d, &m)| !m && d == size);
            if let Some(twin) = twin {
                flags[twin] = true;
                *gone = true;
            }
        }
        Cancelled {
            current,
            desired,
            gone,
            matched,
        }
    }

    /// Step 2 over the dims left.
    fn group(&self, vars: &VarTable) -> Grouping<'a> {
        let mut grouping = Grouping {
            primaries: primary_mask(vars),
            parent: std::array::from_fn(|v| v),
            groups: [Group::EMPTY; MAX_VARS],
            primaries_balance: [false; MAX_VARS],
            count: 0,
            loose: [None; MAX_ENUMERATED],
            loose_count: 0,
            fixed_cost: 0,
        };

        // Step 2: fold every dimension left into its group, the frontier's in
        // input order, then the desired ones.
        let current = self.current.iter().zip(self.gone.get());
        for (size, _) in current.filter(|(_, &g)| !g) {
            grouping.add(size, 1);
        }
        let desired = self.desired.iter().zip(self.matched.get());
        for (size, _) in desired.filter(|(_, &m)| !m) {
            grouping.add(size, -1);
        }
        grouping.pack();
        grouping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarId, VarKind};

    struct Vars {
        table: VarTable,
        cin: VarId,
        h: VarId,
        w: VarId,
        s: VarId,
        k: VarId,
    }

    fn setup() -> Vars {
        let mut table = VarTable::new();
        let cin = table.declare("Cin", VarKind::Primary);
        let h = table.declare("H", VarKind::Primary);
        let w = table.declare("W", VarKind::Primary);
        let s = table.declare("s", VarKind::Coefficient);
        let k = table.declare("k", VarKind::Coefficient);
        table.push_valuation(vec![(cin, 16), (h, 32), (w, 32), (s, 2), (k, 3)]);
        Vars {
            table,
            cin,
            h,
            w,
            s,
            k,
        }
    }

    #[test]
    fn equal_shapes_distance_zero() {
        let v = setup();
        let shape = vec![Size::var(v.cin), Size::var(v.h)];
        assert_eq!(shape_distance(&shape, &shape, &v.table), 0);
    }

    #[test]
    fn permutation_distance_zero() {
        let v = setup();
        let a = vec![Size::var(v.cin), Size::var(v.h)];
        let b = vec![Size::var(v.h), Size::var(v.cin)];
        assert_eq!(shape_distance(&a, &b, &v.table), 0);
    }

    #[test]
    fn paper_example_distance_three() {
        let v = setup();
        let current = vec![
            Size::var(v.cin),
            Size::var(v.h).div(&Size::var(v.s)),
            Size::var(v.w).mul(&Size::var(v.s)),
            Size::var(v.k),
        ];
        let desired = vec![Size::var(v.cin), Size::var(v.h), Size::var(v.w)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 3);
    }

    #[test]
    fn pure_regroup_costs_lhs_rhs_minus_two() {
        let v = setup();
        // [H*W] <- [H, W]: one Merge... wait, bottom-up one Split suffices:
        // #lhs + #rhs - 2 = 1.
        let current = vec![Size::var(v.h).mul(&Size::var(v.w))];
        let desired = vec![Size::var(v.h), Size::var(v.w)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 1);
        // [s⁻¹H, sW] <- [H, W]: Merge + Split = 2 (paper's inner example).
        let current = vec![
            Size::var(v.h).div(&Size::var(v.s)),
            Size::var(v.w).mul(&Size::var(v.s)),
        ];
        assert_eq!(shape_distance(&current, &desired, &v.table), 2);
    }

    #[test]
    fn eliminating_primary_dim_costs_one() {
        let v = setup();
        // Matmul-style: frontier [M=Cin, N=H, K=W] -> input [Cin, W]: the H
        // dim is matched away to a weight (1 step).
        let current = vec![Size::var(v.cin), Size::var(v.h), Size::var(v.w)];
        let desired = vec![Size::var(v.cin), Size::var(v.w)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 1);
    }

    #[test]
    fn creating_missing_dim_costs_one() {
        let v = setup();
        let current = vec![Size::var(v.cin)];
        let desired = vec![Size::var(v.cin), Size::var(v.h)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 1);
    }

    #[test]
    fn coefficient_window_costs_one() {
        let v = setup();
        let current = vec![Size::var(v.h), Size::var(v.k)];
        let desired = vec![Size::var(v.h)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 1);
    }

    #[test]
    fn pooling_shape_distance() {
        let v = setup();
        // AvgPool mid-state: [s⁻¹H, s] <- [H]: the best grouping attaches
        // the coefficient-only `s` to the H group, where a single Split
        // finishes the match — distance 1.
        let current = vec![Size::var(v.h).div(&Size::var(v.s)), Size::var(v.s)];
        let desired = vec![Size::var(v.h)];
        assert_eq!(shape_distance(&current, &desired, &v.table), 1);
    }

    #[test]
    fn distance_is_symmetric_enough_for_identity() {
        let v = setup();
        let a = vec![Size::var(v.h)];
        let b = vec![Size::var(v.h)];
        assert_eq!(shape_distance(&a, &b, &v.table), 0);
        assert_eq!(shape_distance(&b, &a, &v.table), 0);
    }
}
