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
    /// At a root variable: its group (empty until a dim mentions it).
    groups: [Group; MAX_VARS],
    /// The first coefficient-only frontier dims, whose placement is
    /// enumerated.
    loose: [Option<&'a Size>; MAX_ENUMERATED],
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
    let mut grouping = Grouping {
        primaries: vars.primaries().fold(0, |mask, v| mask | 1 << v.index()),
        parent: std::array::from_fn(|v| v),
        groups: [Group::EMPTY; MAX_VARS],
        loose: [None; MAX_ENUMERATED],
        fixed_cost: 0,
    };

    // Step 1: cancel exact matches (each frontier dim against the first
    // desired one still unmatched); step 2: fold every dimension left into
    // its group, the frontier's in input order, then the desired ones.
    let mut inline = [false; INLINE_RANK];
    let mut spilled = Vec::new();
    let matched = if desired.len() <= INLINE_RANK {
        &mut inline[..desired.len()]
    } else {
        spilled.resize(desired.len(), false);
        &mut spilled[..]
    };
    for size in current {
        match (desired.iter().zip(matched.iter())).position(|(d, &m)| !m && d == size) {
            Some(twin) => matched[twin] = true,
            None => grouping.add(size, 1),
        }
    }
    for (size, _) in desired.iter().zip(matched.iter()).filter(|(_, &m)| !m) {
        grouping.add(size, -1);
    }

    // The groups (roots holding primary-bearing dims), packed to the front,
    // and whether each one's primaries balance: a property of the group
    // alone, since the loose dims that may join it mention no primary.
    let Grouping {
        primaries,
        parent,
        mut groups,
        loose,
        fixed_cost,
    } = grouping;
    let mut standalone = 0; // the target after the last group
    let mut primaries_balance = [false; MAX_VARS];
    for v in 0..MAX_VARS {
        if parent[v] == v && groups[v].members > 0 {
            let group = groups[v];
            primaries_balance[standalone] =
                (0..MAX_VARS).all(|u| primaries >> u & 1 == 0 || group.exps[u] == 0);
            groups[standalone] = group;
            standalone += 1;
        }
    }
    let loose_count = loose.iter().flatten().count();

    // Cost of group `g` with the loose dims assigned to it attached.
    let group_cost = |g: usize, assignment: &[usize]| -> u32 {
        let assigned = || {
            let dims = loose.iter().flatten();
            dims.zip(assignment).filter(|(_, &t)| t == g)
        };
        let size = groups[g].members + assigned().count() as u32;
        if !primaries_balance[g] {
            return size;
        }
        let mut total = groups[g];
        for (dim, _) in assigned() {
            total.add(dim, 1);
        }
        size.saturating_sub(2) + u32::from(!total.balances())
    };

    // Steps 3-5: enumerate assignments of the loose dims to reshape groups
    // (or standalone elimination), minimizing the total — the paper's
    // "enumerate all grouping schemes and find the least distance".
    let mut best = u32::MAX;
    let mut assignment = [0usize; MAX_ENUMERATED];
    let assignment = &mut assignment[..loose_count];
    loop {
        let alone = assignment.iter().filter(|&&t| t == standalone).count();
        let total = (0..standalone).fold(fixed_cost + alone as u32, |total, g| {
            total.saturating_add(group_cost(g, assignment))
        });
        best = best.min(total);

        // Next assignment (mixed-radix increment).
        let mut idx = 0;
        loop {
            if idx == assignment.len() {
                return best;
            }
            assignment[idx] += 1;
            if assignment[idx] <= standalone {
                break;
            }
            assignment[idx] = 0;
            idx += 1;
        }
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
