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

use crate::size::Size;
use crate::var::{VarKind, VarTable};

/// One dimension left after exact matches cancelled. Once grouped, a root
/// slot also carries its reshape group's totals.
struct Slot<'a> {
    size: &'a Size,
    /// `+1` on the frontier side, `-1` on the desired side.
    side: i32,
    /// `true` until a primary variable is found in `size`.
    coefficient_only: bool,
    /// Union-find parent (slots sharing a primary variable share a root).
    parent: usize,
    /// At a root: how many primary-bearing dimensions the group holds.
    members: u32,
    /// At a root: the group's frontier-over-desired constant factor, as a
    /// fraction that is never reduced (1 exactly when both parts are equal).
    /// A coefficient-only slot is its own root.
    ratio: (u128, u128),
}

fn find(slots: &mut [Slot<'_>], mut x: usize) -> usize {
    while slots[x].parent != x {
        slots[x].parent = slots[slots[x].parent].parent;
        x = slots[x].parent;
    }
    x
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
    // Step 1: cancel exact matches; every dimension left gets a slot
    // (desired ones first, frontier ones after, each side in input order).
    let slot = |size, side| Slot {
        size,
        side,
        coefficient_only: true,
        parent: 0,
        members: 0,
        ratio: (1, 1),
    };
    let mut slots: Vec<Slot<'_>> = Vec::with_capacity(current.len() + desired.len());
    slots.extend(desired.iter().map(|size| slot(size, -1)));
    for size in current {
        match slots.iter().position(|d| d.side < 0 && d.size == size) {
            Some(twin) => drop(slots.remove(twin)),
            None => slots.push(slot(size, 1)),
        }
    }
    if slots.is_empty() {
        return 0;
    }

    // Step 2: group by primary-variable co-occurrence, reading every
    // monomial once. `first_with[v]` is the first slot mentioning primary `v`.
    let (n, nv) = (slots.len(), vars.len());
    let mut first_with = vec![usize::MAX; nv];
    for i in 0..n {
        slots[i].parent = i;
        for (v, _) in slots[i].size.powers() {
            if vars.kind(v) != VarKind::Primary {
                continue;
            }
            slots[i].coefficient_only = false;
            match first_with[v.index()] {
                usize::MAX => first_with[v.index()] = i,
                j => {
                    let (a, b) = (find(&mut slots, i), find(&mut slots, j));
                    slots[a].parent = b;
                }
            }
        }
    }

    // Fold each slot into its root: `net[root * nv + v]` is the exponent of
    // `v` in (product of the group's frontier dims) / (product of its
    // desired dims), `ratio` the same quotient of the constant factors. The
    // two products are equal exactly when the row is zero and the ratio 1 —
    // what the paper's grouping needs of them, without multiplying a `Size`.
    let mut net = vec![0i32; n * nv];
    let mut coefficient_only_desired = 0u32;
    for i in 0..n {
        let (size, side) = (slots[i].size, slots[i].side);
        if slots[i].coefficient_only && side < 0 {
            coefficient_only_desired += 1;
            continue;
        }
        let root = find(&mut slots, i);
        slots[root].members += u32::from(!slots[i].coefficient_only);
        for (v, e) in size.powers() {
            net[root * nv + v.index()] += side * e;
        }
        let (num, den) = size.constant_factor();
        let (num, den) = if side > 0 { (num, den) } else { (den, num) };
        let ratio = &mut slots[root].ratio;
        *ratio = (
            ratio.0.saturating_mul(num.into()),
            ratio.1.saturating_mul(den.into()),
        );
    }

    // Steps 3-5: enumerate assignments of coefficient-only frontier dims to
    // reshape groups (or standalone elimination), minimizing the total —
    // the paper's "enumerate all grouping schemes and find the least
    // distance". The enumeration is capped to keep it cheap.
    const MAX_ENUMERATED: usize = 4;
    let mut loose = (0..n).filter(|&i| slots[i].coefficient_only && slots[i].side > 0);
    let mut enumerated = [0usize; MAX_ENUMERATED];
    let mut count = 0;
    for i in loose.by_ref().take(MAX_ENUMERATED) {
        enumerated[count] = i;
        count += 1;
    }
    let enumerated = &enumerated[..count];
    let fixed_cost = loose.count() as u32 + coefficient_only_desired;
    let groups = || (0..n).filter(|&i| slots[i].members > 0);
    let standalone = groups().count(); // the target after the last group

    // Cost of group number `g`, rooted at `root`, with the dims assigned to
    // it attached. Those mention no primary variable, so whether the
    // primaries balance is a property of the group alone.
    let group_cost = |g: usize, root: usize, assignment: &[usize]| -> u32 {
        let extra = || {
            let assigned = enumerated.iter().zip(assignment);
            assigned.filter(|(_, &t)| t == g).map(|(&dim, _)| dim)
        };
        let size = slots[root].members + extra().count() as u32;
        if vars.primaries().any(|v| net[root * nv + v.index()] != 0) {
            return size;
        }
        let ratio = extra().fold(slots[root].ratio, |r, e| {
            let by = slots[e].ratio;
            (r.0.saturating_mul(by.0), r.1.saturating_mul(by.1))
        });
        let exponent = |v| net[root * nv + v] + extra().map(|e| net[e * nv + v]).sum::<i32>();
        let products_equal = ratio.0 == ratio.1 && (0..nv).all(|v| exponent(v) == 0);
        size.saturating_sub(2) + u32::from(!products_equal)
    };

    let mut best = u32::MAX;
    let mut assignment = [0usize; MAX_ENUMERATED];
    let assignment = &mut assignment[..count];
    loop {
        let alone = assignment.iter().filter(|&&t| t == standalone).count();
        let total = groups()
            .enumerate()
            .fold(fixed_cost + alone as u32, |total, (g, root)| {
                total.saturating_add(group_cost(g, root, assignment))
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
    use crate::var::VarId;

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
