//! Test oracle: the shape distance as it was implemented before it was made
//! allocation-free — a `BTreeMap` signature per slot and per call, `Size`
//! products per group. The code below the imports is that implementation
//! verbatim; the property tests hold the new one to it.

use std::collections::BTreeMap;
use syno_core::size::Size;
use syno_core::var::{VarId, VarKind, VarTable};

/// Union-find over dimension slots.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The primary-variable part of a size's monomial.
fn primary_signature(size: &Size, vars: &VarTable) -> BTreeMap<VarId, i32> {
    size.powers()
        .filter(|(v, _)| vars.kind(*v) == VarKind::Primary)
        .collect()
}

/// The §7.1 shape distance exactly as `syno_core::distance::shape_distance`
/// computed it before PR 12.
pub fn shape_distance(current: &[Size], desired: &[Size], vars: &VarTable) -> u32 {
    // Step 1: cancel exact matches.
    let mut cur: Vec<&Size> = current.iter().collect();
    let mut des: Vec<&Size> = desired.iter().collect();
    let mut i = 0;
    while i < cur.len() {
        if let Some(j) = des.iter().position(|d| *d == cur[i]) {
            des.remove(j);
            cur.remove(i);
        } else {
            i += 1;
        }
    }
    if cur.is_empty() && des.is_empty() {
        return 0;
    }

    // Step 2: group by primary-variable co-occurrence. Slots 0..cur.len()
    // are frontier dims, the rest desired dims.
    let total = cur.len() + des.len();
    let mut dsu = Dsu::new(total);
    let mut by_var: BTreeMap<VarId, Vec<usize>> = BTreeMap::new();
    let sig_of = |slot: usize| -> BTreeMap<VarId, i32> {
        if slot < cur.len() {
            primary_signature(cur[slot], vars)
        } else {
            primary_signature(des[slot - cur.len()], vars)
        }
    };
    for slot in 0..total {
        for (v, _) in sig_of(slot) {
            by_var.entry(v).or_default().push(slot);
        }
    }
    for slots in by_var.values() {
        for w in slots.windows(2) {
            dsu.union(w[0], w[1]);
        }
    }

    // Collect groups.
    let mut groups: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    let mut coeff_only_cur: Vec<usize> = Vec::new();
    let mut coeff_only_des = 0u32;
    for slot in 0..total {
        if sig_of(slot).is_empty() {
            if slot < cur.len() {
                coeff_only_cur.push(slot);
            } else {
                coeff_only_des += 1;
            }
            continue;
        }
        let root = dsu.find(slot);
        let entry = groups.entry(root).or_default();
        if slot < cur.len() {
            entry.0.push(slot);
        } else {
            entry.1.push(slot);
        }
    }
    let groups: Vec<(Vec<usize>, Vec<usize>)> = groups.into_values().collect();

    // Cost of one group under a given set of attached coefficient-only dims.
    let group_cost = |lhs: &[usize], extra: &[usize], rhs: &[usize]| -> u32 {
        let lhs_product = Size::product(lhs.iter().chain(extra.iter()).map(|&s| cur[s])).unwrap();
        let rhs_product = Size::product(rhs.iter().map(|&s| des[s - cur.len()])).unwrap();
        let primaries_balance =
            primary_signature(&lhs_product, vars) == primary_signature(&rhs_product, vars);
        if primaries_balance {
            let regroup = (lhs.len() + extra.len() + rhs.len()).saturating_sub(2) as u32;
            regroup + u32::from(lhs_product != rhs_product)
        } else {
            (lhs.len() + extra.len() + rhs.len()) as u32
        }
    };

    // Steps 3-5: enumerate assignments of coefficient-only frontier dims to
    // reshape groups (or standalone elimination), minimizing the total —
    // the paper's "enumerate all grouping schemes and find the least
    // distance". The enumeration is capped to keep it cheap.
    const MAX_ENUMERATED: usize = 4;
    let (enumerated, rest) = coeff_only_cur.split_at(coeff_only_cur.len().min(MAX_ENUMERATED));
    let targets = groups.len() + 1; // index groups.len() = standalone
    let mut best = u32::MAX;
    let mut assignment = vec![0usize; enumerated.len()];
    loop {
        // Evaluate this assignment.
        let mut extras: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        let mut standalone = rest.len() as u32;
        for (dim, &target) in enumerated.iter().zip(assignment.iter()) {
            if target < groups.len() {
                extras[target].push(*dim);
            } else {
                standalone += 1;
            }
        }
        let mut total_cost = standalone + coeff_only_des;
        for (g, (lhs, rhs)) in groups.iter().enumerate() {
            total_cost = total_cost.saturating_add(group_cost(lhs, &extras[g], rhs));
        }
        best = best.min(total_cost);

        // Next assignment (mixed-radix increment).
        let mut idx = 0;
        loop {
            if idx == assignment.len() {
                return best;
            }
            assignment[idx] += 1;
            if assignment[idx] < targets {
                break;
            }
            assignment[idx] = 0;
            idx += 1;
        }
    }
}
