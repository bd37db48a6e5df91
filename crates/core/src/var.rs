//! Symbolic shape variables (§5.4 of the paper).
//!
//! Syno synthesizes operators over *symbolic* tensor shapes so that one
//! discovered operator can serve every layer of a backbone that shares the
//! same shape structure. Variables come in two classes:
//!
//! * **Primary variables** (`N`, `C_in`, `H`, …) name input/output tensor
//!   dimensions. They are assumed large and are never allowed in the
//!   denominator of a coordinate expression.
//! * **Coefficient variables** (`k`, `s`, `g`, …) are introduced by primitive
//!   parameters (e.g. the block size of [`Merge`](crate::primitive::PrimKind::Merge)).
//!   They are small and may appear in denominators.
//!
//! A [`VarTable`] owns the variable declarations together with one or more
//! *valuations*: concrete size assignments extracted from the backbone model
//! (footnote 4 of the paper). Symbolic predicates such as "`B` is much larger
//! than `K`" are decided by quantifying over every valuation.

use crate::size::MAX_VARS;
use std::fmt;
use std::sync::Arc;

/// Identifies a variable inside a [`VarTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Returns the dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two variable classes of §5.4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VarKind {
    /// Input/output dimension sizes (`N`, `C`, `H`, `W`, …); assumed large.
    Primary,
    /// Primitive parameters (`k`, `s`, `g`, …); assumed small.
    Coefficient,
}

#[derive(Clone, Debug)]
struct VarInfo {
    name: String,
    kind: VarKind,
}

/// Declarations of all symbolic variables plus their concrete valuations.
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
///
/// let mut vars = VarTable::new();
/// let h = vars.declare("H", VarKind::Primary);
/// let k = vars.declare("k", VarKind::Coefficient);
/// vars.push_valuation(vec![(h, 32), (k, 3)]);
/// assert_eq!(vars.name(h), "H");
/// assert_eq!(vars.value(0, h), 32);
/// assert_eq!(vars.value(0, k), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    vars: Vec<VarInfo>,
    /// Each valuation assigns a concrete positive size to every variable.
    valuations: Vec<Vec<u64>>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new variable and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the same name already exists, if valuations
    /// were already recorded (declare all variables first), or if the table
    /// already holds [`MAX_VARS`] variables (a [`Size`](crate::size::Size)
    /// stores one exponent per variable inline).
    pub fn declare(&mut self, name: &str, kind: VarKind) -> VarId {
        assert!(
            self.valuations.is_empty(),
            "declare all variables before adding valuations"
        );
        assert!(
            self.vars.len() < MAX_VARS,
            "a variable table holds at most {MAX_VARS} variables"
        );
        assert!(
            self.vars.iter().all(|v| v.name != name),
            "duplicate variable name {name:?}"
        );
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            kind,
        });
        id
    }

    /// Records one concrete valuation. Pairs may arrive in any order but must
    /// cover every declared variable exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is incomplete, duplicated, or contains zeros.
    pub fn push_valuation(&mut self, assignment: Vec<(VarId, u64)>) {
        let mut values = vec![0u64; self.vars.len()];
        for (var, value) in assignment {
            assert!(value > 0, "variable sizes must be positive");
            assert!(values[var.index()] == 0, "duplicate assignment for {var:?}");
            values[var.index()] = value;
        }
        assert!(
            values.iter().all(|&v| v > 0),
            "valuation must assign every variable"
        );
        self.valuations.push(values);
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` when no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Number of recorded valuations.
    pub fn valuation_count(&self) -> usize {
        self.valuations.len()
    }

    /// The display name of `var`.
    pub fn name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// The class of `var`.
    pub fn kind(&self, var: VarId) -> VarKind {
        self.vars[var.index()].kind
    }

    /// The concrete value of `var` under valuation `valuation`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, valuation: usize, var: VarId) -> u64 {
        self.valuations[valuation][var.index()]
    }

    /// Iterates over all declared variable ids.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// All primary variables.
    pub fn primaries(&self) -> impl Iterator<Item = VarId> + '_ {
        self.iter().filter(|&v| self.kind(v) == VarKind::Primary)
    }

    /// All coefficient variables.
    pub fn coefficients(&self) -> impl Iterator<Item = VarId> + '_ {
        self.iter()
            .filter(|&v| self.kind(v) == VarKind::Coefficient)
    }

    /// Looks a variable up by name.
    pub fn find(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Wraps the table in an [`Arc`] for cheap sharing across graphs.
    pub fn into_shared(self) -> Arc<VarTable> {
        Arc::new(self)
    }
}

impl fmt::Display for VarTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let tag = match v.kind {
                VarKind::Primary => "P",
                VarKind::Coefficient => "c",
            };
            write!(f, "{}:{tag}", v.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut t = VarTable::new();
        let n = t.declare("N", VarKind::Primary);
        let k = t.declare("k", VarKind::Coefficient);
        assert_eq!(t.find("N"), Some(n));
        assert_eq!(t.find("k"), Some(k));
        assert_eq!(t.find("missing"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.kind(n), VarKind::Primary);
        assert_eq!(t.kind(k), VarKind::Coefficient);
    }

    #[test]
    fn valuations_round_trip() {
        let mut t = VarTable::new();
        let h = t.declare("H", VarKind::Primary);
        let s = t.declare("s", VarKind::Coefficient);
        t.push_valuation(vec![(s, 2), (h, 56)]);
        t.push_valuation(vec![(h, 28), (s, 2)]);
        assert_eq!(t.valuation_count(), 2);
        assert_eq!(t.value(0, h), 56);
        assert_eq!(t.value(1, h), 28);
        assert_eq!(t.value(1, s), 2);
    }

    #[test]
    fn classes_partition() {
        let mut t = VarTable::new();
        t.declare("N", VarKind::Primary);
        t.declare("C", VarKind::Primary);
        t.declare("k", VarKind::Coefficient);
        assert_eq!(t.primaries().count(), 2);
        assert_eq!(t.coefficients().count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_name_panics() {
        let mut t = VarTable::new();
        t.declare("N", VarKind::Primary);
        t.declare("N", VarKind::Primary);
    }

    #[test]
    #[should_panic(expected = "at most 16 variables")]
    fn seventeenth_variable_panics() {
        let mut t = VarTable::new();
        for i in 0..=MAX_VARS {
            t.declare(&format!("v{i}"), VarKind::Primary);
        }
    }

    #[test]
    #[should_panic(expected = "valuation must assign every variable")]
    fn incomplete_valuation_panics() {
        let mut t = VarTable::new();
        t.declare("N", VarKind::Primary);
        t.declare("k", VarKind::Coefficient);
        let n = t.find("N").unwrap();
        t.push_valuation(vec![(n, 4)]);
    }

    #[test]
    fn display_is_nonempty() {
        let mut t = VarTable::new();
        t.declare("N", VarKind::Primary);
        t.declare("k", VarKind::Coefficient);
        assert_eq!(format!("{t}"), "N:P, k:c");
    }
}
