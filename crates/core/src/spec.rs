//! Operator specifications: the symbolic input/output tensor shapes a
//! synthesized operator must match (§4).
//!
//! A specification says "discover an operator mapping `[N, C_in, H, W]` to
//! `[N, C_out, H, W]`" — the shapes of the operator being replaced in the
//! backbone. Shapes are sequences of symbolic [`Size`]s over a shared
//! [`VarTable`].

use crate::error::SynthError;
use crate::size::Size;
use crate::var::VarTable;
use std::fmt;

/// An ordered list of symbolic dimension sizes.
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
/// use syno_core::spec::TensorShape;
///
/// let mut vars = VarTable::new();
/// let n = vars.declare("N", VarKind::Primary);
/// let c = vars.declare("C", VarKind::Primary);
/// vars.push_valuation(vec![(n, 4), (c, 16)]);
/// let shape = TensorShape::new(vec![Size::var(n), Size::var(c)]);
/// assert_eq!(shape.rank(), 2);
/// assert_eq!(shape.eval(&vars, 0), Some(vec![4, 16]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TensorShape {
    dims: Vec<Size>,
}

impl TensorShape {
    /// Creates a shape from its dimension sizes.
    pub fn new(dims: Vec<Size>) -> Self {
        TensorShape { dims }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension sizes in order.
    pub fn dims(&self) -> &[Size] {
        &self.dims
    }

    /// The symbolic number of elements (product of dimensions), or `None`
    /// when it leaves the size range.
    pub fn numel(&self) -> Option<Size> {
        Size::product(self.dims.iter())
    }

    /// Evaluates every dimension under `valuation`; `None` if any dimension
    /// fails to evaluate to a positive integer.
    pub fn eval(&self, vars: &VarTable, valuation: usize) -> Option<Vec<u64>> {
        self.dims.iter().map(|d| d.eval(vars, valuation)).collect()
    }

    /// `true` when every dimension is a positive integer under every
    /// valuation of `vars`.
    pub fn is_valid(&self, vars: &VarTable) -> bool {
        self.dims.iter().all(|d| d.is_valid(vars))
    }

    /// Renders the shape with variable names, e.g. `[N, C, H, W]`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> ShapeDisplay<'a> {
        ShapeDisplay { shape: self, vars }
    }
}

impl From<Vec<Size>> for TensorShape {
    fn from(dims: Vec<Size>) -> Self {
        TensorShape::new(dims)
    }
}

/// Helper returned by [`TensorShape::display`].
#[derive(Clone, Copy, Debug)]
pub struct ShapeDisplay<'a> {
    shape: &'a TensorShape,
    vars: &'a VarTable,
}

impl fmt::Display for ShapeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.shape.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d.display(self.vars))?;
        }
        write!(f, "]")
    }
}

/// The synthesis goal: find operators mapping `input` to `output`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OperatorSpec {
    /// Shape of the (single) data input tensor.
    pub input: TensorShape,
    /// Shape of the output tensor.
    pub output: TensorShape,
}

impl OperatorSpec {
    /// Creates a specification.
    pub fn new(input: TensorShape, output: TensorShape) -> Self {
        OperatorSpec { input, output }
    }

    /// `true` when both shapes are valid under every valuation.
    pub fn is_valid(&self, vars: &VarTable) -> bool {
        self.input.is_valid(vars) && self.output.is_valid(vars)
    }

    /// A deterministic fingerprint of the specification *as instantiated*:
    /// the symbolic input/output shapes plus every concrete valuation of
    /// `vars`. Computed with the stable FNV-1a hasher
    /// ([`crate::stable::StableHasher`]), so the value may be persisted —
    /// the `syno-store` journal keys checkpoints and candidate content
    /// hashes by it.
    pub fn fingerprint(&self, vars: &VarTable) -> u64 {
        use crate::stable::StableHasher;
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        self.input.dims().hash(&mut h);
        self.output.dims().hash(&mut h);
        vars.valuation_count().hash(&mut h);
        for valuation in 0..vars.valuation_count() {
            for var in vars.iter() {
                vars.value(valuation, var).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Checks that the spec can drive a synthesis or search run: the table
    /// has at least one valuation and both shapes evaluate under the base
    /// valuation. The one typed-validation entry point shared by the
    /// [`Synthesis`](crate::synth::Synthesis) driver and `syno-search`.
    pub fn validate(&self, vars: &VarTable) -> Result<(), SynthError> {
        if vars.valuation_count() == 0 {
            return Err(SynthError::InvalidSpec(
                "variable table has no valuations".into(),
            ));
        }
        if self.input.eval(vars, 0).is_none() || self.output.eval(vars, 0).is_none() {
            return Err(SynthError::InvalidSpec(
                "input/output shapes do not evaluate under valuation 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    #[test]
    fn shape_numel_and_eval() {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        vars.push_valuation(vec![(n, 2), (c, 8)]);
        let shape = TensorShape::new(vec![Size::var(n), Size::var(c)]);
        assert_eq!(shape.numel().unwrap().eval(&vars, 0), Some(16));
        assert_eq!(shape.eval(&vars, 0), Some(vec![2, 8]));
        assert!(shape.is_valid(&vars));
        let shown = format!("{}", shape.display(&vars));
        assert_eq!(shown, "[N, C]");
    }

    #[test]
    fn spec_validity() {
        let mut vars = VarTable::new();
        let c = vars.declare("C", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(c, 7), (s, 2)]);
        let bad = OperatorSpec::new(
            TensorShape::new(vec![Size::var(c).div(&Size::var(s))]),
            TensorShape::new(vec![Size::var(c)]),
        );
        // 7/2 is not an integer.
        assert!(!bad.is_valid(&vars));
        let good = OperatorSpec::new(
            TensorShape::new(vec![Size::var(c)]),
            TensorShape::new(vec![Size::var(c)]),
        );
        assert!(good.is_valid(&vars));
    }
}
