//! Symbolic sizes: monomials over shape variables (§5.4).
//!
//! Every tensor dimension and every iterator domain in Syno is a *monomial*
//! `c · Π vᵢ^eᵢ` with a positive rational constant `c` and signed integer
//! exponents `eᵢ`. Examples from the paper: `H`, `s⁻¹·H` (average pooling),
//! `g⁻¹·s⁻¹·C_out` (Operator 1), `K/2` (the Unfold offset).
//!
//! Sizes form a commutative group under multiplication, which is exactly the
//! structure primitive composition needs: `Merge(B)` maps a domain `N` to
//! `N/B` and `B`, `Split` multiplies two domains, and so on.
//!
//! Whether a size is *valid* (a positive integer) is decided against the
//! concrete valuations of a [`VarTable`], mirroring how the paper extracts
//! every concrete instantiation from the backbone model (footnote 4).
//!
//! A [`Size`] is 32 bytes and owns no heap: the reduced constant as two
//! `u64`s, then one `i8` exponent per variable, indexed by [`VarId`]. So a
//! table declares at most [`MAX_VARS`] variables, and an exponent lies in
//! `i8`'s range. Decoders refuse input past either cap with a typed error;
//! [`Size::checked_mul`]/[`Size::checked_div`] report an overflowing product
//! as `None`, and the plain operators panic on one. The [`Hash`] stream and
//! [`Size::cmp_key`] order are those of a sorted `(VarId, i32)` map of the
//! non-zero exponents, so every persisted hash is independent of the layout.

use crate::var::{VarId, VarKind, VarTable};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The most variables one [`VarTable`] may declare: a [`Size`] stores one
/// exponent per variable inline.
pub const MAX_VARS: usize = 16;

/// The panic message of an unchecked size operation that overflows.
const OVERFLOW: &str = "size overflow: a constant leaves u64 or an exponent leaves i8";

/// Greatest common divisor of two positive integers.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A symbolic size: positive rational constant times a variable monomial.
///
/// # Examples
///
/// ```
/// use syno_core::var::{VarTable, VarKind};
/// use syno_core::size::Size;
///
/// let mut vars = VarTable::new();
/// let h = vars.declare("H", VarKind::Primary);
/// let s = vars.declare("s", VarKind::Coefficient);
/// vars.push_valuation(vec![(h, 56), (s, 2)]);
///
/// let pooled = Size::var(h).div(&Size::var(s)); // s⁻¹·H
/// assert_eq!(pooled.eval(&vars, 0), Some(28));
/// assert!(pooled.is_valid(&vars));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Size {
    /// Numerator of the constant factor (always ≥ 1).
    num: u64,
    /// Denominator of the constant factor (always ≥ 1, coprime with `num`).
    den: u64,
    /// The exponent of each variable, indexed by [`VarId::index`]; zero for
    /// a variable the size does not mention.
    exps: [i8; MAX_VARS],
}

// The width is part of the design: `i32` exponents (80 bytes) gave back most
// of the speed of cloning a size.
const _: () = assert!(std::mem::size_of::<Size>() == 32);

impl Default for Size {
    fn default() -> Self {
        Size::one()
    }
}

impl Hash for Size {
    /// Writes what the derived hash of `(num, den, BTreeMap<VarId, i32>)`
    /// wrote: both constants, the count of non-zero exponents, then each
    /// `(VarId, i32)` pair in variable order.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
        state.write_usize(self.powers().count());
        for (var, exp) in self.powers() {
            var.hash(state);
            exp.hash(state);
        }
    }
}

impl Size {
    /// The multiplicative identity, i.e. the scalar size `1`.
    pub fn one() -> Self {
        Size {
            num: 1,
            den: 1,
            exps: [0; MAX_VARS],
        }
    }

    /// A constant integer size.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (sizes are strictly positive).
    pub fn constant(value: u64) -> Self {
        assert!(value > 0, "sizes must be positive");
        Size {
            num: value,
            ..Size::one()
        }
    }

    /// The size consisting of a single variable to the first power.
    pub fn var(var: VarId) -> Self {
        Size::var_pow(var, 1)
    }

    /// A single variable raised to `exp` (may be negative).
    ///
    /// # Panics
    ///
    /// Panics if `exp` is outside `i8`'s range.
    pub fn var_pow(var: VarId, exp: i32) -> Self {
        let mut size = Size::one();
        size.exps[var.index()] = i8::try_from(exp).expect(OVERFLOW);
        size
    }

    /// Returns `true` when this is the scalar `1`.
    pub fn is_one(&self) -> bool {
        *self == Size::one()
    }

    /// Returns the exponent of `var` (zero when absent).
    pub fn exponent(&self, var: VarId) -> i32 {
        self.exps[var.index()].into()
    }

    /// The exponent of every variable, indexed by [`VarId::index`].
    pub(crate) fn exps(&self) -> &[i8; MAX_VARS] {
        &self.exps
    }

    /// Iterates over `(variable, exponent)` pairs with non-zero exponents,
    /// in variable order.
    pub fn powers(&self) -> impl Iterator<Item = (VarId, i32)> + '_ {
        // The top bit of each non-zero exponent byte, found in one pass
        // over all sixteen at once, then visited lowest first.
        const LOW: u128 = u128::from_ne_bytes([0x7f; MAX_VARS]);
        let bytes = u128::from_ne_bytes(self.exps.map(|e| e as u8));
        let mut nonzero = (((bytes & LOW) + LOW) | bytes) & !LOW;
        std::iter::from_fn(move || {
            let v = (nonzero != 0).then(|| nonzero.trailing_zeros() / 8)?;
            nonzero &= nonzero - 1;
            Some((VarId(v), self.exps[v as usize].into()))
        })
    }

    /// The rational constant factor as `(numerator, denominator)`.
    pub fn constant_factor(&self) -> (u64, u64) {
        (self.num, self.den)
    }

    /// `self · num/den · Π vᵢ^(sign·eᵢ)`, or `None` when a constant leaves
    /// `u64` or an exponent leaves `i8`.
    fn combine(&self, num: u64, den: u64, exps: &[i8; MAX_VARS], sign: i16) -> Option<Size> {
        let mut out = [0i8; MAX_VARS];
        let mut fits = true;
        for ((o, &a), &b) in out.iter_mut().zip(&self.exps).zip(exps) {
            let e = i16::from(a) + sign * i16::from(b);
            *o = e as i8;
            fits &= i16::from(*o) == e;
        }
        let (num, den) = (self.num.checked_mul(num)?, self.den.checked_mul(den)?);
        // Most sizes are integral: a denominator of 1 needs no reduction.
        let g = if den == 1 { 1 } else { gcd(num, den) };
        fits.then_some(Size {
            num: num / g,
            den: den / g,
            exps: out,
        })
    }

    /// Product of two sizes, or `None` when it leaves the representable
    /// range (a constant past `u64`, an exponent past `i8`).
    pub fn checked_mul(&self, other: &Size) -> Option<Size> {
        self.combine(other.num, other.den, &other.exps, 1)
    }

    /// Quotient of two sizes, or `None` when it leaves the representable
    /// range (a constant past `u64`, an exponent past `i8`).
    pub fn checked_div(&self, other: &Size) -> Option<Size> {
        self.combine(other.den, other.num, &other.exps, -1)
    }

    /// Product of two sizes.
    ///
    /// # Panics
    ///
    /// Panics where [`checked_mul`](Size::checked_mul) returns `None`.
    pub fn mul(&self, other: &Size) -> Size {
        self.checked_mul(other).expect(OVERFLOW)
    }

    /// Quotient of two sizes (always defined symbolically; validity against a
    /// [`VarTable`] decides whether it denotes an integer).
    ///
    /// # Panics
    ///
    /// Panics where [`checked_div`](Size::checked_div) returns `None`.
    pub fn div(&self, other: &Size) -> Size {
        self.checked_div(other).expect(OVERFLOW)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if an exponent is `-128`.
    pub fn recip(&self) -> Size {
        Size::one().div(self)
    }

    /// Raises the size to an integer power.
    ///
    /// # Panics
    ///
    /// Panics where a [`mul`](Size::mul) along the way would.
    pub fn pow(&self, exp: i32) -> Size {
        if exp == 0 {
            return Size::one();
        }
        let mut acc = Size::one();
        for _ in 0..exp.unsigned_abs() {
            acc = acc.mul(self);
        }
        if exp < 0 {
            acc.recip()
        } else {
            acc
        }
    }

    /// Product of many sizes, or `None` when it leaves the representable
    /// range — a decoded graph may hold domains whose product no [`Size`]
    /// can represent.
    pub fn product<'a>(sizes: impl IntoIterator<Item = &'a Size>) -> Option<Size> {
        sizes
            .into_iter()
            .try_fold(Size::one(), |acc, s| acc.checked_mul(s))
    }

    /// Evaluates under the given valuation. Returns `None` when the result is
    /// not a positive integer (e.g. `H/s` when `s ∤ H`).
    pub fn eval(&self, vars: &VarTable, valuation: usize) -> Option<u64> {
        // Accumulate numerator and denominator separately in u128 to avoid
        // overflow, then check exact divisibility.
        let mut num: u128 = self.num as u128;
        let mut den: u128 = self.den as u128;
        for (v, e) in self.powers() {
            let power = (vars.value(valuation, v) as u128).checked_pow(e.unsigned_abs())?;
            if e > 0 {
                num = num.checked_mul(power)?;
            } else {
                den = den.checked_mul(power)?;
            }
        }
        // A `u128` division is a library call: skip it for integral sizes.
        let q = match den {
            1 => num,
            0 => return None,
            _ if !num.is_multiple_of(den) => return None,
            _ => num / den,
        };
        if q == 0 || q > u64::MAX as u128 {
            None
        } else {
            Some(q as u64)
        }
    }

    /// `true` when the size evaluates to a positive integer under **every**
    /// valuation of `vars`.
    pub fn is_valid(&self, vars: &VarTable) -> bool {
        (0..vars.valuation_count()).all(|i| self.eval(vars, i).is_some())
    }

    /// `true` when the size evaluates to an integer `>= min` under every
    /// valuation.
    pub fn is_at_least(&self, vars: &VarTable, min: u64) -> bool {
        (0..vars.valuation_count()).all(|i| self.eval(vars, i).is_some_and(|v| v >= min))
    }

    /// `true` when `other` divides `self` exactly under every valuation
    /// (i.e. `self / other` is a valid size).
    pub fn is_divisible_by(&self, other: &Size, vars: &VarTable) -> bool {
        self.div(other).is_valid(vars)
    }

    /// `true` when no primary variable appears with negative exponent —
    /// the §5.4 restriction that primary variables never end up in
    /// denominators of coordinate expressions.
    pub fn primaries_nonnegative(&self, vars: &VarTable) -> bool {
        self.powers()
            .all(|(v, e)| e >= 0 || vars.kind(v) != VarKind::Primary)
    }

    /// Decides the paper's `B ≫ K` predicate (footnote 4): `self` is "much
    /// greater" than `other` when `self >= factor * other` under every
    /// valuation.
    pub fn is_much_greater(&self, other: &Size, vars: &VarTable, factor: u64) -> bool {
        if vars.valuation_count() == 0 {
            return false;
        }
        (0..vars.valuation_count()).all(|i| {
            match (self.eval(vars, i), other.eval(vars, i)) {
                (Some(a), Some(b)) => a >= factor.saturating_mul(b),
                _ => false,
            }
        })
    }

    /// Renders the size with variable names from `vars`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> SizeDisplay<'a> {
        SizeDisplay { size: self, vars }
    }

    /// A deterministic total order for canonical sorting of sizes: the
    /// constants, then the non-zero `(variable, exponent)` pairs compared
    /// lexicographically.
    pub fn cmp_key(&self, other: &Size) -> Ordering {
        (self.num, self.den)
            .cmp(&(other.num, other.den))
            .then_with(|| self.powers().cmp(other.powers()))
    }
}

/// Helper returned by [`Size::display`].
#[derive(Clone, Copy, Debug)]
pub struct SizeDisplay<'a> {
    size: &'a Size,
    vars: &'a VarTable,
}

impl fmt::Display for SizeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.size;
        let mut wrote = false;
        if s.num != 1 || (s.den == 1 && s.powers().next().is_none()) {
            write!(f, "{}", s.num)?;
            wrote = true;
        }
        if s.den != 1 {
            if !wrote {
                write!(f, "1")?;
            }
            write!(f, "/{}", s.den)?;
            wrote = true;
        }
        for (v, e) in s.powers() {
            if wrote {
                write!(f, "*")?;
            }
            write!(f, "{}", self.vars.name(v))?;
            if e != 1 {
                write!(f, "^{e}")?;
            }
            wrote = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    fn table() -> (VarTable, VarId, VarId, VarId) {
        let mut t = VarTable::new();
        let h = t.declare("H", VarKind::Primary);
        let c = t.declare("C", VarKind::Primary);
        let s = t.declare("s", VarKind::Coefficient);
        t.push_valuation(vec![(h, 56), (c, 64), (s, 2)]);
        t.push_valuation(vec![(h, 28), (c, 128), (s, 2)]);
        (t, h, c, s)
    }

    #[test]
    fn one_is_identity() {
        let (t, h, _, _) = table();
        let x = Size::var(h);
        assert_eq!(x.mul(&Size::one()), x);
        assert_eq!(x.div(&Size::one()), x);
        assert!(Size::one().is_one());
        assert_eq!(Size::one().eval(&t, 0), Some(1));
    }

    #[test]
    fn mul_div_round_trip() {
        let (_, h, c, s) = table();
        let a = Size::var(h).mul(&Size::var(c));
        let b = a.div(&Size::var(s));
        assert_eq!(b.mul(&Size::var(s)), a);
        assert_eq!(a.div(&a), Size::one());
    }

    #[test]
    fn eval_monomials() {
        let (t, h, c, s) = table();
        let hc = Size::var(h).mul(&Size::var(c));
        assert_eq!(hc.eval(&t, 0), Some(56 * 64));
        let pooled = Size::var(h).div(&Size::var(s));
        assert_eq!(pooled.eval(&t, 0), Some(28));
        assert_eq!(pooled.eval(&t, 1), Some(14));
        assert!(pooled.is_valid(&t));
        // 3/H is not an integer.
        let frac = Size::constant(3).div(&Size::var(h));
        assert_eq!(frac.eval(&t, 0), None);
        assert!(!frac.is_valid(&t));
    }

    #[test]
    fn divisibility() {
        let (t, h, _, s) = table();
        assert!(Size::var(h).is_divisible_by(&Size::var(s), &t));
        assert!(!Size::var(s).is_divisible_by(&Size::var(h), &t));
        assert!(Size::var(h).is_divisible_by(&Size::constant(4), &t));
        // 56 divisible by 8, 28 not.
        assert!(!Size::var(h).is_divisible_by(&Size::constant(8), &t));
    }

    #[test]
    fn primaries_nonnegative_rule() {
        let (t, h, _, s) = table();
        assert!(Size::var(h).div(&Size::var(s)).primaries_nonnegative(&t));
        assert!(!Size::one().div(&Size::var(h)).primaries_nonnegative(&t));
    }

    #[test]
    fn much_greater_quantifies_all_valuations() {
        let (t, h, _, s) = table();
        // H ∈ {56, 28}, s = 2: H >= 8*s in both valuations.
        assert!(Size::var(h).is_much_greater(&Size::var(s), &t, 8));
        // but not 16x in the second valuation (28 < 32).
        assert!(!Size::var(h).is_much_greater(&Size::var(s), &t, 16));
    }

    #[test]
    fn constant_normalization() {
        let a = Size::constant(6).div(&Size::constant(4));
        assert_eq!(a.constant_factor(), (3, 2));
        let b = a.mul(&Size::constant(2));
        assert_eq!(b.constant_factor(), (3, 1));
    }

    #[test]
    fn pow_and_degree() {
        let (_, h, _, s) = table();
        let x = Size::var(h).mul(&Size::var_pow(s, -1));
        let sq = x.pow(2);
        assert_eq!(sq.exponent(h), 2);
        assert_eq!(sq.exponent(s), -2);
        assert_eq!(x.pow(0), Size::one());
        assert_eq!(x.pow(-1), x.recip());
    }

    #[test]
    fn display_round_trips_structure() {
        let (t, h, _, s) = table();
        let x = Size::var(h).div(&Size::var(s));
        let shown = format!("{}", x.display(&t));
        assert!(shown.contains('H') && shown.contains('s'));
        assert_eq!(format!("{}", Size::one().display(&t)), "1");
        assert_eq!(format!("{}", Size::constant(3).display(&t)), "3");
    }
}
