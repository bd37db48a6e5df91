//! General Einstein-summation contraction.
//!
//! The paper's PyTorch code generator lowers every `Share`/`Reduce`
//! contraction to an `einsum` expression (§8); this module provides the
//! equivalent engine for the Rust runtime. Any number of operands is
//! supported; indices absent from the output are summed.
//!
//! Execution is *stride-compiled*: [`EinsumPlan::compile`] turns a spec plus
//! operand shapes into a reusable program of per-loop strides, and execution
//! works **a row of output elements at a time**: the innermost loop is always
//! a contiguous or constant-stride run over independent output elements,
//! accumulated into a small tile, with all index arithmetic hoisted to once
//! per row and no allocation per element. Where a row is too short for that,
//! or a chunk of the sum holds only a few terms, independent elements' sums
//! sit side by side in registers instead: a block of short outer-product
//! rows, or a group of few-term elements whose chunk partials and chunk tree
//! never touch the tile. Only independent elements trade places: each one
//! still meets its terms in the order of the original per-element
//! implementation, which survives as [`einsum_reference`] — the
//! differential-testing suite pins the paths bit-for-bit equal.
//!
//! An [`EinsumEngine`] runs every plan on the calling thread under an
//! [`ExecPolicy`]: a `reduce_width > 1` splits the outermost summed index
//! into a pinned number of contiguous chunks whose partial tiles are
//! combined in a deterministic pairwise-adjacent binary tree. The chunking
//! and combine order depend only on (shapes, `reduce_width`), and a width of
//! `1` reproduces serial summation order exactly. A search runs in parallel
//! across candidates, each training on its own tape, never within one
//! contraction.

mod execute;
mod plan;
#[cfg(test)]
mod tests;

pub use execute::ExecPolicy;
pub use plan::EinsumPlan;

use crate::pool::ScratchPool;
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from parsing or executing an einsum specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EinsumError {
    /// The spec string is malformed (missing `->`, wrong operand count, …).
    BadSpec(String),
    /// An index letter is bound to two different extents.
    ExtentMismatch(char),
    /// An output index never appears in any operand.
    UnboundOutput(char),
}

impl fmt::Display for EinsumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EinsumError::BadSpec(s) => write!(f, "malformed einsum spec: {s}"),
            EinsumError::ExtentMismatch(c) => {
                write!(f, "index '{c}' bound to conflicting extents")
            }
            EinsumError::UnboundOutput(c) => write!(f, "output index '{c}' unbound"),
        }
    }
}

impl Error for EinsumError {}

/// A parsed einsum specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EinsumSpec {
    /// Index letters per operand.
    pub inputs: Vec<Vec<char>>,
    /// Output index letters.
    pub output: Vec<char>,
}

impl EinsumSpec {
    /// Parses `"ab,bc->ac"`-style notation.
    ///
    /// # Errors
    ///
    /// Returns [`EinsumError::BadSpec`] when the arrow is missing or an
    /// operand list is empty.
    pub fn parse(spec: &str) -> Result<Self, EinsumError> {
        let (lhs, rhs) = spec
            .split_once("->")
            .ok_or_else(|| EinsumError::BadSpec(spec.to_owned()))?;
        let inputs: Vec<Vec<char>> = lhs.split(',').map(|s| s.trim().chars().collect()).collect();
        if inputs.is_empty() {
            return Err(EinsumError::BadSpec(spec.to_owned()));
        }
        let output: Vec<char> = rhs.trim().chars().collect();
        Ok(EinsumSpec { inputs, output })
    }

    /// All distinct index letters, output first then summed, in first-seen
    /// order.
    pub fn all_indices(&self) -> Vec<char> {
        let mut order: Vec<char> = Vec::new();
        for &c in &self.output {
            if !order.contains(&c) {
                order.push(c);
            }
        }
        for input in &self.inputs {
            for &c in input {
                if !order.contains(&c) {
                    order.push(c);
                }
            }
        }
        order
    }

    /// The specification string.
    pub fn render(&self) -> String {
        let lhs: Vec<String> = self
            .inputs
            .iter()
            .map(|i| i.iter().collect::<String>())
            .collect();
        format!("{}->{}", lhs.join(","), self.output.iter().collect::<String>())
    }

    /// Binds index letters to extents across all operand shapes.
    ///
    /// # Errors
    ///
    /// [`EinsumError`] when the operand count or a rank disagrees with the
    /// spec, a letter binds two extents, or an output letter is unbound.
    pub fn bind_extents(&self, shapes: &[&[usize]]) -> Result<BTreeMap<char, usize>, EinsumError> {
        if shapes.len() != self.inputs.len() {
            return Err(EinsumError::BadSpec(format!(
                "{} operands for {} input specs",
                shapes.len(),
                self.inputs.len()
            )));
        }
        let mut extents = BTreeMap::new();
        for (input, shape) in self.inputs.iter().zip(shapes) {
            if input.len() != shape.len() {
                return Err(EinsumError::BadSpec(format!(
                    "operand rank {} != spec arity {}",
                    shape.len(),
                    input.len()
                )));
            }
            for (&c, &extent) in input.iter().zip(shape.iter()) {
                match extents.get(&c) {
                    Some(&e) if e != extent => return Err(EinsumError::ExtentMismatch(c)),
                    Some(_) => {}
                    None => {
                        extents.insert(c, extent);
                    }
                }
            }
        }
        for &c in &self.output {
            if !extents.contains_key(&c) {
                return Err(EinsumError::UnboundOutput(c));
            }
        }
        Ok(extents)
    }
}

/// A cache of [`EinsumPlan`]s keyed by spec and operand shapes, plus the
/// execution scratch — one per executor/tape, so the per-candidate hot loop
/// compiles each contraction once and then runs allocation-free.
///
/// Lookups compare the raw spec text (forward path) or the parsed spec
/// (autodiff VJP path) against a small linear table; models use a handful
/// of distinct contractions, so the scan is cheaper than hashing.
///
/// An engine carries an [`ExecPolicy`] and every contraction it runs
/// executes under it, on the calling thread. The default is the pinned
/// determinism contract (`reduce_width = 4`).
#[derive(Debug, Default)]
pub struct EinsumEngine {
    entries: Vec<EngineEntry>,
    /// Accumulation-tile scratch, kept across contractions.
    tile: Vec<f32>,
    policy: ExecPolicy,
}

#[derive(Debug)]
struct EngineEntry {
    /// Raw spec text (empty for entries created from parsed specs).
    text: String,
    spec: EinsumSpec,
    plan: EinsumPlan,
}

impl EinsumEngine {
    /// An empty engine under the default (pinned-contract) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty engine under `policy`.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        EinsumEngine {
            policy,
            ..Self::default()
        }
    }

    /// Number of compiled plans.
    pub fn plans(&self) -> usize {
        self.entries.len()
    }

    /// Executes `spec` over `operands`, compiling and caching the plan on
    /// first use; the output buffer comes from `pool`.
    ///
    /// # Errors
    ///
    /// Propagates parse/binding errors; see [`EinsumError`].
    pub fn einsum(
        &mut self,
        spec: &str,
        operands: &[&Tensor],
        pool: &mut ScratchPool,
    ) -> Result<Tensor, EinsumError> {
        let hit = self
            .entries
            .iter()
            .position(|e| e.text == spec && e.plan.matches(operands));
        let at = match hit {
            Some(at) => at,
            None => {
                let parsed = EinsumSpec::parse(spec)?;
                self.insert(spec.to_owned(), parsed, operands)?
            }
        };
        Ok(self.run(at, operands, pool))
    }

    /// [`EinsumEngine::einsum`] for an already-parsed spec (the autodiff
    /// backward path, whose VJP specs never exist as text).
    ///
    /// # Errors
    ///
    /// Propagates binding errors; see [`EinsumError`].
    pub fn einsum_parsed(
        &mut self,
        spec: &EinsumSpec,
        operands: &[&Tensor],
        pool: &mut ScratchPool,
    ) -> Result<Tensor, EinsumError> {
        let hit = self
            .entries
            .iter()
            .position(|e| e.spec == *spec && e.plan.matches(operands));
        let at = match hit {
            Some(at) => at,
            None => self.insert(String::new(), spec.clone(), operands)?,
        };
        Ok(self.run(at, operands, pool))
    }

    fn insert(
        &mut self,
        text: String,
        spec: EinsumSpec,
        operands: &[&Tensor],
    ) -> Result<usize, EinsumError> {
        let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
        let plan = EinsumPlan::compile(&spec, &shapes)?;
        self.entries.push(EngineEntry { text, spec, plan });
        Ok(self.entries.len() - 1)
    }

    fn run(&mut self, at: usize, operands: &[&Tensor], pool: &mut ScratchPool) -> Tensor {
        let plan = &self.entries[at].plan;
        let mut out = pool.take_tensor(plan.out_shape());
        plan.execute_with(operands, out.data_mut(), self.policy, &mut self.tile);
        out
    }
}

/// Executes a parsed einsum over the operands via a one-shot
/// [`EinsumPlan`].
///
/// # Errors
///
/// Propagates binding errors; see [`EinsumError`].
pub fn einsum_spec(spec: &EinsumSpec, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    Ok(EinsumPlan::compile(spec, &shapes)?.execute(operands))
}

/// The deliberately naive per-element reference implementation: for every
/// point of the full index space, recompute each operand offset as a stride
/// dot product. This is the pre-compilation engine, kept verbatim as the
/// ground truth the stride-compiled path is differentially tested against.
///
/// # Errors
///
/// Propagates binding errors; see [`EinsumError`].
pub fn einsum_spec_reference(
    spec: &EinsumSpec,
    operands: &[&Tensor],
) -> Result<Tensor, EinsumError> {
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    let extents = spec.bind_extents(&shapes)?;
    let order = spec.all_indices();
    let dims: Vec<usize> = order.iter().map(|c| extents[c]).collect();
    let out_shape: Vec<usize> = spec.output.iter().map(|c| extents[c]).collect();
    let mut out = Tensor::zeros(&out_shape);
    let out_strides = Tensor::strides_of(&out_shape);

    // Per-operand: stride contribution of each loop index.
    let mut op_strides: Vec<Vec<usize>> = Vec::with_capacity(operands.len());
    for (input, t) in spec.inputs.iter().zip(operands) {
        let ts = Tensor::strides_of(t.shape());
        let mut per_index = vec![0usize; order.len()];
        for (pos, &c) in input.iter().enumerate() {
            let slot = order.iter().position(|&o| o == c).expect("bound index");
            per_index[slot] += ts[pos];
        }
        op_strides.push(per_index);
    }
    // Output stride contribution per loop index.
    let mut out_index_strides = vec![0usize; order.len()];
    for (pos, &c) in spec.output.iter().enumerate() {
        let slot = order.iter().position(|&o| o == c).expect("output index");
        out_index_strides[slot] += out_strides[pos];
    }

    let total: usize = dims.iter().product::<usize>().max(1);
    let mut idx = vec![0usize; order.len()];
    for _ in 0..total {
        let mut product = 1.0f32;
        for (t, strides) in operands.iter().zip(&op_strides) {
            let mut off = 0;
            for (slot, &i) in idx.iter().enumerate() {
                off += i * strides[slot];
            }
            product *= t.data()[off];
        }
        let mut out_off = 0;
        for (slot, &i) in idx.iter().enumerate() {
            out_off += i * out_index_strides[slot];
        }
        out.data_mut()[out_off] += product;

        // Odometer increment.
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    Ok(out)
}

/// Parses and executes `spec` over `operands` with [`einsum_spec_reference`].
///
/// # Errors
///
/// Returns an [`EinsumError`] on malformed specs or shape conflicts.
pub fn einsum_reference(spec: &str, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    einsum_spec_reference(&EinsumSpec::parse(spec)?, operands)
}

/// Parses and executes `spec` over `operands`.
///
/// # Errors
///
/// Returns an [`EinsumError`] on malformed specs or shape conflicts.
///
/// # Examples
///
/// ```
/// use syno_tensor::{einsum, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// let c = einsum("ij,jk->ik", &[&a, &b])?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn einsum(spec: &str, operands: &[&Tensor]) -> Result<Tensor, EinsumError> {
    einsum_spec(&EinsumSpec::parse(spec)?, operands)
}

/// Matrix multiplication `[m,k]·[k,n] → [m,n]` via einsum.
///
/// # Panics
///
/// Panics on rank/shape mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    einsum("mk,kn->mn", &[a, b]).expect("matmul shapes validated by einsum")
}
