//! Compiling a spec plus operand shapes into an [`EinsumPlan`]: loop order,
//! per-loop strides, fused loops and the tile the kernel sweeps.

use super::{EinsumError, EinsumSpec};
use crate::tensor::Tensor;

/// Output elements one accumulation tile holds: a few KiB, so a tile and the
/// operand runs feeding it stay in L1 while the summed loops sweep over it.
const TILE_ELEMS: usize = 1024;

/// An output loop shorter than this makes a poor innermost run: the tile
/// prefers a longer one further out, and a row this short with more terms
/// than elements keeps its sums in registers — a block of rows at a time for
/// an outer product, else one element after the other.
pub(super) const SHORT_RUN: usize = 8;

/// A tensor this many times smaller than the loop nest is worth storing in
/// loop order before the contraction runs.
const SMALL_TENSOR: usize = 16;

/// Offset steps of one operand along the three loops of the tile kernel; a
/// loop the plan lacks steps by 0.
#[derive(Clone, Copy, Debug)]
pub(super) struct Steps {
    pub(super) outer: usize,
    pub(super) mid: usize,
    pub(super) inner: usize,
}

/// A stride-compiled einsum: the spec plus concrete operand shapes, lowered
/// once into per-loop strides and reusable across executions.
///
/// Loops are the spec's distinct indices: output indices first (in the
/// storage order of the largest operand that has them all, else first-seen),
/// then summed ones in first-seen order. Adjacent loops of one kind that
/// every operand and the output walk as a single affine run are fused, which
/// keeps the visit order; a tensor much smaller than the loop nest is first
/// stored in loop order so that more of them do. Execution nests the loops
/// `[outer output loops] → [chunks of the outermost summed index] → [summed
/// loops] → [a tile of two output loops]`: an output element meets its terms
/// in the order of [`einsum_reference`](super::einsum_reference), starting
/// from `+0.0`, and only independent elements trade places — so the result
/// is bit-identical to it.
#[derive(Clone, Debug)]
pub struct EinsumPlan {
    /// Loop extents after fusing, output loops first.
    pub(super) dims: Vec<usize>,
    /// Output tensor shape.
    pub(super) out_shape: Vec<usize>,
    /// Operand shapes the plan was compiled for (validated at execution).
    op_shapes: Vec<Vec<usize>>,
    /// `op_strides[op][slot]`: offset delta when loop `slot` ticks.
    pub(super) op_strides: Vec<Vec<usize>>,
    /// Output offset delta per loop slot.
    pub(super) out_strides: Vec<usize>,
    /// Number of output loop slots; slots `n_out..` are summed.
    pub(super) n_out: usize,
    /// Extent of the spec's outermost summed index — the axis the
    /// deterministic tree reduction chunks — and how many steps of loop
    /// `n_out` one step of it spans after fusing. `(1, 1)` without one.
    pub(super) chunk: (usize, usize),
    /// Extents of the two output loops a tile spans, `[outer, inner]` (1
    /// where the plan has fewer): innermost the last one that is no
    /// [`SHORT_RUN`], else the longest; around it the last one left.
    pub(super) tile: [usize; 2],
    /// The output loops outside the tile, in nesting order.
    pub(super) outer: Vec<usize>,
    /// How many steps of each tile loop one tile covers.
    pub(super) block: [usize; 2],
    /// Each operand's steps along the kernel's loops: the tile's two and the
    /// innermost summed loop between them.
    pub(super) steps: Vec<Steps>,
    /// The output's steps along the tile's loops, `[outer, inner]`.
    pub(super) out_steps: [usize; 2],
    /// Axis permutations that store a small tensor in loop order, so that
    /// its loops fuse with the big operands': one per operand (applied
    /// before the contraction), then the output's (undone after it).
    pub(super) perms: Vec<Option<Vec<usize>>>,
}

impl EinsumPlan {
    /// Compiles `spec` for the given operand shapes.
    ///
    /// # Errors
    ///
    /// Propagates binding errors; see [`EinsumError`].
    pub fn compile(spec: &EinsumSpec, shapes: &[&[usize]]) -> Result<Self, EinsumError> {
        let extents = spec.bind_extents(shapes)?;
        // `all_indices` orders output letters first.
        let mut order = spec.all_indices();
        let raw_out = order.iter().filter(|c| spec.output.contains(c)).count();
        let out_shape: Vec<usize> = spec.output.iter().map(|c| extents[c]).collect();
        let numel = |shape: &[usize]| shape.iter().product::<usize>();
        // Output elements are independent, so their loops may nest in any
        // order: the storage order of the largest operand that carries them
        // all, when there is one. (Summed loops keep theirs — it is the
        // summation order.)
        let carries_all = |l: &&Vec<char>| order[..raw_out].iter().all(|c| l.contains(c));
        let lead = spec.inputs.iter().zip(shapes).rev().filter(|(l, _)| carries_all(l));
        if let Some((lead, _)) = lead.max_by_key(|(_, shape)| numel(shape)) {
            order[..raw_out].sort_by_key(|c| lead.iter().position(|l| l == c));
        }
        let slot_of = |c: &char| order.iter().position(|o| o == c).expect("bound index");
        // One stride table per operand, then the output's. A tensor much
        // smaller than the loop nest first has its output axes put in loop
        // order among themselves, and its summed axes likewise (its `perms`
        // entry); a repeated letter adds up its positions' strides (the
        // diagonal) and stays as it is.
        let points: usize = order.iter().map(|c| extents[c]).product();
        let letters = spec.inputs.iter().chain([&spec.output]);
        let (perms, tables): (Vec<Option<Vec<usize>>>, Vec<Vec<usize>>) = letters
            .zip(shapes.iter().copied().chain([out_shape.as_slice()]))
            .map(|(letters, shape)| {
                let mut perm: Vec<usize> = (0..letters.len()).collect();
                let distinct = (1..letters.len()).all(|i| !letters[..i].contains(&letters[i]));
                if distinct && numel(shape).saturating_mul(SMALL_TENSOR) <= points {
                    for summed in [false, true] {
                        let of_kind = |&pos: &usize| (slot_of(&letters[pos]) >= raw_out) == summed;
                        let at: Vec<usize> = (0..letters.len()).filter(of_kind).collect();
                        let mut sorted = at.clone();
                        sorted.sort_by_key(|&pos| slot_of(&letters[pos]));
                        for (to, from) in at.into_iter().zip(sorted) {
                            perm[to] = from;
                        }
                    }
                }
                let stored: Vec<usize> = perm.iter().map(|&pos| shape[pos]).collect();
                let ts = Tensor::strides_of(&stored);
                let mut per_slot = vec![0usize; order.len()];
                for (&pos, stride) in perm.iter().zip(ts) {
                    per_slot[slot_of(&letters[pos])] += stride;
                }
                ((!perm.is_sorted()).then_some(perm), per_slot)
            })
            .unzip();

        // Fuse a loop into its predecessor of the same kind when one of them
        // has a single step or every table walks the pair as one run.
        let mut dims: Vec<usize> = Vec::new();
        let mut fused: Vec<Vec<usize>> = vec![Vec::new(); tables.len()];
        let mut n_out = 0;
        for (slot, c) in order.iter().enumerate() {
            let extent = extents[c];
            let joins = slot != raw_out
                && dims.last().is_some_and(|&prev| {
                    prev == 1
                        || extent == 1
                        || tables
                            .iter()
                            .zip(&fused)
                            .all(|(t, f)| f[f.len() - 1] == t[slot] * extent)
                });
            if joins {
                let prev = dims.last_mut().expect("joins a predecessor");
                if *prev == 1 || extent != 1 {
                    for (t, f) in tables.iter().zip(&mut fused) {
                        *f.last_mut().expect("one step per fused loop") = t[slot];
                    }
                }
                *prev *= extent;
            } else {
                dims.push(extent);
                for (t, f) in tables.iter().zip(&mut fused) {
                    f.push(t[slot]);
                }
                n_out += usize::from(slot < raw_out);
            }
        }
        let chunk = match order.get(raw_out) {
            Some(c) => (extents[c], dims[n_out] / extents[c].max(1)),
            None => (1, 1),
        };
        let out_strides = fused.pop().expect("the output's table");

        let inner = (0..n_out)
            .rev()
            .find(|&s| dims[s] >= SHORT_RUN)
            .or_else(|| (0..n_out).max_by_key(|&s| dims[s]));
        let outer = (0..n_out).rev().find(|&s| Some(s) != inner);
        let rest = (0..n_out).filter(|&s| Some(s) != inner && Some(s) != outer);
        let mid = (dims.len() > n_out).then(|| dims.len() - 1);
        let step = |strides: &[usize], slot: Option<usize>| slot.map_or(0, |s| strides[s]);
        let steps = fused
            .iter()
            .map(|s| Steps {
                outer: step(s, outer),
                mid: step(s, mid),
                inner: step(s, inner),
            })
            .collect();
        let out_steps = [step(&out_strides, outer), step(&out_strides, inner)];
        let tile = [outer, inner].map(|slot| slot.map_or(1, |s| dims[s]));
        let inner_block = tile[1].clamp(1, TILE_ELEMS);
        let block = [tile[0].clamp(1, TILE_ELEMS / inner_block), inner_block];
        Ok(EinsumPlan {
            dims,
            out_shape,
            op_shapes: shapes.iter().map(|s| s.to_vec()).collect(),
            op_strides: fused,
            out_strides,
            n_out,
            chunk,
            tile,
            outer: rest.collect(),
            block,
            steps,
            out_steps,
            perms,
        })
    }

    /// The output shape this plan produces.
    pub(super) fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// `true` when `operands` match the shapes the plan was compiled for.
    pub(super) fn matches(&self, operands: &[&Tensor]) -> bool {
        operands.len() == self.op_shapes.len()
            && operands
                .iter()
                .zip(&self.op_shapes)
                .all(|(t, s)| t.shape() == s.as_slice())
    }
}
