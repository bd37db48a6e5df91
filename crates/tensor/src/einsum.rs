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
//! per row and no allocation per element. Only independent elements trade
//! places: each one still meets its terms in the order of the original
//! per-element implementation, which survives as [`einsum_reference`] — the
//! differential-testing suite pins the two paths bit-for-bit equal.
//!
//! [`EinsumPlan::execute_with`] executes under an [`ExecPolicy`]: a
//! `reduce_width > 1` splits the outermost summed index into a pinned number
//! of contiguous chunks whose partial tiles are combined in a deterministic
//! pairwise-adjacent binary tree, and `exec_threads > 1` hands disjoint
//! ranges of tiles to an [`ExecPool`]. The chunking and combine order depend
//! only on (shapes, `reduce_width`) — never on thread count — so values are
//! bit-identical across `exec_threads` at a fixed width, and a width of `1`
//! reproduces serial summation order exactly.

use crate::exec::{ExecPolicy, ExecPool};
use crate::ops;
use crate::pool::ScratchPool;
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::iter::repeat;

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

/// Output elements one accumulation tile holds: a few KiB, so a tile and the
/// operand runs feeding it stay in L1 while the summed loops sweep over it.
const TILE_ELEMS: usize = 1024;

/// An output loop shorter than this makes a poor innermost run: the tile
/// prefers a longer one further out, and a row this short runs its elements'
/// sums one after the other.
const SHORT_RUN: usize = 8;

/// A tensor this many times smaller than the loop nest is worth storing in
/// loop order before the contraction runs.
const SMALL_TENSOR: usize = 16;

/// Offset steps of one operand along the three loops of the tile kernel; a
/// loop the plan lacks steps by 0.
#[derive(Clone, Copy, Debug)]
struct Steps {
    outer: usize,
    mid: usize,
    inner: usize,
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
/// in the order of [`einsum_reference`], starting from `+0.0`, and only
/// independent elements trade places — so the result is bit-identical to it.
#[derive(Clone, Debug)]
pub struct EinsumPlan {
    /// Loop extents after fusing, output loops first.
    dims: Vec<usize>,
    /// Output tensor shape.
    out_shape: Vec<usize>,
    /// Operand shapes the plan was compiled for (validated at execution).
    op_shapes: Vec<Vec<usize>>,
    /// `op_strides[op][slot]`: offset delta when loop `slot` ticks.
    op_strides: Vec<Vec<usize>>,
    /// Output offset delta per loop slot.
    out_strides: Vec<usize>,
    /// Number of output loop slots; slots `n_out..` are summed.
    n_out: usize,
    /// Extent of the spec's outermost summed index — the axis the
    /// deterministic tree reduction chunks — and how many steps of loop
    /// `n_out` one step of it spans after fusing. `(1, 1)` without one.
    chunk: (usize, usize),
    /// Extents of the two output loops a tile spans, `[outer, inner]` (1
    /// where the plan has fewer): innermost the last one that is no
    /// [`SHORT_RUN`], else the longest; around it the last one left.
    tile: [usize; 2],
    /// The output loops outside the tile, in nesting order.
    outer: Vec<usize>,
    /// How many steps of each tile loop one tile covers.
    block: [usize; 2],
    /// Each operand's steps along the kernel's loops: the tile's two and the
    /// innermost summed loop between them.
    steps: Vec<Steps>,
    /// The output's steps along the tile's loops, `[outer, inner]`.
    out_steps: [usize; 2],
    /// Axis permutations that store a small tensor in loop order, so that
    /// its loops fuse with the big operands': one per operand (applied
    /// before the contraction), then the output's (undone after it).
    perms: Vec<Option<Vec<usize>>>,
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
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// `true` when `operands` match the shapes the plan was compiled for.
    pub fn matches(&self, operands: &[&Tensor]) -> bool {
        operands.len() == self.op_shapes.len()
            && operands
                .iter()
                .zip(&self.op_shapes)
                .all(|(t, s)| t.shape() == s.as_slice())
    }

    /// Executes the contraction into `out` (zeroed, of the plan's output
    /// element count) under `policy`, optionally sharding across `workers`.
    /// `tile` is the accumulation scratch, reusable across calls.
    ///
    /// A `reduce_width > 1` splits the outermost summed index into that many
    /// contiguous chunks (at most its extent), sums each into its own tile
    /// and combines the tiles pairwise-adjacent; `exec_threads > 1` hands
    /// contiguous ranges of tiles — disjoint output elements — to the pool.
    ///
    /// The value contract: for a fixed `policy.reduce_width`, the result is
    /// **bit-identical** regardless of `policy.exec_threads`, worker count,
    /// or scheduling — chunking and tree shape depend only on the compiled
    /// shapes and the width. `reduce_width == 1` reproduces
    /// [`einsum_reference`]'s serial summation order exactly.
    ///
    /// # Panics
    ///
    /// Panics when operand count/shapes disagree with the compiled shapes,
    /// and re-raises any panic a shard raised.
    pub fn execute_with(
        &self,
        operands: &[&Tensor],
        out: &mut [f32],
        policy: ExecPolicy,
        workers: Option<&ExecPool>,
        tile: &mut Vec<f32>,
    ) {
        assert!(self.matches(operands), "operands do not match the plan");
        assert_eq!(out.len(), self.out_shape.iter().product::<usize>());
        if self.dims.contains(&0) {
            return; // no output element, or an empty sum: `out` stays zero
        }
        let (out_perm, op_perms) = self.perms.split_last().expect("the output's entry");
        let stored: Vec<Option<Tensor>> = op_perms
            .iter()
            .zip(operands)
            .map(|(perm, t)| perm.as_ref().map(|perm| ops::permute(t, perm)))
            .collect();
        let datas: Vec<&[f32]> = stored
            .iter()
            .zip(operands)
            .map(|(stored, t)| stored.as_ref().unwrap_or(t).data())
            .collect();
        let datas = datas.as_slice();
        if let Some(perm) = out_perm {
            // Contract into loop order, then store as the spec asks.
            let shape: Vec<usize> = perm.iter().map(|&pos| self.out_shape[pos]).collect();
            let mut staged = Tensor::zeros(&shape);
            self.run_sharded(datas, staged.data_mut(), policy, workers, tile);
            let unstaged = ops::permute(&staged, &ops::inverse_permutation(perm));
            out.copy_from_slice(unstaged.data());
        } else {
            self.run_sharded(datas, out, policy, workers, tile);
        }
    }

    /// Runs every tile, on the pool when the policy and `workers` allow.
    fn run_sharded(
        &self,
        datas: &[&[f32]],
        out: &mut [f32],
        policy: ExecPolicy,
        workers: Option<&ExecPool>,
        tile: &mut Vec<f32>,
    ) {
        let chunks = policy.reduce_width.clamp(1, self.chunk.0);
        let buf_len = chunks * self.block[0] * self.block[1];
        let [tiles_o, tiles_i] = self.tile_counts();
        let tiles = self.outer.iter().fold(tiles_o * tiles_i, |n, &d| n * self.dims[d]);
        let out = SharedOut {
            base: out.as_mut_ptr(),
            len: out.len(),
        };
        let pool = workers.filter(|p| p.worker_count() > 0);
        let shards = pool.map_or(1, |_| policy.exec_threads.min(tiles));
        match pool {
            Some(pool) if shards > 1 => {
                let (q, r) = (tiles / shards, tiles % shards);
                // `out` is borrowed whole (it is `Sync`) — precise capture
                // of the raw-pointer field would not be.
                let out = &out;
                pool.run(shards, &|i| {
                    let lo = i * q + i.min(r);
                    let hi = lo + q + usize::from(i < r);
                    let mut buf = vec![0.0; buf_len];
                    self.run_tiles(datas, out, lo..hi, chunks, &mut buf);
                });
            }
            _ => {
                tile.resize(buf_len, 0.0);
                self.run_tiles(datas, &out, 0..tiles, chunks, tile);
            }
        }
    }

    /// How many blocks each tile loop splits into, `[outer, inner]`.
    fn tile_counts(&self) -> [usize; 2] {
        [0, 1].map(|level| self.tile[level].div_ceil(self.block[level]))
    }

    /// Computes the output elements of `tiles` (flat tile numbers, outer
    /// output loops slowest). Per tile: one `+0.0` accumulator tile per
    /// chunk in `buf`, the summed loops walked in odometer order with the
    /// innermost one inside the kernel, then the chunk tiles combined and
    /// written out.
    fn run_tiles(
        &self,
        datas: &[&[f32]],
        out: &SharedOut,
        tiles: std::ops::Range<usize>,
        chunks: usize,
        buf: &mut [f32],
    ) {
        let steps = &self.steps;
        // The kernel's middle loop is the innermost summed one; the odometer
        // walks the summed loops outside it.
        let mid = (self.dims.len() > self.n_out).then(|| self.dims.len() - 1);
        let walk = self.n_out..mid.unwrap_or(self.n_out);
        let [out_outer, out_inner] = self.out_steps;
        let [block_o, block_i] = self.block;
        let [tiles_o, tiles_i] = self.tile_counts();
        let mut base = vec![0usize; datas.len()];
        let mut offs = vec![0usize; datas.len()];
        let mut idx = vec![0usize; walk.len()];
        // Where the tile sits: the outer loops' indices, then its block
        // numbers — decoded once, then an odometer from tile to tile.
        let outer_counts = self.outer.iter().map(|&d| self.dims[d]);
        let counts: Vec<usize> = outer_counts.chain([tiles_o, tiles_i]).collect();
        let mut at = vec![0usize; counts.len()];
        let mut rest = tiles.start;
        for (coord, &count) in at.iter_mut().zip(&counts).rev() {
            (*coord, rest) = (rest % count, rest / count);
        }
        for _ in tiles {
            let (o0, i0) = (at[at.len() - 2] * block_o, at[at.len() - 1] * block_i);
            let (n_o, n_i) = ((self.tile[0] - o0).min(block_o), (self.tile[1] - i0).min(block_i));
            let mut out_base = o0 * out_outer + i0 * out_inner;
            for (b, s) in base.iter_mut().zip(steps) {
                *b = o0 * s.outer + i0 * s.inner;
            }
            for (&coord, &d) in at.iter().zip(&self.outer) {
                out_base += coord * self.out_strides[d];
                for (b, s) in base.iter_mut().zip(&self.op_strides) {
                    *b += coord * s[d];
                }
            }
            for (coord, &count) in at.iter_mut().zip(&counts).rev() {
                *coord += 1;
                if *coord < count {
                    break;
                }
                *coord = 0;
            }

            let len = n_o * n_i;
            // A single chunk over a block the (zeroed) output holds as one
            // run accumulates in place; otherwise per-chunk tiles in `buf`
            // are combined and copied out.
            let in_place = chunks == 1 && out_inner == 1 && (n_o == 1 || out_outer == n_i);
            let tile = if in_place {
                // SAFETY: tiles partition the output index space and distinct
                // output indices have distinct offsets, so no other shard
                // touches this block.
                unsafe { out.slice(out_base, len) }
            } else {
                buf[..chunks * len].fill(0.0);
                &mut buf[..chunks * len]
            };
            let (q, r) = (self.chunk.0 / chunks, self.chunk.0 % chunks);
            for (c, part) in tile.chunks_exact_mut(len).enumerate() {
                // `lo..hi` bounds the outermost summed loop: the first one
                // walked, or the kernel's middle loop when it is the only one.
                let lo = (c * q + c.min(r)) * self.chunk.1;
                let hi = lo + (q + usize::from(c < r)) * self.chunk.1;
                let (lead, n_m, rows) = match mid {
                    None => (None, 1, 1),
                    Some(_) if walk.is_empty() => (mid, hi - lo, 1),
                    Some(m) => {
                        let inside: usize = self.dims[walk.start + 1..walk.end].iter().product();
                        (Some(walk.start), self.dims[m], (hi - lo) * inside)
                    }
                };
                for ((off, b), s) in offs.iter_mut().zip(&base).zip(&self.op_strides) {
                    *off = b + lo * lead.map_or(0, |d| s[d]);
                }
                idx.fill(0);
                for row in 0..rows {
                    if row > 0 {
                        // Odometer tick with incremental offsets: a tick of
                        // loop `d` adds its stride, a wrap backs out the range.
                        for (w, d) in walk.clone().enumerate().rev() {
                            let span = if w == 0 { hi - lo } else { self.dims[d] };
                            idx[w] += 1;
                            if idx[w] < span {
                                for (off, s) in offs.iter_mut().zip(&self.op_strides) {
                                    *off += s[d];
                                }
                                break;
                            }
                            idx[w] = 0;
                            for (off, s) in offs.iter_mut().zip(&self.op_strides) {
                                *off -= (span - 1) * s[d];
                            }
                        }
                    }
                    match (datas, &steps[..]) {
                        ([a, b], [sa, sb]) => {
                            mac2(part, n_i, n_m, (a, offs[0], *sa), (b, offs[1], *sb));
                        }
                        // One operand is itself times a broadcast 1.0.
                        ([a], [sa]) => mac2(part, n_i, n_m, (a, offs[0], *sa), ONE),
                        _ => mac_n(part, n_i, n_m, datas, &offs, steps),
                    }
                }
            }
            if in_place {
                continue;
            }
            combine_tree(tile, len, chunks);
            for (o, row) in tile[..len].chunks_exact(n_i).enumerate() {
                let at = out_base + o * out_outer;
                if out_inner == 1 {
                    // SAFETY: this row lies in the tile's own output block,
                    // which no other shard touches (see the in-place case).
                    unsafe { out.slice(at, n_i) }.copy_from_slice(row);
                } else {
                    for (i, &v) in row.iter().enumerate() {
                        // SAFETY: one element of the tile's own output block,
                        // borrowed for this write only.
                        let cell = unsafe { out.slice(at + i * out_inner, 1) };
                        cell[0] = v;
                    }
                }
            }
        }
    }

    /// Executes the plan into a fresh tensor, in serial summation order.
    ///
    /// # Panics
    ///
    /// Panics when operand shapes disagree with the compiled shapes.
    pub fn execute(&self, operands: &[&Tensor]) -> Tensor {
        let mut out = Tensor::zeros(&self.out_shape);
        self.execute_with(operands, out.data_mut(), ExecPolicy::serial(), None, &mut Vec::new());
        out
    }
}

/// The second operand of a one-operand contraction: `x · 1.0` is `x`, bit for
/// bit, as is the reference's `1.0 · x`.
const ONE: (&[f32], usize, Steps) = (&[1.0], 0, Steps { outer: 0, mid: 0, inner: 0 });

/// The two-operand tile kernel: `tile[o][i] += a · b` for every step `m` of
/// the middle (summed) loop, `m` ascending per element. Rows of `n_i`
/// independent elements run innermost, specialised on each operand's inner
/// step — broadcast, contiguous or strided — so they vectorise; a row too
/// short to amortise that runs its elements' `m` loops one after the other.
fn mac2(
    tile: &mut [f32],
    n_i: usize,
    n_m: usize,
    (a, oa, sa): (&[f32], usize, Steps),
    (b, ob, sb): (&[f32], usize, Steps),
) {
    for (o, row) in tile.chunks_exact_mut(n_i).enumerate() {
        let (oa, ob) = (oa + o * sa.outer, ob + o * sb.outer);
        if n_i < SHORT_RUN && n_m > n_i {
            for (i, t) in row.iter_mut().enumerate() {
                let (mut oa, mut ob) = (oa + i * sa.inner, ob + i * sb.inner);
                let mut acc = *t;
                for _ in 0..n_m {
                    acc += a[oa] * b[ob];
                    (oa, ob) = (oa + sa.mid, ob + sb.mid);
                }
                *t = acc;
            }
            continue;
        }
        for m in 0..n_m {
            let (xs, ys) = (&a[oa + m * sa.mid..], &b[ob + m * sb.mid..]);
            macro_rules! run {
                ($x:pat, $xs:expr, $xv:expr, $y:pat, $ys:expr, $yv:expr) => {
                    for ((t, $x), $y) in row.iter_mut().zip($xs).zip($ys) {
                        *t += $xv * $yv;
                    }
                };
            }
            let (x0, y0) = (xs[0], ys[0]);
            match (sa.inner, sb.inner) {
                (0, 0) => row.iter_mut().for_each(|t| *t += x0 * y0),
                (0, 1) => run!(_, repeat(()), x0, &y, &ys[..n_i], y),
                (0, s) => run!(_, repeat(()), x0, &y, ys.iter().step_by(s), y),
                (1, 0) => run!(&x, &xs[..n_i], x, _, repeat(()), y0),
                (1, 1) => run!(&x, &xs[..n_i], x, &y, &ys[..n_i], y),
                (1, s) => run!(&x, &xs[..n_i], x, &y, ys.iter().step_by(s), y),
                (r, 0) => run!(&x, xs.iter().step_by(r), x, _, repeat(()), y0),
                (r, 1) => run!(&x, xs.iter().step_by(r), x, &y, &ys[..n_i], y),
                (r, s) => run!(&x, xs.iter().step_by(r), x, &y, ys.iter().step_by(s), y),
            }
        }
    }
}

/// [`mac2`] for three operands or more: the product starts at `1.0`, operands
/// in spec order, as in [`einsum_spec_reference`].
fn mac_n(
    tile: &mut [f32],
    n_i: usize,
    n_m: usize,
    datas: &[&[f32]],
    offs: &[usize],
    steps: &[Steps],
) {
    for (o, row) in tile.chunks_exact_mut(n_i).enumerate() {
        for m in 0..n_m {
            for (i, t) in row.iter_mut().enumerate() {
                let mut product = 1.0f32;
                for ((data, off), s) in datas.iter().zip(offs).zip(steps) {
                    product *= data[off + o * s.outer + m * s.mid + i * s.inner];
                }
                *t += product;
            }
        }
    }
}

/// Combines `shards` adjacent chunks of `len` in a fixed pairwise binary
/// tree, in place; chunk 0 holds the result. The tree shape depends only on
/// `shards`, which is why policy-driven execution is bit-stable across
/// thread counts.
fn combine_tree(partials: &mut [f32], len: usize, shards: usize) {
    let mut width = shards;
    while width > 1 {
        let pairs = width / 2;
        for j in 0..pairs {
            // Chunk j ← chunk 2j + chunk 2j+1; j ≤ 2j < 2j+1, so the three
            // split apart (pair 0 sums into its own left operand).
            let (left, right) = partials.split_at_mut((2 * j + 1) * len);
            let right = &right[..len];
            if j == 0 {
                for (a, &b) in left.iter_mut().zip(right) {
                    *a += b;
                }
            } else {
                let (dst, a) = left.split_at_mut(2 * j * len);
                for ((d, &a), &b) in dst[j * len..].iter_mut().zip(&a[..len]).zip(right) {
                    *d = a + b;
                }
            }
        }
        if width % 2 == 1 {
            // The odd chunk passes through to the next level unchanged.
            partials.copy_within((width - 1) * len..width * len, pairs * len);
        }
        width = pairs + width % 2;
    }
}

/// The output buffer, shared across worker threads: every shard writes a
/// **disjoint** set of elements through it.
struct SharedOut {
    base: *mut f32,
    len: usize,
}

impl SharedOut {
    /// Elements `off..off + len`, mutably.
    ///
    /// # Safety
    ///
    /// No other access to those elements may overlap the returned borrow.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, off: usize, len: usize) -> &mut [f32] {
        assert!(off + len <= self.len, "einsum output range out of bounds");
        // SAFETY: in bounds (checked above) of the live `&mut [f32]` this
        // was built from; the caller rules out an overlapping access.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(off), len) }
    }
}

// SAFETY: the pointer is only dereferenced through `slice`, whose contract
// keeps concurrent accesses on disjoint elements.
unsafe impl Sync for SharedOut {}

/// A cache of [`EinsumPlan`]s keyed by spec and operand shapes, plus the
/// execution scratch — one per executor/tape, so the per-candidate hot loop
/// compiles each contraction once and then runs allocation-free.
///
/// Lookups compare the raw spec text (forward path) or the parsed spec
/// (autodiff VJP path) against a small linear table; models use a handful
/// of distinct contractions, so the scan is cheaper than hashing.
///
/// An engine carries an [`ExecPolicy`] (and, for multi-threaded policies,
/// an [`ExecPool`]): every contraction it runs goes through
/// [`EinsumPlan::execute_with`] under that policy. The default is the
/// pinned determinism contract (`reduce_width = 4`, single-threaded).
#[derive(Debug, Default)]
pub struct EinsumEngine {
    entries: Vec<EngineEntry>,
    /// Accumulation-tile scratch, kept across contractions.
    tile: Vec<f32>,
    policy: ExecPolicy,
    workers: Option<ExecPool>,
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

    /// An empty engine under `policy`, spawning `policy.exec_threads - 1`
    /// shard workers when the policy is multi-threaded.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        EinsumEngine {
            policy,
            workers: ExecPool::for_policy(policy),
            ..Self::default()
        }
    }

    /// The policy every contraction runs under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
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
        let workers = self.workers.as_ref();
        plan.execute_with(operands, out.data_mut(), self.policy, workers, &mut self.tile);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), shape)
    }

    #[test]
    fn parse_round_trips() {
        let s = EinsumSpec::parse("nck,dck->ndk").unwrap();
        assert_eq!(s.inputs.len(), 2);
        assert_eq!(s.output, vec!['n', 'd', 'k']);
        assert_eq!(s.render(), "nck,dck->ndk");
        assert!(EinsumSpec::parse("nck,dck").is_err());
    }

    #[test]
    fn matmul_agrees_with_manual() {
        let a = iota(&[2, 3]);
        let b = iota(&[3, 2]);
        let c = matmul(&a, &b);
        // [[0,1,2],[3,4,5]] @ [[0,1],[2,3],[4,5]]
        assert_eq!(c.data(), &[10.0, 13.0, 28.0, 40.0]);
    }

    #[test]
    fn trace_and_diagonal() {
        let a = iota(&[3, 3]);
        let tr = einsum("ii->", &[&a]).unwrap();
        assert_eq!(tr.data(), &[0.0 + 4.0 + 8.0]);
        let diag = einsum("ii->i", &[&a]).unwrap();
        assert_eq!(diag.data(), &[0.0, 4.0, 8.0]);
    }

    #[test]
    fn outer_product() {
        let a = iota(&[2]);
        let b = iota(&[3]);
        let o = einsum("i,j->ij", &[&a, &b]).unwrap();
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.get(&[1, 2]), 2.0);
    }

    #[test]
    fn three_operand_contraction() {
        let a = iota(&[2, 3]);
        let b = iota(&[3, 2]);
        let c = iota(&[2, 2]);
        let direct = einsum("ij,jk,kl->il", &[&a, &b, &c]).unwrap();
        let paired = matmul(&matmul(&a, &b), &c);
        assert!(direct.allclose(&paired, 1e-4));
    }

    #[test]
    fn sum_reduction() {
        let a = iota(&[2, 3]);
        let s = einsum("ij->i", &[&a]).unwrap();
        assert_eq!(s.data(), &[3.0, 12.0]);
        let total = einsum("ij->", &[&a]).unwrap();
        assert_eq!(total.data(), &[15.0]);
    }

    #[test]
    fn elementwise_share_semantics() {
        // The Share primitive: out[i] = x[i] * w[i].
        let x = iota(&[4]);
        let w = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[4]);
        let out = einsum("i,i->i", &[&x, &w]).unwrap();
        assert_eq!(out.data(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn broadcast_via_missing_output_index() {
        // "nchw,dc->ndhw": channel contraction keeping spatial dims — the
        // pointwise-convolution einsum from Listing 2.
        let x = iota(&[1, 2, 2, 2]);
        let w = iota(&[3, 2]);
        let y = einsum("nchw,dc->ndhw", &[&x, &w]).unwrap();
        assert_eq!(y.shape(), &[1, 3, 2, 2]);
        // y[0,d,h,w] = sum_c x[0,c,h,w]*w[d,c]
        let expect = x.get(&[0, 0, 1, 1]) * w.get(&[1, 0]) + x.get(&[0, 1, 1, 1]) * w.get(&[1, 1]);
        assert_eq!(y.get(&[0, 1, 1, 1]), expect);
    }

    #[test]
    fn extent_mismatch_rejected() {
        let a = iota(&[2, 3]);
        let b = iota(&[4, 2]);
        assert_eq!(
            einsum("ij,jk->ik", &[&a, &b]).unwrap_err(),
            EinsumError::ExtentMismatch('j')
        );
    }

    #[test]
    fn unbound_output_rejected() {
        let a = iota(&[2]);
        assert_eq!(
            einsum("i->ij", &[&a]).unwrap_err(),
            EinsumError::UnboundOutput('j')
        );
    }

    #[test]
    fn compiled_is_bit_identical_to_reference() {
        let cases: &[(&str, Vec<Tensor>)] = &[
            ("mk,kn->mn", vec![iota(&[3, 4]), iota(&[4, 2])]),
            ("ii->", vec![iota(&[3, 3])]),
            ("ii->i", vec![iota(&[3, 3])]),
            ("nchw,dc->ndhw", vec![iota(&[2, 3, 4, 4]), iota(&[5, 3])]),
            ("ij,jk,kl->il", vec![iota(&[2, 3]), iota(&[3, 2]), iota(&[2, 2])]),
            ("ch,c->c", vec![iota(&[2, 3]), iota(&[2])]),
            ("ij->", vec![iota(&[2, 3])]),
        ];
        for (spec, tensors) in cases {
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let fast = einsum(spec, &refs).unwrap();
            let slow = einsum_reference(spec, &refs).unwrap();
            assert_eq!(fast.shape(), slow.shape(), "{spec}");
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{spec}");
            }
        }
    }

    #[test]
    fn engine_caches_plans_and_reuses_buffers() {
        let mut engine = EinsumEngine::new();
        let mut pool = ScratchPool::new();
        let a = iota(&[2, 3]);
        let b = iota(&[3, 2]);
        let first = engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap();
        assert_eq!(engine.plans(), 1);
        pool.recycle(first);
        let again = engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap();
        assert_eq!(engine.plans(), 1, "same spec + shapes hit the cache");
        assert!(pool.recycled() >= 1, "output buffer came from the pool");
        assert_eq!(again, einsum_reference("mk,kn->mn", &[&a, &b]).unwrap());

        // A different shape under the same text compiles a second plan.
        let c = iota(&[4, 3]);
        let _ = engine.einsum("mk,kn->mn", &[&c, &b], &mut pool).unwrap();
        assert_eq!(engine.plans(), 2);

        // The parsed-spec path shares the table.
        let parsed = EinsumSpec::parse("mk,kn->mn").unwrap();
        let via_parsed = engine.einsum_parsed(&parsed, &[&a, &b], &mut pool).unwrap();
        assert_eq!(via_parsed, einsum("mk,kn->mn", &[&a, &b]).unwrap());
    }

    /// Deterministic pseudo-random data that actually exercises FP rounding
    /// (iota values stay exact in f32 and would hide order changes).
    fn noisy(shape: &[usize], salt: u64) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n as u64)
            .map(|i| {
                let h = (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32) / ((1u64 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    const POLICY_SPECS: &[(&str, &[&[usize]])] = &[
        ("mk,kn->mn", &[&[5, 7], &[7, 3]]),
        ("nchw,dc->ndhw", &[&[2, 3, 4, 4], &[5, 3]]),
        ("ij,jk,kl->il", &[&[3, 5], &[5, 4], &[4, 2]]),
        ("ij->", &[&[4, 6]]),
        ("i,i->i", &[&[8], &[8]]),
        ("ch,c->c", &[&[3, 9], &[3]]),
        ("ii->i", &[&[4, 4]]),
        ("ii->", &[&[4, 4]]),
        ("i,j->ij", &[&[4], &[5]]),
        // The sequence head's VJPs: a short last output loop that trades
        // places with the long one, and a strided inner run.
        ("mn,mk->kn", &[&[4, 6], &[4, 512]]),
        ("mn,kn->mk", &[&[4, 6], &[512, 6]]),
        // Fused loops, a summed extent below the width, an extent-1 axis.
        ("abcd,ad->abcd", &[&[3, 5, 4, 6], &[3, 6]]),
        ("abcd,abcd->ad", &[&[3, 2, 1, 6], &[3, 2, 1, 6]]),
        ("abc,abc->", &[&[5, 3, 7], &[5, 3, 7]]),
    ];

    fn run_with_policy(spec: &str, shapes: &[&[usize]], policy: ExecPolicy) -> Tensor {
        let tensors: Vec<Tensor> = shapes
            .iter()
            .enumerate()
            .map(|(k, s)| noisy(s, 1000 * k as u64))
            .collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let mut engine = EinsumEngine::with_policy(policy);
        let mut pool = ScratchPool::new();
        engine.einsum(spec, &refs, &mut pool).unwrap()
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    #[test]
    fn serial_policy_is_bit_identical_to_reference() {
        for (spec, shapes) in POLICY_SPECS {
            let got = run_with_policy(spec, shapes, ExecPolicy::serial());
            let tensors: Vec<Tensor> = shapes
                .iter()
                .enumerate()
                .map(|(k, s)| noisy(s, 1000 * k as u64))
                .collect();
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let want = einsum_reference(spec, &refs).unwrap();
            assert_bits_eq(&got, &want, spec);
        }
    }

    #[test]
    fn tree_reduction_is_invariant_to_thread_count() {
        for (spec, shapes) in POLICY_SPECS {
            let pinned = run_with_policy(spec, shapes, ExecPolicy::default());
            for threads in [2, 3, 4, 8] {
                let parallel = run_with_policy(spec, shapes, ExecPolicy::with_threads(threads));
                assert_bits_eq(&parallel, &pinned, &format!("{spec} @ {threads} threads"));
            }
        }
    }

    #[test]
    fn output_sharding_never_changes_serial_values() {
        // reduce_width 1 + many threads: sharding happens on the output
        // loop, which must stay bit-identical to plain serial execution.
        for (spec, shapes) in POLICY_SPECS {
            let serial = run_with_policy(spec, shapes, ExecPolicy::serial());
            for threads in [2, 4] {
                let policy = ExecPolicy {
                    exec_threads: threads,
                    reduce_width: 1,
                };
                let sharded = run_with_policy(spec, shapes, policy);
                assert_bits_eq(&sharded, &serial, &format!("{spec} @ {threads} threads"));
            }
        }
    }

    #[test]
    fn tree_reduction_matches_explicit_chunk_sums() {
        // mk,kn->mn with k = 7 under width 4 chunks k into 2+2+2+1 and
        // combines ((c0+c1)+(c2+c3)); verify against a hand-built tree.
        let a = noisy(&[3, 7], 1);
        let b = noisy(&[7, 2], 2);
        let got = {
            let mut engine = EinsumEngine::with_policy(ExecPolicy::default());
            let mut pool = ScratchPool::new();
            engine.einsum("mk,kn->mn", &[&a, &b], &mut pool).unwrap()
        };
        let chunk = |lo: usize, hi: usize| -> Tensor {
            let (a, b) = (&a, &b);
            let asub = Tensor::from_vec(
                (0..3)
                    .flat_map(|m| (lo..hi).map(move |k| a.get(&[m, k])))
                    .collect(),
                &[3, hi - lo],
            );
            let bsub = Tensor::from_vec(
                (lo..hi).flat_map(|k| (0..2).map(move |n| b.get(&[k, n]))).collect(),
                &[hi - lo, 2],
            );
            einsum_reference("mk,kn->mn", &[&asub, &bsub]).unwrap()
        };
        let (c0, c1, c2, c3) = (chunk(0, 2), chunk(2, 4), chunk(4, 6), chunk(6, 7));
        let want: Vec<f32> = (0..c0.numel())
            .map(|i| {
                (c0.data()[i] + c1.data()[i]) + (c2.data()[i] + c3.data()[i])
            })
            .collect();
        for (g, w) in got.data().iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "pinned tree shape");
        }
    }

    #[test]
    fn plan_fuses_affine_loops_and_tiles_the_long_output_loop() {
        let plan = |spec: &str, shapes: &[&[usize]]| {
            EinsumPlan::compile(&EinsumSpec::parse(spec).unwrap(), shapes).unwrap()
        };
        // b, c, d are one run for both operands and the output.
        let scale = plan("abcde,ae->abcde", &[&[8, 16, 16, 8, 16], &[8, 16]]);
        assert_eq!((scale.dims.as_slice(), scale.n_out), (&[8, 2048, 16][..], 3));
        // Summed b, c, d fuse behind a: the width still chunks a's 8 steps.
        let vjp = plan("abcde,abcde->e", &[&[8, 16, 16, 8, 16], &[8, 16, 16, 8, 16]]);
        assert_eq!((vjp.dims.as_slice(), vjp.chunk), (&[16, 8 * 2048][..], (8, 2048)));
        // The head's weight gradient: 512 runs innermost, not 6.
        let head = plan("mn,mk->kn", &[&[4, 6], &[4, 512]]);
        assert_eq!((head.tile, head.block, head.out_steps), ([6, 512], [2, 512], [1, 6]));
        // A 3×3 window behind a 16-long loop: the row is the 16, strided...
        let spec = "abcdefg,dgfe->abcdefg";
        let window = plan(spec, &[&[2, 2, 2, 8, 16, 3, 3], &[8, 3, 3, 16]]);
        assert_eq!(window.dims, [8, 8, 16, 3, 3]);
        assert_eq!((window.tile, window.out_steps), ([3, 16], [1, 9]));
        assert_eq!(window.outer, [0, 1, 3]);
        // ...until the weight is small beside the loop nest: stored in loop
        // order, its four loops are one contiguous run.
        let window = plan(spec, &[&[8, 16, 16, 8, 16, 3, 3], &[8, 3, 3, 16]]);
        assert_eq!(window.dims, [2048, 1152]);
        assert_eq!(window.perms, [None, Some(vec![0, 3, 2, 1]), None]);
        // Its gradient runs the output loops in the operands' storage order
        // and stores the (small) result as the spec asks afterwards.
        let shapes: &[&[usize]] = &[&[8, 16, 16, 8, 16, 3, 3], &[8, 16, 16, 8, 16, 3, 3]];
        let grad = plan("abcdefg,abcdefg->dgfe", shapes);
        assert_eq!((grad.dims.as_slice(), grad.n_out), (&[1152, 8 * 256][..], 1));
        assert_eq!(grad.perms, [None, None, Some(vec![0, 3, 2, 1])]);
        // An extent-1 loop joins its neighbour whatever its stride.
        let unit = plan("abc,cb->abc", &[&[3, 1, 5], &[5, 1]]);
        assert_eq!((unit.dims.as_slice(), unit.n_out), (&[3, 5][..], 2));
    }

    #[test]
    fn compiled_default_policy_differs_from_serial_on_purpose() {
        // The contract change is real: width-4 tree reduction reorders FP
        // summation for long contractions. (Equal values would mean the
        // FORMAT_VERSION bump and score re-pin were vacuous.)
        let a = noisy(&[2, 33], 0);
        let b = noisy(&[33], 1000);
        let tree = run_with_policy("ck,k->c", &[&[2, 33], &[33]], ExecPolicy::default());
        let serial = einsum_reference("ck,k->c", &[&a, &b]).unwrap();
        assert!(
            tree.data()
                .iter()
                .zip(serial.data())
                .any(|(x, y)| x.to_bits() != y.to_bits()),
            "tree reduction should reorder summation for k=33"
        );
        // ...while staying numerically indistinguishable for f32 work.
        assert!(tree.allclose(&serial, 1e-5));
    }
}
