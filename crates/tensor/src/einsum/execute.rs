//! Running a compiled [`EinsumPlan`]: the execution policy, the tile loop
//! and its kernels, the deterministic reduction tree, and the fan-out of
//! disjoint tile ranges across scoped threads.

use super::plan::{EinsumPlan, Steps, SHORT_RUN};
use crate::ops;
use crate::tensor::Tensor;
use std::iter::repeat;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// How the execution engine schedules one contraction.
///
/// The default policy is the **pinned determinism contract**: single-threaded
/// execution under the pinned reduction-tree width
/// ([`ExecPolicy::PINNED_REDUCE_WIDTH`]). Raising `exec_threads` never
/// changes values; changing `reduce_width` does (it reshapes the reduction
/// tree), which is why the width is part of the stored-score contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecPolicy {
    /// Maximum OS threads cooperating on one contraction (including the
    /// calling thread). `1` means fully in-line execution. Value-invisible:
    /// threads only decide *who* computes a range of tiles, never what is
    /// combined with what, so results are bit-identical across thread
    /// counts at a fixed `reduce_width`.
    pub exec_threads: usize,
    /// Width of the deterministic reduction tree: the outermost summed loop
    /// is split into at most this many contiguous chunks whose partials are
    /// combined pairwise-adjacent. `1` reproduces the serial summation order
    /// of [`einsum_reference`](super::einsum_reference) exactly. Part of the
    /// value contract — stored proxy scores are tagged with the width they
    /// were computed under.
    pub reduce_width: usize,
}

impl ExecPolicy {
    /// The reduction-tree width the default contract pins (and the width the
    /// re-pinned proxy-score constants were computed under).
    pub const PINNED_REDUCE_WIDTH: usize = 4;

    /// One thread, serial left-to-right summation.
    pub fn serial() -> Self {
        ExecPolicy {
            exec_threads: 1,
            reduce_width: 1,
        }
    }

    /// The pinned contract with up to `exec_threads` cooperating threads.
    pub fn with_threads(exec_threads: usize) -> Self {
        ExecPolicy {
            exec_threads: exec_threads.max(1),
            ..Self::default()
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            exec_threads: 1,
            reduce_width: Self::PINNED_REDUCE_WIDTH,
        }
    }
}

impl EinsumPlan {
    /// Executes the contraction into `out` (zeroed, of the plan's output
    /// element count) under `policy`. `tile` is the accumulation scratch,
    /// reusable across calls.
    ///
    /// A `reduce_width > 1` splits the outermost summed index into that many
    /// contiguous chunks (at most its extent), sums each into its own tile
    /// and combines the tiles pairwise-adjacent; `exec_threads > 1` hands
    /// contiguous ranges of tiles — disjoint output elements — to scoped
    /// threads.
    ///
    /// The value contract: for a fixed `policy.reduce_width`, the result is
    /// **bit-identical** regardless of `policy.exec_threads` — chunking and
    /// tree shape depend only on the compiled shapes and the width.
    /// `reduce_width == 1` reproduces
    /// [`einsum_reference`](super::einsum_reference)'s serial summation
    /// order exactly.
    ///
    /// # Panics
    ///
    /// Panics when operand count/shapes disagree with the compiled shapes,
    /// and re-raises any panic a shard raised.
    pub(super) fn execute_with(
        &self,
        operands: &[&Tensor],
        out: &mut [f32],
        policy: ExecPolicy,
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
            self.run_sharded(datas, staged.data_mut(), policy, tile);
            let unstaged = ops::permute(&staged, &ops::inverse_permutation(perm));
            out.copy_from_slice(unstaged.data());
        } else {
            self.run_sharded(datas, out, policy, tile);
        }
    }

    /// Runs every tile: in line, or split into `exec_threads` contiguous
    /// ranges of tiles run by [`fan_out`].
    fn run_sharded(
        &self,
        datas: &[&[f32]],
        out: &mut [f32],
        policy: ExecPolicy,
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
        let shards = policy.exec_threads.min(tiles);
        if shards > 1 {
            let (q, r) = (tiles / shards, tiles % shards);
            // `out` is borrowed whole (it is `Sync`) — precise capture of the
            // raw-pointer field would not be.
            let out = &out;
            fan_out(shards, |i| {
                let lo = i * q + i.min(r);
                let hi = lo + q + usize::from(i < r);
                let mut buf = vec![0.0; buf_len];
                self.run_tiles(datas, out, lo..hi, chunks, &mut buf);
            });
        } else {
            tile.resize(buf_len, 0.0);
            self.run_tiles(datas, &out, 0..tiles, chunks, tile);
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
    /// written out. A lone summed loop whose chunks hold at most
    /// [`FEW_TERMS`] terms each skips the accumulator tiles: a row at a time
    /// sums in registers ([`few_term_row`]) and is written out.
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
        // Chunk `c`'s steps of the outermost summed loop: the first one
        // walked, or the kernel's middle loop when it is the only one.
        let (q, r) = (self.chunk.0 / chunks, self.chunk.0 % chunks);
        let spans: Vec<Range<usize>> = (0..chunks)
            .map(|c| {
                let lo = (c * q + c.min(r)) * self.chunk.1;
                lo..lo + (q + usize::from(c < r)) * self.chunk.1
            })
            .collect();
        let few = (datas.len() <= 2 && walk.is_empty() && spans[0].len() <= FEW_TERMS)
            .then(|| few_term_row(chunks, steps))
            .flatten();
        // Writes `values` to the output from `at` in steps of `out_inner`;
        // every caller passes elements of the block of the tile it computes.
        let store = |at: usize, values: &[f32]| {
            if out_inner == 1 {
                // SAFETY: this run lies in the tile's own output block, which
                // no other shard touches (see the in-place case).
                unsafe { out.slice(at, values.len()) }.copy_from_slice(values);
            } else {
                for (i, &v) in values.iter().enumerate() {
                    // SAFETY: one element of the tile's own output block,
                    // borrowed for this write only.
                    let cell = unsafe { out.slice(at + i * out_inner, 1) };
                    cell[0] = v;
                }
            }
        };
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
            if let (Some(few_row), false) = (few, in_place) {
                let ((a, oa, sa), (b, ob, sb)) = match (datas, &steps[..]) {
                    ([a, b], [sa, sb]) => ((*a, base[0], *sa), (*b, base[1], *sb)),
                    ([a], [sa]) => ((*a, base[0], *sa), ONE),
                    _ => unreachable!("a few-term tile has one or two operands"),
                };
                for o in 0..n_o {
                    let row = &mut buf[..n_i];
                    few_row(row, &spans, (a, oa + o * sa.outer, sa), (b, ob + o * sb.outer, sb));
                    store(out_base + o * out_outer, row);
                }
                continue;
            }
            let tile = if in_place {
                // SAFETY: tiles partition the output index space and distinct
                // output indices have distinct offsets, so no other shard
                // touches this block.
                unsafe { out.slice(out_base, len) }
            } else {
                buf[..chunks * len].fill(0.0);
                &mut buf[..chunks * len]
            };
            for (part, &Range { start: lo, end: hi }) in tile.chunks_exact_mut(len).zip(&spans) {
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
                store(out_base + o * out_outer, row);
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
        self.execute_with(
            operands,
            out.data_mut(),
            ExecPolicy::serial(),
            &mut Vec::new(),
        );
        out
    }
}

/// Runs `shard(i)` for every `i` in `0..shards`: shard 0 on the calling
/// thread, the others on scoped threads, every one joined before returning.
/// Which thread runs which shard never matters to the result — shards write
/// disjoint output.
///
/// # Panics
///
/// Re-raises the first panicking shard's own payload, after all shards
/// finished.
pub(super) fn fan_out(shards: usize, shard: impl Fn(usize) + Sync) {
    let shard = &shard;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..shards).map(|i| scope.spawn(move || shard(i))).collect();
        let first = catch_unwind(AssertUnwindSafe(|| shard(0)));
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if let Some(payload) = [first].into_iter().chain(joined).find_map(Result::err) {
            resume_unwind(payload);
        }
    });
}

/// One operand as the tile kernel reads it: its data, the offset of the
/// kernel's first element and its steps along the kernel's loops.
type Operand<'a> = (&'a [f32], usize, Steps);

/// The second operand of a one-operand contraction: `x · 1.0` is `x`, bit for
/// bit, as is the reference's `1.0 · x`.
const ONE: Operand<'static> = (&[1.0], 0, Steps { outer: 0, mid: 0, inner: 0 });

/// The two-operand tile kernel: `tile[o][i] += a · b` for every step `m` of
/// the middle (summed) loop, `m` ascending per element. Rows of `n_i`
/// independent elements run innermost, specialised on each operand's inner
/// step — broadcast, contiguous or strided — so they vectorise. A row too
/// short to amortise that (shorter than [`SHORT_RUN`], with more terms than
/// lanes) keeps a block of rows' sums in registers instead when one operand
/// is constant along the row and the other contiguous and the same for every
/// row — an outer product, as in `mk,kn->mn` ([`short_rows`]); any other
/// short row runs its elements' `m` loops one after the other.
fn mac2(tile: &mut [f32], n_i: usize, n_m: usize, (a, oa, sa): Operand, (b, ob, sb): Operand) {
    if n_i < SHORT_RUN && n_m > n_i {
        if sa.inner == 0 && sb.outer == 0 && sb.inner == 1 {
            return short_rows::<false>(tile, n_i, n_m, (a, oa, sa), (b, ob, sb));
        }
        if sb.inner == 0 && sa.outer == 0 && sa.inner == 1 {
            return short_rows::<true>(tile, n_i, n_m, (b, ob, sb), (a, oa, sa));
        }
    }
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

/// Rows the short-row kernel keeps in registers at once.
const ROW_BLOCK: usize = 4;

/// [`mac2`] on rows of `n_i < SHORT_RUN` elements that are an outer
/// product: `tile[o][i] += x[o, m] · y[m, i]`, where `x` is constant along a
/// row and `y` contiguous along it and shared by every row (`FLIP` when `y`
/// is the contraction's first operand, so each product keeps the operand
/// order `a · b`). Dispatches the row length to [`row_block`].
fn short_rows<const FLIP: bool>(tile: &mut [f32], n_i: usize, n_m: usize, x: Operand, y: Operand) {
    macro_rules! by_len {
        ($($n:literal)*) => {
            match n_i {
                $($n => row_block::<$n, FLIP>(tile, n_m, x, y),)*
                _ => unreachable!("a short row has 1 to 7 elements"),
            }
        };
    }
    by_len!(1 2 3 4 5 6 7)
}

/// [`short_rows`] for rows of `N` elements: [`ROW_BLOCK`] rows at a time,
/// then the rows left over one at a time.
fn row_block<const N: usize, const FLIP: bool>(
    tile: &mut [f32],
    n_m: usize,
    x: Operand,
    y: Operand,
) {
    let (rows, _) = tile.as_chunks_mut::<N>();
    let (blocks, rest) = rows.as_chunks_mut::<ROW_BLOCK>();
    let done = blocks.len() * ROW_BLOCK;
    for (k, block) in blocks.iter_mut().enumerate() {
        rows_in_registers::<N, ROW_BLOCK, FLIP>(block, k * ROW_BLOCK, n_m, x, y);
    }
    for (k, row) in rest.iter_mut().enumerate() {
        rows_in_registers::<N, 1, FLIP>(std::array::from_mut(row), done + k, n_m, x, y);
    }
}

/// `R` rows of `N` elements, starting at row `o0`, as `R × N` independent
/// accumulators: each starts from its tile value and adds its terms in
/// ascending `m`, exactly as the one-element-at-a-time loop does.
fn rows_in_registers<const N: usize, const R: usize, const FLIP: bool>(
    rows: &mut [[f32; N]; R],
    o0: usize,
    n_m: usize,
    (x, ox, sx): Operand,
    (y, oy, sy): Operand,
) {
    let mut acc = *rows;
    let starts: [usize; R] = std::array::from_fn(|r| ox + (o0 + r) * sx.outer);
    for m in 0..n_m {
        let lanes: &[f32; N] = y[oy + m * sy.mid..].first_chunk().expect("a row of y");
        for (row, &at) in acc.iter_mut().zip(&starts) {
            let v = x[at + m * sx.mid];
            for (t, &w) in row.iter_mut().zip(lanes) {
                let (a, b) = if FLIP { (w, v) } else { (v, w) };
                *t += a * b;
            }
        }
    }
    *rows = acc;
}

/// [`mac2`] for three operands or more: the product starts at `1.0`, operands
/// in spec order, as in [`einsum_spec_reference`](super::einsum_spec_reference).
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

/// Elements a few-term row sums side by side.
const LANES: usize = 16;

/// A chunk of at most this many terms sums in registers rather than in an
/// accumulator tile.
const FEW_TERMS: usize = 8;

/// How one operand's values run along the kernel's inner loop, as a
/// [`lane_sums`] parameter: one value for every lane, a contiguous run, or a
/// strided walk.
const BROADCAST: u8 = 0;
const CONTIGUOUS: u8 = 1;
const STRIDED: u8 = 2;

/// Sums one tile row of few-term elements into the row given: the
/// contraction's two operands at the row's first element, and each
/// chunk's steps of the middle loop.
type FewTermRow = fn(&mut [f32], &[Range<usize>], Operand, Operand);

/// The few-term row kernel for `chunks` chunks and operands with `steps` (a
/// missing second one is [`ONE`]), or `None` past four chunks, the pinned
/// reduction width.
fn few_term_row(chunks: usize, steps: &[Steps]) -> Option<FewTermRow> {
    let kind = |k: usize| match steps.get(k).map_or(0, |s| s.inner) {
        0 => BROADCAST,
        1 => CONTIGUOUS,
        _ => STRIDED,
    };
    fn for_b<const C: usize, const KA: u8>(kb: u8) -> FewTermRow {
        match kb {
            BROADCAST => row_sums::<C, KA, BROADCAST>,
            CONTIGUOUS => row_sums::<C, KA, CONTIGUOUS>,
            _ => row_sums::<C, KA, STRIDED>,
        }
    }
    fn for_a<const C: usize>(ka: u8, kb: u8) -> FewTermRow {
        match ka {
            BROADCAST => for_b::<C, BROADCAST>(kb),
            CONTIGUOUS => for_b::<C, CONTIGUOUS>(kb),
            _ => for_b::<C, STRIDED>(kb),
        }
    }
    let (ka, kb) = (kind(0), kind(1));
    Some(match chunks {
        1 => for_a::<1>(ka, kb),
        2 => for_a::<2>(ka, kb),
        3 => for_a::<3>(ka, kb),
        4 => for_a::<4>(ka, kb),
        _ => return None,
    })
}

/// A [`FewTermRow`]: [`LANES`] elements at a time, then one at a time.
fn row_sums<const C: usize, const KA: u8, const KB: u8>(
    row: &mut [f32],
    spans: &[Range<usize>],
    (a, oa, sa): Operand,
    (b, ob, sb): Operand,
) {
    let spans: &[Range<usize>; C] = spans.try_into().expect("one span per chunk");
    let (groups, rest) = row.as_chunks_mut::<LANES>();
    let done = groups.len() * LANES;
    for (k, sums) in groups.iter_mut().enumerate() {
        let at = k * LANES;
        *sums = lane_sums::<LANES, C, KA, KB>(
            spans,
            (a, oa + at * sa.inner, sa),
            (b, ob + at * sb.inner, sb),
        );
    }
    for (k, sum) in rest.iter_mut().enumerate() {
        let at = done + k;
        let a = (a, oa + at * sa.inner, sa);
        [*sum] = lane_sums::<1, C, STRIDED, STRIDED>(spans, a, (b, ob + at * sb.inner, sb));
    }
}

/// `L` elements' sums over a few terms each, in registers: per chunk `c`
/// the terms `spans[c]` from `+0.0` in ascending `m` — the partial an
/// accumulator tile would hold — then the chunk tree over the `C` partials.
/// The same additions in the same order as the tile path, so the same bits.
#[inline(always)]
fn lane_sums<const L: usize, const C: usize, const KA: u8, const KB: u8>(
    spans: &[Range<usize>; C],
    (a, oa, sa): Operand,
    (b, ob, sb): Operand,
) -> [f32; L] {
    let mut parts = [[0.0f32; L]; C];
    for (acc, span) in parts.iter_mut().zip(spans) {
        for m in span.clone() {
            let x = lanes::<L, KA>(a, oa + m * sa.mid, sa.inner);
            let y = lanes::<L, KB>(b, ob + m * sb.mid, sb.inner);
            for ((t, x), y) in acc.iter_mut().zip(x).zip(y) {
                *t += x * y;
            }
        }
    }
    // `combine_tree`'s pairing on arrays the compiler keeps in registers
    // (`combine_tree` itself walks runs of a run-time length): chunk j ←
    // chunk 2j + chunk 2j+1, an odd last chunk passing up unchanged.
    let mut width = C;
    while width > 1 {
        let pairs = width / 2;
        for j in 0..pairs {
            let (x, y) = (parts[2 * j], parts[2 * j + 1]);
            parts[j] = std::array::from_fn(|l| x[l] + y[l]);
        }
        if width % 2 == 1 {
            parts[pairs] = parts[width - 1];
        }
        width = pairs + width % 2;
    }
    parts[0]
}

/// `L` values of one operand along the kernel's inner loop from `at`, read
/// as `K` says ([`BROADCAST`], [`CONTIGUOUS`] or [`STRIDED`] by `step`).
#[inline(always)]
fn lanes<const L: usize, const K: u8>(data: &[f32], at: usize, step: usize) -> [f32; L] {
    match K {
        BROADCAST => [data[at]; L],
        CONTIGUOUS => *data[at..].first_chunk().expect("L contiguous lanes"),
        _ => {
            let run = &data[at..=at + (L - 1) * step];
            std::array::from_fn(|l| run[l * step])
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

/// The output buffer, shared across shard threads: every shard writes a
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
