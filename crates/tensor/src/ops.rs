//! Structural tensor operations mirroring the top-down semantics of the Syno
//! primitives (Table 1), plus the reductions and axis manipulations the
//! neural-network substrate needs.
//!
//! | Syno primitive (top-down) | Tensor op here |
//! |---------------------------|----------------|
//! | `Merge`  — flatten two dims        | [`reshape`] |
//! | `Split`  — partition into blocks   | [`reshape`] |
//! | `Shift`  — rotate a dimension      | [`roll`] |
//! | `Unfold` — sliding windows         | [`unfold`] (zero-padded) |
//! | `Expand` — repeat                  | [`repeat`] |
//! | `Stride` — strided access          | [`strided`] |
//! | `Reduce` — sum a dimension         | [`sum_axis`] |
//! | `Share`  — weight product          | [`crate::einsum`] |

use crate::pool::ScratchPool;
use crate::tensor::Tensor;

/// `shape` seen from `axis` as `[outer, n, inner]`: the element counts before
/// the axis, along it and after it. Every structural op below walks that
/// view with slice copies or slice adds over the contiguous `inner` run —
/// index arithmetic once per run, not per element — and visits each output
/// slot's contributions in row-major input order.
fn around_axis(shape: &[usize], axis: usize) -> (usize, usize, usize) {
    let outer = shape[..axis].iter().product();
    let inner = shape[axis + 1..].iter().product();
    (outer, shape[axis], inner)
}

/// Applies `f` elementwise into a pooled buffer (see [`Tensor::map`]).
pub fn map_in(pool: &mut ScratchPool, t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = pool.take_raw(t.numel());
    buf.extend(t.data().iter().map(|&x| f(x)));
    Tensor::from_vec(buf, t.shape())
}

/// Combines two same-shape tensors elementwise into a pooled buffer (see
/// [`Tensor::zip_map`]).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn zip_map_in(
    pool: &mut ScratchPool,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
    let mut buf = pool.take_raw(a.numel());
    buf.extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
    Tensor::from_vec(buf, a.shape())
}

/// Reinterprets the buffer under a new shape of equal element count.
///
/// # Panics
///
/// Panics when element counts differ.
pub fn reshape(t: &Tensor, shape: &[usize]) -> Tensor {
    reshape_in(&mut ScratchPool::disabled(), t, shape)
}

/// [`reshape`] into a pooled buffer.
///
/// # Panics
///
/// Panics when element counts differ.
pub fn reshape_in(pool: &mut ScratchPool, t: &Tensor, shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    assert_eq!(t.numel(), numel, "reshape element-count mismatch");
    Tensor::from_vec(pool.take_copied(t.data()), shape)
}

/// Permutes axes: `out[i_perm[0], …] = in[i_0, …]`, i.e. axis `d` of the
/// output is axis `perm[d]` of the input.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..rank`.
pub fn permute(t: &Tensor, perm: &[usize]) -> Tensor {
    permute_in(&mut ScratchPool::disabled(), t, perm)
}

/// [`permute`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..rank`.
pub fn permute_in(pool: &mut ScratchPool, t: &Tensor, perm: &[usize]) -> Tensor {
    assert_eq!(perm.len(), t.rank(), "permutation rank mismatch");
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "invalid permutation");
        seen[p] = true;
    }
    let in_shape = t.shape();
    let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
    let in_strides = Tensor::strides_of(in_shape);
    let mut out = pool.take_tensor(&out_shape);
    let data = t.data();
    // One output row per step: the trailing axes the permutation leaves in
    // place, fused (a contiguous input run), or else the last output axis
    // (a constant-stride input walk).
    let kept = (0..perm.len()).rev().take_while(|&d| perm[d] == d).count();
    let lead = perm.len().saturating_sub(kept.max(1));
    let row: usize = out_shape[lead..].iter().product();
    let step = if kept > 0 { 1 } else { perm.last().map_or(1, |&p| in_strides[p]) };
    // Odometer over the leading output axes: axis d walks input axis perm[d].
    let mut coords = vec![0usize; lead];
    let mut src = 0usize;
    for dst in out.data_mut().chunks_exact_mut(row.max(1)) {
        if step == 1 {
            dst.copy_from_slice(&data[src..src + row]);
        } else {
            for (i, item) in dst.iter_mut().enumerate() {
                *item = data[src + i * step];
            }
        }
        for d in (0..lead).rev() {
            coords[d] += 1;
            if coords[d] < out_shape[d] {
                src += in_strides[perm[d]];
                break;
            }
            coords[d] = 0;
            src -= (out_shape[d] - 1) * in_strides[perm[d]];
        }
    }
    out
}

/// The inverse of a permutation.
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Rotates axis `axis` by `amount`: `out[i] = in[(i + amount) mod n]` —
/// the top-down semantics of `Shift` (with `amount = 1`).
///
/// # Panics
///
/// Panics when `axis` is out of range.
pub fn roll(t: &Tensor, axis: usize, amount: i64) -> Tensor {
    roll_in(&mut ScratchPool::disabled(), t, axis, amount)
}

/// [`roll`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `axis` is out of range.
pub fn roll_in(pool: &mut ScratchPool, t: &Tensor, axis: usize, amount: i64) -> Tensor {
    assert!(axis < t.rank(), "axis out of range");
    let (_, n, inner) = around_axis(t.shape(), axis);
    let mut out = pool.take_tensor(t.shape());
    if n == 0 {
        return out;
    }
    // Per outer index, the `[n, inner]` slab rotates as two block copies.
    let head = amount.rem_euclid(n as i64) as usize * inner;
    let slabs = out.data_mut().chunks_exact_mut((n * inner).max(1));
    for (dst, src) in slabs.zip(t.data().chunks_exact((n * inner).max(1))) {
        let tail = src.len() - head;
        dst[..tail].copy_from_slice(&src[head..]);
        dst[tail..].copy_from_slice(&src[..head]);
    }
    out
}

/// Extracts sliding windows along `axis` with window size `k`, zero-padding
/// out-of-range reads: the result gains a trailing axis of extent `k` with
/// `out[..., i, ..., j] = in[..., i + j − k/2, ...]` — the top-down
/// semantics of `Unfold`.
///
/// # Panics
///
/// Panics when `axis` is out of range or `k == 0`.
pub fn unfold(t: &Tensor, axis: usize, k: usize) -> Tensor {
    unfold_in(&mut ScratchPool::disabled(), t, axis, k)
}

/// [`unfold`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `axis` is out of range or `k == 0`.
pub fn unfold_in(pool: &mut ScratchPool, t: &Tensor, axis: usize, k: usize) -> Tensor {
    assert!(axis < t.rank(), "axis out of range");
    assert!(k > 0, "window must be positive");
    let (outer, n, inner) = around_axis(t.shape(), axis);
    let mut out_shape = t.shape().to_vec();
    out_shape.push(k);
    let mut out = pool.take_tensor(&out_shape);
    let data = t.data();
    if out.numel() == 0 {
        return out;
    }
    let (dst, group) = (out.data_mut(), inner * k);
    if inner == 1 && k < SHORT_WINDOW {
        for (row, src) in dst.chunks_exact_mut(n * k).zip(data.chunks_exact(n)) {
            for j in 0..k {
                // The bases whose slot j lands on the axis.
                let lo = (k / 2).saturating_sub(j);
                let hi = (n + k / 2).saturating_sub(j).min(n).max(lo);
                let run = &src[lo + j - k / 2..hi + j - k / 2];
                for (slot, &v) in row[lo * k + j..].iter_mut().step_by(k).zip(run) {
                    *slot = v;
                }
            }
        }
        return out;
    }
    for base in 0..outer * n {
        // Base element `(o, i)` has `inner` windows, one after the other:
        // slot j of each reads position i + j − k/2, and slots outside
        // `lo..hi` fall off the axis and keep their zero padding.
        let (lo, hi) = window_bounds(base % n, n, k);
        // Slot `lo` reads the run of position i + lo − k/2, the next slot
        // the run after it; `lo ≤ j` keeps the subtraction from underflowing.
        let src = &data[(base + lo - k / 2) * inner..][..(hi - lo) * inner];
        let windows = &mut dst[base * group..][..group];
        if inner == 1 {
            windows[lo..hi].copy_from_slice(src);
        } else {
            for (j, run) in (lo..hi).zip(src.chunks_exact(inner)) {
                for (window, &v) in windows.chunks_exact_mut(k).zip(run) {
                    window[j] = v;
                }
            }
        }
    }
    out
}

/// A trailing-axis window shorter than this moves slot by slot: slot `j` of
/// a whole row of windows at once, one run per slot. A longer one moves
/// window by window, one contiguous slice each.
const SHORT_WINDOW: usize = 8;

/// The window slots `lo..hi` of base position `i` that land inside an axis
/// of extent `n`: slot `j` reads position `i + j − k/2`.
fn window_bounds(i: usize, n: usize, k: usize) -> (usize, usize) {
    ((k / 2).saturating_sub(i), k.min(n + k / 2 - i))
}

/// Transpose of [`unfold`]: accumulates windows back onto the base axis
/// (used by autodiff).
///
/// # Panics
///
/// Panics when `grad`'s trailing axis is not `k` or shapes mismatch.
pub fn fold_acc(grad: &Tensor, axis: usize, k: usize, in_shape: &[usize]) -> Tensor {
    fold_acc_in(&mut ScratchPool::disabled(), grad, axis, k, in_shape)
}

/// [`fold_acc`] into a pooled buffer.
///
/// Each slot starts at `+0.0` and adds its window entries in window order
/// (base position ascending) — the order the per-element transpose visits
/// them. A gradient entry of `±0.0` is skipped rather than added: since no
/// sum that starts at `+0.0` can reach `−0.0`, adding a zero would leave
/// the same bits, so the skip is part of the same value semantics, not a
/// change to them.
///
/// # Panics
///
/// Panics when `grad`'s trailing axis is not `k` or shapes mismatch.
pub fn fold_acc_in(
    pool: &mut ScratchPool,
    grad: &Tensor,
    axis: usize,
    k: usize,
    in_shape: &[usize],
) -> Tensor {
    assert_eq!(grad.rank(), in_shape.len() + 1, "fold rank mismatch");
    assert_eq!(*grad.shape().last().unwrap(), k, "fold window mismatch");
    let (outer, n, inner) = around_axis(in_shape, axis);
    let mut out = pool.take_tensor(in_shape);
    if out.numel() == 0 {
        return out;
    }
    let out_data = out.data_mut();
    // The mirror image of `unfold_in`'s walk, windows in input order.
    let (grad, group) = (grad.data(), inner * k);
    if inner == 1 && k < SHORT_WINDOW {
        // Slot j of every window of a row at once, j descending: a slot
        // meets the windows that reach it in base order all the same.
        for (row, src) in out_data.chunks_exact_mut(n).zip(grad.chunks_exact(n * k)) {
            for j in (0..k).rev() {
                let lo = (k / 2).saturating_sub(j);
                let hi = (n + k / 2).saturating_sub(j).min(n).max(lo);
                let run = &mut row[lo + j - k / 2..hi + j - k / 2];
                for (d, &g) in run.iter_mut().zip(src[lo * k + j..].iter().step_by(k)) {
                    if g != 0.0 {
                        *d += g;
                    }
                }
            }
        }
        return out;
    }
    for base in 0..outer * n {
        let (lo, hi) = window_bounds(base % n, n, k);
        let dst = &mut out_data[(base + lo - k / 2) * inner..][..(hi - lo) * inner];
        let windows = &grad[base * group..][..group];
        if inner == 1 {
            for (d, &g) in dst.iter_mut().zip(&windows[lo..hi]) {
                if g != 0.0 {
                    *d += g;
                }
            }
        } else {
            // Slot j of the `inner` windows adds onto the run of position
            // i + j − k/2, one window after the other.
            for (j, run) in (lo..hi).zip(dst.chunks_exact_mut(inner)) {
                for (d, window) in run.iter_mut().zip(windows.chunks_exact(k)) {
                    if window[j] != 0.0 {
                        *d += window[j];
                    }
                }
            }
        }
    }
    out
}

/// Strided selection along `axis`: `out[..., i, ...] = in[..., s·i, ...]`
/// with output extent `n / s` — the top-down semantics of `Stride`.
///
/// # Panics
///
/// Panics when `axis` is out of range or `s` does not divide the extent.
pub fn strided(t: &Tensor, axis: usize, s: usize) -> Tensor {
    strided_in(&mut ScratchPool::disabled(), t, axis, s)
}

/// [`strided`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `axis` is out of range or `s` does not divide the extent.
pub fn strided_in(pool: &mut ScratchPool, t: &Tensor, axis: usize, s: usize) -> Tensor {
    assert!(axis < t.rank(), "axis out of range");
    let (_, n, inner) = around_axis(t.shape(), axis);
    assert!(s > 0 && n.is_multiple_of(s), "stride must divide extent");
    let mut out_shape = t.shape().to_vec();
    out_shape[axis] = n / s;
    let mut out = pool.take_tensor(&out_shape);
    // Every s-th `inner` block of the input, in order.
    let blocks = t.data().chunks_exact(inner.max(1)).step_by(s);
    for (dst, src) in out.data_mut().chunks_exact_mut(inner.max(1)).zip(blocks) {
        dst.copy_from_slice(src);
    }
    out
}

/// Transpose of [`strided`]: scatters gradients to the multiples of `s`.
pub fn strided_scatter(grad: &Tensor, axis: usize, s: usize, in_shape: &[usize]) -> Tensor {
    strided_scatter_in(&mut ScratchPool::disabled(), grad, axis, s, in_shape)
}

/// [`strided_scatter`] into a pooled buffer.
pub fn strided_scatter_in(
    pool: &mut ScratchPool,
    grad: &Tensor,
    axis: usize,
    s: usize,
    in_shape: &[usize],
) -> Tensor {
    let (_, _, inner) = around_axis(in_shape, axis);
    let mut out = pool.take_tensor(in_shape);
    let blocks = out.data_mut().chunks_exact_mut(inner.max(1)).step_by(s);
    for (dst, src) in blocks.zip(grad.data().chunks_exact(inner.max(1))) {
        for (d, &g) in dst.iter_mut().zip(src) {
            *d += g;
        }
    }
    out
}

/// Inserts a new axis of extent `times` at position `axis`, repeating the
/// input — the top-down semantics of `Expand`.
///
/// # Panics
///
/// Panics when `axis > rank`.
pub fn repeat(t: &Tensor, axis: usize, times: usize) -> Tensor {
    repeat_in(&mut ScratchPool::disabled(), t, axis, times)
}

/// [`repeat`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `axis > rank`.
pub fn repeat_in(pool: &mut ScratchPool, t: &Tensor, axis: usize, times: usize) -> Tensor {
    assert!(axis <= t.rank(), "axis out of range");
    let mut out_shape = t.shape().to_vec();
    out_shape.insert(axis, times);
    let inner: usize = t.shape()[axis..].iter().product();
    let mut out = pool.take_tensor(&out_shape);
    if inner == 1 {
        // A trailing axis: each element fills its own run, a run of up to 16
        // as one fixed-size store.
        let (dst, src) = (out.data_mut(), t.data());
        macro_rules! runs {
            ($($n:literal)*) => {
                match times {
                    $($n => {
                        for (run, &v) in dst.as_chunks_mut::<$n>().0.iter_mut().zip(src) {
                            *run = [v; $n];
                        }
                    })*
                    _ => {
                        for (run, &v) in dst.chunks_exact_mut(times.max(1)).zip(src) {
                            run.fill(v);
                        }
                    }
                }
            };
        }
        runs!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    } else {
        let copies = out.data_mut().chunks_exact_mut((times * inner).max(1));
        for (dst, src) in copies.zip(t.data().chunks_exact(inner.max(1))) {
            for copy in dst.chunks_exact_mut(inner) {
                copy.copy_from_slice(src);
            }
        }
    }
    out
}

/// Sums over `axis`, removing it — the top-down semantics of `Reduce`.
///
/// # Panics
///
/// Panics when `axis` is out of range.
pub fn sum_axis(t: &Tensor, axis: usize) -> Tensor {
    sum_axis_in(&mut ScratchPool::disabled(), t, axis)
}

/// [`sum_axis`] into a pooled buffer.
///
/// # Panics
///
/// Panics when `axis` is out of range.
pub fn sum_axis_in(pool: &mut ScratchPool, t: &Tensor, axis: usize) -> Tensor {
    assert!(axis < t.rank(), "axis out of range");
    let (_, n, inner) = around_axis(t.shape(), axis);
    let mut out_shape = t.shape().to_vec();
    out_shape.remove(axis);
    let mut out = pool.take_tensor(&out_shape);
    if inner == 1 {
        // A trailing axis: eight outputs' sums side by side, each still
        // adding its run in axis order onto `+0.0`.
        let (groups, rest) = out.data_mut().as_chunks_mut::<8>();
        let mut slabs = t.data().chunks_exact((8 * n).max(1));
        for (sums, slab) in groups.iter_mut().zip(&mut slabs) {
            let runs: [&[f32]; 8] = std::array::from_fn(|r| &slab[r * n..][..n]);
            for k in 0..n {
                for (sum, run) in sums.iter_mut().zip(&runs) {
                    *sum += run[k];
                }
            }
        }
        let runs = slabs.remainder().chunks_exact(n.max(1));
        for (sum, run) in rest.iter_mut().zip(runs) {
            for &v in run {
                *sum += v;
            }
        }
        return out;
    }
    // Per outer index, the axis' `inner` blocks add onto one output block in
    // axis order — each output slot's accumulation order.
    let slabs = t.data().chunks_exact((n * inner).max(1));
    for (dst, slab) in out.data_mut().chunks_exact_mut(inner.max(1)).zip(slabs) {
        for src in slab.chunks_exact(inner) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }
    out
}

/// Mean over `axis`.
///
/// # Panics
///
/// Panics when `axis` is out of range.
pub fn mean_axis(t: &Tensor, axis: usize) -> Tensor {
    let n = t.shape()[axis] as f32;
    sum_axis(t, axis).scale(1.0 / n)
}

/// Softmax over the last axis (numerically stabilized).
///
/// # Panics
///
/// Panics on rank-0 input.
pub fn softmax_last(t: &Tensor) -> Tensor {
    softmax_last_in(&mut ScratchPool::disabled(), t)
}

/// [`softmax_last`] into a pooled buffer.
///
/// # Panics
///
/// Panics on rank-0 input.
pub fn softmax_last_in(pool: &mut ScratchPool, t: &Tensor) -> Tensor {
    assert!(t.rank() >= 1, "softmax needs rank >= 1");
    let last = *t.shape().last().unwrap();
    let rows = t.numel() / last;
    let mut out = pool.take_clone(t);
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * last..(r + 1) * last];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Slices `[start, start+len)` along `axis`.
///
/// # Panics
///
/// Panics when the range exceeds the extent.
pub fn slice(t: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    assert!(axis < t.rank(), "axis out of range");
    let in_shape = t.shape().to_vec();
    assert!(start + len <= in_shape[axis], "slice out of range");
    let mut out_shape = in_shape.clone();
    out_shape[axis] = len;
    let in_strides = Tensor::strides_of(&in_shape);
    let out_strides = Tensor::strides_of(&out_shape);
    let mut out = Tensor::zeros(&out_shape);
    let data = t.data();
    let out_data = out.data_mut();
    for (flat, item) in out_data.iter_mut().enumerate() {
        let mut in_off = 0;
        for d in 0..in_shape.len() {
            let coord = (flat / out_strides[d]) % out_shape[d];
            let coord = if d == axis { coord + start } else { coord };
            in_off += coord * in_strides[d];
        }
        *item = data[in_off];
    }
    out
}

/// Concatenates tensors along `axis`.
///
/// # Panics
///
/// Panics when shapes disagree off-axis or the list is empty.
pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
    assert!(!tensors.is_empty(), "concat of nothing");
    let first = tensors[0].shape().to_vec();
    let mut total = 0;
    for t in tensors {
        assert_eq!(t.rank(), first.len(), "concat rank mismatch");
        for (d, (&td, &fd)) in t.shape().iter().zip(&first).enumerate() {
            if d != axis {
                assert_eq!(td, fd, "concat off-axis mismatch");
            }
        }
        total += t.shape()[axis];
    }
    let mut out_shape = first.clone();
    out_shape[axis] = total;
    let out_strides = Tensor::strides_of(&out_shape);
    let mut out = Tensor::zeros(&out_shape);
    let mut base = 0usize;
    for t in tensors {
        let in_shape = t.shape().to_vec();
        let in_strides = Tensor::strides_of(&in_shape);
        for (flat, &v) in t.data().iter().enumerate() {
            let mut out_off = 0;
            for d in 0..in_shape.len() {
                let coord = (flat / in_strides[d]) % in_shape[d];
                let coord = if d == axis { coord + base } else { coord };
                out_off += coord * out_strides[d];
            }
            out.data_mut()[out_off] = v;
        }
        base += t.shape()[axis];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), shape)
    }

    #[test]
    fn reshape_preserves_order() {
        let t = iota(&[2, 3]);
        let r = reshape(&t, &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn permute_transposes() {
        let t = iota(&[2, 3]);
        let p = permute(&t, &[1, 0]);
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.get(&[0, 1]), t.get(&[1, 0]));
        assert_eq!(p.get(&[2, 0]), t.get(&[0, 2]));
        // Inverse round-trips.
        let back = permute(&p, &inverse_permutation(&[1, 0]));
        assert_eq!(back, t);
    }

    #[test]
    fn permute_3d() {
        let t = iota(&[2, 3, 4]);
        let p = permute(&t, &[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
        let back = permute(&p, &inverse_permutation(&[2, 0, 1]));
        assert_eq!(back, t);
    }

    #[test]
    fn roll_wraps() {
        let t = iota(&[4]);
        let r = roll(&t, 0, 1); // out[i] = in[(i+1)%4]
        assert_eq!(r.data(), &[1.0, 2.0, 3.0, 0.0]);
        let r2 = roll(&t, 0, -1);
        assert_eq!(r2.data(), &[3.0, 0.0, 1.0, 2.0]);
        assert_eq!(roll(&r, 0, -1), t);
    }

    #[test]
    fn unfold_zero_pads() {
        let t = iota(&[4]); // [0,1,2,3]
        let u = unfold(&t, 0, 3); // out[i,j] = in[i+j-1]
        assert_eq!(u.shape(), &[4, 3]);
        assert_eq!(u.get(&[0, 0]), 0.0); // in[-1] clipped
        assert_eq!(u.get(&[0, 1]), 0.0); // in[0]
        assert_eq!(u.get(&[0, 2]), 1.0);
        assert_eq!(u.get(&[3, 1]), 3.0);
        assert_eq!(u.get(&[3, 2]), 0.0); // in[4] clipped
    }

    #[test]
    fn unfold_middle_axis() {
        let t = iota(&[2, 3]);
        let u = unfold(&t, 1, 3);
        assert_eq!(u.shape(), &[2, 3, 3]);
        assert_eq!(u.get(&[1, 1, 0]), t.get(&[1, 0]));
        assert_eq!(u.get(&[1, 1, 1]), t.get(&[1, 1]));
        assert_eq!(u.get(&[1, 2, 2]), 0.0); // clip
    }

    #[test]
    fn fold_is_unfold_transpose() {
        // <unfold(x), g> == <x, fold(g)> — adjointness on random data.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::from_vec((0..6).map(|_| rng.random::<f32>()).collect(), &[6]);
        let g = Tensor::from_vec((0..18).map(|_| rng.random::<f32>()).collect(), &[6, 3]);
        let ux = unfold(&x, 0, 3);
        let lhs: f32 = ux.mul(&g).sum_all();
        let fg = fold_acc(&g, 0, 3, &[6]);
        let rhs: f32 = x.mul(&fg).sum_all();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn strided_selects_multiples() {
        let t = iota(&[6]);
        let s = strided(&t, 0, 2);
        assert_eq!(s.data(), &[0.0, 2.0, 4.0]);
        let g = Tensor::ones(&[3]);
        let back = strided_scatter(&g, 0, 2, &[6]);
        assert_eq!(back.data(), &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn repeat_inserts_axis() {
        let t = iota(&[2]);
        let r = repeat(&t, 0, 3);
        assert_eq!(r.shape(), &[3, 2]);
        for i in 0..3 {
            assert_eq!(r.get(&[i, 0]), 0.0);
            assert_eq!(r.get(&[i, 1]), 1.0);
        }
        let r2 = repeat(&t, 1, 3);
        assert_eq!(r2.shape(), &[2, 3]);
        assert_eq!(r2.get(&[1, 2]), 1.0);
    }

    #[test]
    fn sum_axis_matches_manual() {
        let t = iota(&[2, 3]);
        let s0 = sum_axis(&t, 0);
        assert_eq!(s0.data(), &[3.0, 5.0, 7.0]);
        let s1 = sum_axis(&t, 1);
        assert_eq!(s1.data(), &[3.0, 12.0]);
        let m = mean_axis(&t, 1);
        assert_eq!(m.data(), &[1.0, 4.0]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = softmax_last(&t);
        let row0: f32 = s.data()[0..3].iter().sum();
        let row1: f32 = s.data()[3..6].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!((s.get(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
        assert!(s.get(&[0, 2]) > s.get(&[0, 1]));
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let t = iota(&[2, 4]);
        let a = slice(&t, 1, 0, 2);
        let b = slice(&t, 1, 2, 2);
        assert_eq!(concat(&[&a, &b], 1), t);
        assert_eq!(a.get(&[1, 1]), t.get(&[1, 1]));
        assert_eq!(b.get(&[1, 0]), t.get(&[1, 2]));
    }
}
