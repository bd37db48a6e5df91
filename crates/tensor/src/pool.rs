//! Buffer recycling for the execution hot path.
//!
//! Candidate evaluation dominates search wall-clock, and its inner loop —
//! proxy training — used to allocate a fresh `Vec<f32>` for every tensor an
//! op produced, every step. A [`ScratchPool`] keeps those buffers alive
//! across calls (and, via [`Tape::reset`](crate::Tape::reset), across
//! training steps): `take*` hands out the newest recycled buffer whose
//! capacity fits the requested length, `recycle*` returns buffers once their
//! tensors are dead. A parked buffer is never regrown — a request nothing
//! fits allocates afresh — so once the pool holds a step's working set, a
//! training loop that repeats the step allocates no tensor buffer at all.
//!
//! Recycling is **value-invisible**: a taken buffer is always fully
//! initialized (zeroed, copied, or filled by the caller) before it becomes a
//! tensor, so pooled and unpooled execution produce bit-identical results —
//! the invariant the differential-testing suite pins.
//!
//! The pool is **bounded**: parked bytes are capped (default
//! [`ScratchPool::DEFAULT_CAP_BYTES`]); recycling past the cap evicts the
//! *oldest* parked buffers (the newest stay warm), and a single
//! buffer larger than the cap is dropped outright. [`ScratchPool::pooled_bytes`]
//! and [`ScratchPool::high_water_bytes`] expose the footprint — the
//! `syno_tensor_scratch_bytes` gauge in the metrics dump reads the former.

use crate::tensor::Tensor;
use std::collections::VecDeque;

/// A recycling allocator for `f32` buffers.
///
/// Buffers are handed out newest first among those large enough; training
/// loops repeat the same op sequence with the same shapes each step, so
/// after a couple of warm-up steps the pool serves every request without
/// touching the system allocator.
///
/// # Examples
///
/// ```
/// use syno_tensor::ScratchPool;
///
/// let mut pool = ScratchPool::new();
/// let buf = pool.take_zeroed(16);
/// assert!(buf.iter().all(|&x| x == 0.0));
/// pool.recycle_buffer(buf);
/// assert_eq!(pool.recycled(), 0); // not yet re-served
/// let again = pool.take_zeroed(8);
/// assert_eq!(again.len(), 8);
/// assert_eq!(pool.recycled(), 1); // served from the pool
/// ```
#[derive(Debug)]
pub struct ScratchPool {
    /// Parked buffers: pushed at the back, taken newest first among those
    /// that fit, evicted from the front when the byte cap is exceeded.
    free: VecDeque<Vec<f32>>,
    disabled: bool,
    recycled: usize,
    /// Bytes currently parked in `free` (capacity, not length).
    pooled_bytes: usize,
    /// Largest `pooled_bytes` ever observed.
    high_water_bytes: usize,
    /// Eviction threshold for `pooled_bytes`.
    cap_bytes: usize,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool {
            free: VecDeque::new(),
            disabled: false,
            recycled: 0,
            pooled_bytes: 0,
            high_water_bytes: 0,
            cap_bytes: Self::DEFAULT_CAP_BYTES,
        }
    }
}

impl ScratchPool {
    /// Default cap on parked bytes (16 MiB) — proxy-training working sets
    /// are far below this, so eviction only triggers on pathological shapes.
    pub const DEFAULT_CAP_BYTES: usize = 16 << 20;

    /// An empty, enabled pool with the default byte cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool whose parked bytes never exceed `cap_bytes`.
    #[cfg(test)]
    fn with_cap(cap_bytes: usize) -> Self {
        ScratchPool {
            cap_bytes,
            ..Self::default()
        }
    }

    /// A pool that never recycles: every `take*` allocates fresh and every
    /// `recycle*` drops. This is the pre-PR allocation behavior, kept for
    /// the reference engine mode the differential tests compare against.
    pub fn disabled() -> Self {
        ScratchPool {
            disabled: true,
            ..Self::default()
        }
    }

    /// How many `take*` requests were served from recycled buffers.
    pub fn recycled(&self) -> usize {
        self.recycled
    }

    /// Bytes currently parked and reusable.
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes
    }

    /// The largest parked footprint the pool ever reached.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water_bytes
    }

    /// The eviction threshold for parked bytes.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// An empty buffer (length 0) with room for `numel` elements: the newest
    /// parked buffer whose capacity fits, else a fresh allocation. A parked
    /// buffer is never regrown, so a smaller one stays parked for a smaller
    /// request. The caller fills it.
    pub fn take_raw(&mut self, numel: usize) -> Vec<f32> {
        let fits = self.free.iter().rposition(|buf| buf.capacity() >= numel);
        match fits.and_then(|at| self.free.remove(at)) {
            Some(mut buf) => {
                self.pooled_bytes -= bytes_of(&buf);
                buf.clear();
                self.recycled += 1;
                buf
            }
            None => Vec::with_capacity(numel),
        }
    }

    /// A buffer of `numel` zeros.
    pub fn take_zeroed(&mut self, numel: usize) -> Vec<f32> {
        let mut buf = self.take_raw(numel);
        buf.resize(numel, 0.0);
        buf
    }

    /// A buffer holding a copy of `data`.
    pub fn take_copied(&mut self, data: &[f32]) -> Vec<f32> {
        let mut buf = self.take_raw(data.len());
        buf.extend_from_slice(data);
        buf
    }

    /// A zero tensor of `shape`, backed by a pooled buffer.
    pub fn take_tensor(&mut self, shape: &[usize]) -> Tensor {
        let numel = shape.iter().product();
        Tensor::from_vec(self.take_zeroed(numel), shape)
    }

    /// A copy of `t` backed by a pooled buffer.
    pub fn take_clone(&mut self, t: &Tensor) -> Tensor {
        Tensor::from_vec(self.take_copied(t.data()), t.shape())
    }

    /// Returns a raw buffer to the pool. Buffers larger than the cap are
    /// dropped; parking past the cap evicts the oldest parked buffers.
    pub fn recycle_buffer(&mut self, buf: Vec<f32>) {
        let bytes = bytes_of(&buf);
        if self.disabled || bytes == 0 || bytes > self.cap_bytes {
            return;
        }
        self.pooled_bytes += bytes;
        self.free.push_back(buf);
        while self.pooled_bytes > self.cap_bytes {
            let evicted = self.free.pop_front().expect("bytes imply buffers");
            self.pooled_bytes -= bytes_of(&evicted);
        }
        self.high_water_bytes = self.high_water_bytes.max(self.pooled_bytes);
    }

    /// Returns a tensor's backing buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.recycle_buffer(t.into_vec());
    }
}

/// Parked footprint of a buffer: its capacity, since that is what the
/// allocator actually holds (a slice would hide it, hence `&Vec`).
#[allow(clippy::ptr_arg)]
fn bytes_of(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_cycle_and_grow() {
        let mut pool = ScratchPool::new();
        let (big, small) = (pool.take_zeroed(16), pool.take_zeroed(4));
        pool.recycle_buffer(big);
        pool.recycle_buffer(small);
        let b = pool.take_zeroed(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(b.capacity(), 16, "the newest parked buffer that fits");
        assert_eq!(pool.recycled(), 1);
        let grown = pool.take_zeroed(8);
        assert_eq!(grown.len(), 8);
        assert_eq!(pool.recycled(), 1, "too small a buffer is not regrown");
        let small = pool.take_raw(4);
        assert_eq!(small.capacity(), 4, "it stays parked for a request it fits");
        assert_eq!(pool.recycled(), 2);
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        let mut pool = ScratchPool::new();
        let mut t = pool.take_tensor(&[2, 2]);
        t.data_mut().fill(7.0);
        pool.recycle(t);
        let again = pool.take_tensor(&[2, 2]);
        assert_eq!(again.data(), &[0.0; 4]);
    }

    #[test]
    fn copied_matches_source() {
        let mut pool = ScratchPool::new();
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let copy = pool.take_clone(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let mut pool = ScratchPool::disabled();
        let a = pool.take_zeroed(4);
        pool.recycle_buffer(a);
        let _ = pool.take_zeroed(4);
        assert_eq!(pool.recycled(), 0);
        assert_eq!(pool.pooled_bytes(), 0);
    }

    #[test]
    fn pooled_bytes_track_parked_capacity() {
        let mut pool = ScratchPool::new();
        let a = pool.take_zeroed(16);
        let a_bytes = a.capacity() * 4;
        pool.recycle_buffer(a);
        assert_eq!(pool.pooled_bytes(), a_bytes);
        assert_eq!(pool.high_water_bytes(), a_bytes);
        let _ = pool.take_raw(16);
        assert_eq!(pool.pooled_bytes(), 0, "taking un-parks the bytes");
        assert_eq!(pool.high_water_bytes(), a_bytes, "high water sticks");
    }

    #[test]
    fn cap_evicts_oldest_buffers_first() {
        // Cap fits exactly two 100-element buffers.
        let mut pool = ScratchPool::with_cap(800);
        let mut bufs: Vec<Vec<f32>> = (0..3).map(|_| Vec::with_capacity(100)).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.resize(100, i as f32);
        }
        for b in bufs {
            pool.recycle_buffer(b);
        }
        assert!(pool.pooled_bytes() <= 800, "cap enforced");
        assert_eq!(pool.high_water_bytes(), 800, "high water before eviction");
        // LIFO: the most recently parked buffer (2.0-filled) comes back
        // first; the oldest (0.0-filled) was evicted.
        let hot = pool.take_raw(100);
        assert_eq!(hot.capacity(), 100);
        let warm = pool.take_raw(100);
        assert_eq!(warm.capacity(), 100);
        assert_eq!(pool.pooled_bytes(), 0);
        let _ = pool.take_raw(100);
        assert_eq!(pool.recycled(), 2, "third buffer was evicted");
    }

    #[test]
    fn oversized_buffers_are_dropped_outright() {
        let mut pool = ScratchPool::with_cap(100);
        pool.recycle_buffer(vec![0.0; 1000]);
        assert_eq!(pool.pooled_bytes(), 0);
        assert_eq!(pool.high_water_bytes(), 0);
    }
}
