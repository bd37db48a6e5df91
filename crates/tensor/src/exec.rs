//! Execution policy and the data-parallel shard pool.
//!
//! PR 5's stride-compiled engine ran every contraction on one thread in
//! serial summation order. This module adds the two knobs that evolve that
//! contract without giving up determinism:
//!
//! * [`ExecPolicy::reduce_width`] — the **pinned shape of the reduction
//!   tree**. A width `w > 1` splits the outermost summed loop of an einsum
//!   into `min(w, extent)` contiguous chunks, each accumulated in serial
//!   order, then combines the partials in a fixed pairwise-adjacent binary
//!   tree. The chunking and the combine order depend only on the operand
//!   shapes and `w` — never on thread count or scheduling — so results are
//!   bit-identical for a given width no matter how many workers run.
//! * [`ExecPolicy::exec_threads`] — how many OS threads may cooperate on one
//!   contraction. Threads only decide *who* computes a shard, not *what* is
//!   combined with what, so this knob is value-invisible by construction.
//!
//! [`ExecPool`] is the worker pool behind `exec_threads`: a scoped,
//! dependency-free condvar-parked pool (the same parking design as the
//! search crate's `EvalPool`, but for borrowed closures instead of boxed
//! jobs). The caller participates in draining shards, workers park on a
//! condvar between tasks, and a panic on any shard is captured and re-thrown
//! on the caller thread — a poisoned worker never degrades to silently
//! missing output.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
    /// results are bit-identical across thread counts at a fixed
    /// `reduce_width`.
    pub exec_threads: usize,
    /// Width of the deterministic reduction tree: the outermost summed loop
    /// is split into at most this many contiguous chunks whose partials are
    /// combined pairwise-adjacent. `1` reproduces the PR 5 serial summation
    /// order exactly. Part of the value contract — stored proxy scores are
    /// tagged with the width they were computed under.
    pub reduce_width: usize,
}

impl ExecPolicy {
    /// The reduction-tree width the default contract pins (and the width the
    /// re-pinned proxy-score constants were computed under).
    pub const PINNED_REDUCE_WIDTH: usize = 4;

    /// The exact PR 5 contract: one thread, serial left-to-right summation.
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

/// The shard closure, lifetime-erased for the shared task slot. The caller
/// of [`ExecPool::run`] blocks until every shard finished, so the pointee
/// outlives every dereference.
#[derive(Clone, Copy)]
struct ShardFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared &-calls from many threads are fine)
// and `run` keeps it alive until all workers are done with it.
unsafe impl Send for ShardFn {}

struct ActiveTask {
    f: ShardFn,
    /// Next unclaimed shard index.
    next: usize,
    /// Total shard count.
    total: usize,
    /// Shards currently executing on some thread.
    running: usize,
    /// First captured worker panic, re-thrown on the caller thread.
    panic: Option<Box<dyn Any + Send>>,
}

struct PoolState {
    task: Option<ActiveTask>,
    shutdown: bool,
}

struct PoolCore {
    state: Mutex<PoolState>,
    /// Signals parked workers that a task arrived (or shutdown).
    work: Condvar,
    /// Signals the caller that the last running shard finished.
    done: Condvar,
}

/// A small data-parallel worker pool for shard execution.
///
/// Workers park on a condvar between tasks; [`ExecPool::run`] publishes a
/// borrowed shard closure, participates in the drain itself, and returns
/// once every shard completed — re-raising the first shard panic, if any.
pub struct ExecPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ExecPool {
    /// A pool with `workers` parked OS threads. With `workers == 0` the
    /// pool is inert and [`ExecPool::run`] executes every shard in-line.
    pub fn new(workers: usize) -> Self {
        let core = Arc::new(PoolCore {
            state: Mutex::new(PoolState {
                task: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        ExecPool { core, workers }
    }

    /// A pool sized for `policy`: the calling thread counts as one executor,
    /// so `exec_threads - 1` workers are spawned. Returns `None` for
    /// single-threaded policies (nothing to park).
    pub fn for_policy(policy: ExecPolicy) -> Option<Self> {
        (policy.exec_threads > 1).then(|| Self::new(policy.exec_threads - 1))
    }

    /// Number of parked worker threads (the caller is one more executor).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0..shards)` across the pool plus the calling thread, blocking
    /// until every shard completed. Shards are claimed dynamically; callers
    /// must not depend on which thread runs which shard (the deterministic
    /// tree reduction exists precisely so values never do).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any shard raised, after all shards
    /// finished or were claimed.
    pub fn run(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        if shards <= 1 || self.workers.is_empty() {
            for i in 0..shards {
                f(i);
            }
            return;
        }
        // SAFETY: pure lifetime erasure — the borrow checker cannot see that
        // `run` blocks until every shard retired, so the pointee outlives
        // every dereference through the erased pointer.
        let erased = ShardFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut state = self.core.state.lock().expect("exec pool lock");
        debug_assert!(state.task.is_none(), "ExecPool::run is not reentrant");
        state.task = Some(ActiveTask {
            f: erased,
            next: 0,
            total: shards,
            running: 0,
            panic: None,
        });
        self.core.work.notify_all();
        // The caller participates in the drain.
        loop {
            let claim = claim_shard(&mut state);
            let Some((f, i)) = claim else { break };
            drop(state);
            // SAFETY: `f` points at the borrowed closure above, alive until
            // this function returns; it is `Sync` so shared calls are fine.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*f.0)(i) }));
            state = self.core.state.lock().expect("exec pool lock");
            finish_shard(&mut state, result);
        }
        // Wait for in-flight shards claimed by workers.
        while state
            .task
            .as_ref()
            .is_some_and(|t| t.running > 0 || t.next < t.total)
        {
            state = self.core.done.wait(state).expect("exec pool lock");
        }
        let task = state.task.take().expect("task still published");
        drop(state);
        if let Some(payload) = task.panic {
            resume_unwind(payload);
        }
    }
}

/// Claims the next shard under the lock, marking it running.
fn claim_shard(state: &mut PoolState) -> Option<(ShardFn, usize)> {
    let t = state.task.as_mut()?;
    if t.next >= t.total {
        return None;
    }
    t.next += 1;
    t.running += 1;
    Some((t.f, t.next - 1))
}

/// Marks a shard finished under the lock, recording the first panic.
fn finish_shard(state: &mut PoolState, result: Result<(), Box<dyn Any + Send>>) {
    if let Some(t) = state.task.as_mut() {
        t.running -= 1;
        if let Err(payload) = result {
            t.panic.get_or_insert(payload);
        }
    }
}

fn worker_loop(core: &PoolCore) {
    let mut state = core.state.lock().expect("exec pool lock");
    loop {
        if state.shutdown {
            return;
        }
        match claim_shard(&mut state) {
            Some((f, i)) => {
                drop(state);
                // SAFETY: see `ExecPool::run` — the closure outlives the
                // task it was published under.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*f.0)(i) }));
                state = core.state.lock().expect("exec pool lock");
                finish_shard(&mut state, result);
                let finished = state
                    .task
                    .as_ref()
                    .is_some_and(|t| t.next >= t.total && t.running == 0);
                if finished {
                    core.done.notify_all();
                }
            }
            None => {
                state = core.work.wait(state).expect("exec pool lock");
            }
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut state = self.core.state.lock().expect("exec pool lock");
            state.shutdown = true;
        }
        self.core.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_policy_is_the_pinned_contract() {
        let p = ExecPolicy::default();
        assert_eq!(p.exec_threads, 1);
        assert_eq!(p.reduce_width, ExecPolicy::PINNED_REDUCE_WIDTH);
        assert_eq!(ExecPolicy::serial().reduce_width, 1);
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = ExecPool::new(3);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "shard {i}");
        }
    }

    #[test]
    fn inert_pool_runs_inline() {
        let pool = ExecPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        let count = AtomicUsize::new(0);
        pool.run(5, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn pool_is_reusable_across_tasks() {
        let pool = ExecPool::new(2);
        for round in 0..16 {
            let sum = AtomicUsize::new(0);
            pool.run(8, &|i| {
                sum.fetch_add(i + round, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 28 + 8 * round);
        }
    }

    #[test]
    fn shard_panics_propagate_to_the_caller() {
        let pool = ExecPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("shard 3 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload preserved");
        assert_eq!(msg, "shard 3 exploded");
        // The pool survives and keeps working.
        let count = AtomicUsize::new(0);
        pool.run(4, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn for_policy_sizes_from_exec_threads() {
        assert!(ExecPool::for_policy(ExecPolicy::serial()).is_none());
        let pool = ExecPool::for_policy(ExecPolicy::with_threads(4)).expect("parallel policy");
        assert_eq!(pool.worker_count(), 3);
    }
}
