//! The candidate-evaluation worker pool.
//!
//! An [`EvalPool`] is a fixed set of named threads (`syno-eval-<i>`) behind
//! one bounded queue. A run with
//! [`eval_workers(n ≥ 2)`](crate::SearchBuilder::eval_workers) creates one
//! for itself and joins it before [`SearchRun::join`](crate::SearchRun::join)
//! returns; a daemon that multiplexes many concurrent runs creates one and
//! hands clones to every run through
//! [`SearchBuilder::eval_pool`](crate::SearchBuilder::eval_pool), so all
//! their candidate evaluations fan into one queue and the host is not
//! oversubscribed.
//!
//! Jobs are opaque closures; each one evaluates a single candidate end to
//! end (store recall → proxy training → latency tuning) and reports its
//! outcome back to the owning run over that run's own channel, so sharing
//! the pool never mixes runs' event streams and each run's determinism
//! contract (see [`crate::run`]) is untouched — only *which thread* runs an
//! evaluation changes, never what it computes or the order in which its
//! run applies it.
//!
//! The queue is a condvar-parked `VecDeque` bounded at twice the worker
//! count: producers facing a full queue and workers facing an empty one
//! *park* and are woken by the state change itself, never by a polling
//! sleep, so `syno_pool_queue_wait_seconds` measures queueing and nothing
//! else.
//!
//! Telemetry (all out-of-band, see `syno-telemetry`): queue depth gauge
//! `syno_pool_queue_depth`, submission counter `syno_pool_jobs_total`,
//! queue-wait histogram `syno_pool_queue_wait_seconds`, and per-worker
//! `syno_pool_worker_{busy,idle}_seconds{worker="<i>"}` histograms.
//!
//! Shutdown drains: [`EvalPool::shutdown`] closes the queue, lets the
//! workers finish everything already submitted, and joins them. Jobs
//! refused by a closed queue are *dropped*, which the search layer turns
//! into typed `SearchEvent::CandidateSkipped` notifications via a drop
//! guard — a dead pool degrades loudly, not silently. Panics are the same
//! story: a job that panics never takes a worker thread down (the loop
//! catches the unwind and keeps serving), but the payload is *recorded*,
//! counted in `syno_pool_job_panics_total`, and re-surfaced by `shutdown`
//! as a typed [`SynoError::Eval`] — mirroring the contract of the tensor
//! layer's shard pool, where a worker panic resumes on the submitting
//! thread instead of evaporating.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use syno_core::error::SynoError;
use syno_telemetry::metrics::{labeled, DURATION_BUCKETS};
use syno_telemetry::{counter, gauge};

/// One queued evaluation: an opaque closure run on a worker thread.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue proper — shared by producers and workers. Kept separate from
/// [`PoolShared`] so worker threads hold no reference to their own
/// `JoinHandle`s (which would keep the pool alive forever).
struct QueueCore {
    state: Mutex<QueueState>,
    /// Wakes producers parked on a full queue.
    space: Condvar,
    /// Wakes workers parked on an empty queue.
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    /// Pending jobs with their enqueue instants (for the queue-wait
    /// histogram).
    jobs: VecDeque<(Job, Instant)>,
    /// `false` once the pool is shut down; submissions then fail and
    /// workers exit after draining.
    open: bool,
    /// Rendered payloads of every job panic caught by a worker, in
    /// arrival order; drained and surfaced by [`EvalPool::shutdown`].
    panics: Vec<String>,
}

struct PoolShared {
    core: Arc<QueueCore>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

/// A fixed-size pool of evaluator threads shared across search runs.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same workers.
/// Dropping the last clone shuts the pool down and joins the workers after
/// draining everything already queued.
#[derive(Clone)]
pub struct EvalPool {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("workers", &self.shared.worker_count)
            .field("alive", &self.is_alive())
            .finish()
    }
}

impl EvalPool {
    /// Spawns a pool of `workers` evaluator threads (at least one). The
    /// submission queue is bounded at twice the worker count, so producers
    /// feel backpressure instead of racing arbitrarily far ahead of the
    /// evaluators.
    pub fn new(workers: usize) -> EvalPool {
        let worker_count = workers.max(1);
        let core = Arc::new(QueueCore {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(worker_count * 2),
                open: true,
                panics: Vec::new(),
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity: worker_count * 2,
        });
        let mut handles = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let core = Arc::clone(&core);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("syno-eval-{i}"))
                    .spawn(move || worker_loop(&core, i))
                    .expect("spawn evaluator thread"),
            );
        }
        EvalPool {
            shared: Arc::new(PoolShared {
                core,
                workers: Mutex::new(handles),
                worker_count,
            }),
        }
    }

    /// Number of evaluator threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.shared.worker_count
    }

    /// `true` until [`shutdown`](EvalPool::shutdown) closes the queue.
    pub fn is_alive(&self) -> bool {
        self.shared.core.state.lock().expect("pool queue lock").open
    }

    /// Submits one evaluation job, parking while the bounded queue is
    /// full. Returns `false` when the pool has been shut down (the job is
    /// dropped, firing whatever drop guards it carries).
    pub(crate) fn submit(&self, job: Job) -> bool {
        let core = &self.shared.core;
        let mut state = core.state.lock().expect("pool queue lock");
        while state.open && state.jobs.len() >= core.capacity {
            state = core.space.wait(state).expect("pool queue lock");
        }
        if !state.open {
            return false;
        }
        state.jobs.push_back((job, Instant::now()));
        counter!("syno_pool_jobs_total").inc();
        gauge!("syno_pool_queue_depth").set(state.jobs.len() as i64);
        drop(state);
        core.ready.notify_one();
        true
    }

    /// Closes the queue, lets the workers drain everything already
    /// submitted, and joins them. Idempotent; later `submit`s return
    /// `false`.
    ///
    /// # Errors
    ///
    /// Returns [`SynoError::Eval`] when any job panicked on a worker over
    /// the pool's lifetime: the count plus the first rendered payload. A
    /// panicking job never killed its worker (the pool kept serving), but
    /// it does mean an evaluation vanished without reporting a result, and
    /// that must not evaporate at teardown. The recorded payloads are
    /// drained, so a second `shutdown` returns `Ok`.
    pub fn shutdown(&self) -> Result<(), SynoError> {
        close(&self.shared.core);
        let handles: Vec<_> = self
            .shared
            .workers
            .lock()
            .expect("pool workers lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        let panics = std::mem::take(
            &mut self
                .shared
                .core
                .state
                .lock()
                .expect("pool queue lock")
                .panics,
        );
        match panics.first() {
            None => Ok(()),
            Some(first) => Err(SynoError::Eval {
                what: format!(
                    "{} evaluation job(s) panicked on the shared pool; first: {first}",
                    panics.len()
                ),
            }),
        }
    }
}

/// Marks the queue closed and wakes every parked thread so producers fail
/// fast and workers drain then exit.
fn close(core: &QueueCore) {
    core.state.lock().expect("pool queue lock").open = false;
    core.space.notify_all();
    core.ready.notify_all();
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // Last handle gone: close the queue and detach the workers (they
        // exit after draining; joining from Drop could deadlock if a job
        // itself holds the last clone).
        close(&self.core);
    }
}

/// Renders a caught panic's payload. Takes the box itself: a `&Box<dyn Any>`
/// passed where `&dyn Any` is expected unsizes the *box*, and every
/// downcast of that misses.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_owned(),
            |s| (*s).to_owned(),
        ),
    }
}

fn worker_loop(core: &QueueCore, worker: usize) {
    // Registered once per worker thread; observation is lock-free.
    let registry = syno_telemetry::metrics::global();
    let worker_label = worker.to_string();
    let wait_hist = registry.histogram("syno_pool_queue_wait_seconds", &DURATION_BUCKETS);
    let busy_hist = registry.histogram(
        &labeled("syno_pool_worker_busy_seconds", &[("worker", &worker_label)]),
        &DURATION_BUCKETS,
    );
    let idle_hist = registry.histogram(
        &labeled("syno_pool_worker_idle_seconds", &[("worker", &worker_label)]),
        &DURATION_BUCKETS,
    );
    loop {
        let idle_from = Instant::now();
        // The lock is held only across the pop, never the job, so workers
        // truly run concurrently.
        let mut state = core.state.lock().expect("pool queue lock");
        let (job, queued_at) = loop {
            if let Some(entry) = state.jobs.pop_front() {
                break entry;
            }
            if !state.open {
                return;
            }
            state = core.ready.wait(state).expect("pool queue lock");
        };
        gauge!("syno_pool_queue_depth").set(state.jobs.len() as i64);
        drop(state);
        core.space.notify_one();
        idle_hist.observe_duration(idle_from.elapsed());
        wait_hist.observe_duration(queued_at.elapsed());
        let busy_from = Instant::now();
        // Jobs carry their own panic isolation (the search layer wraps
        // every evaluation in `catch_unwind`); a panic that still escapes
        // must not take the whole pool down with it — but it must not
        // evaporate either: record the payload for `shutdown` to surface.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
            let rendered = panic_message(payload);
            counter!("syno_pool_job_panics_total").inc();
            core.state
                .lock()
                .expect("pool queue lock")
                .panics
                .push(format!("worker {worker}: {rendered}"));
        }
        busy_hist.observe_duration(busy_from.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_on_worker_threads_and_drain_on_shutdown() {
        let pool = EvalPool::new(3);
        assert_eq!(pool.workers(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            assert!(pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })));
        }
        pool.shutdown().expect("no job panicked");
        assert_eq!(done.load(Ordering::SeqCst), 32, "shutdown drains the queue");
        assert!(!pool.is_alive());
        assert!(!pool.submit(Box::new(|| {})), "submissions after shutdown fail");
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool_but_surfaces_at_shutdown() {
        let pool = EvalPool::new(1);
        assert!(pool.submit(Box::new(|| panic!("job exploded"))));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        assert!(pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })));
        let err = pool.shutdown().expect_err("the panic must be surfaced");
        let SynoError::Eval { what } = &err else {
            panic!("expected SynoError::Eval, got {err:?}");
        };
        assert!(what.contains("1 evaluation job(s) panicked"), "{what}");
        assert!(what.contains("job exploded"), "payload survives: {what}");
        assert_eq!(done.load(Ordering::SeqCst), 1, "later jobs still ran");
        // The payloads were drained: teardown is idempotent.
        pool.shutdown().expect("second shutdown is clean");
    }

    #[test]
    fn dropped_jobs_fire_their_drop_guards() {
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = EvalPool::new(1);
        pool.shutdown().expect("no job panicked");
        let dropped = Arc::new(AtomicUsize::new(0));
        let guard = Guard(Arc::clone(&dropped));
        assert!(!pool.submit(Box::new(move || {
            let _keep = &guard;
        })));
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            1,
            "a refused job's captures are dropped, firing guards"
        );
    }

    #[test]
    fn a_full_queue_parks_producers_until_workers_drain_it() {
        // One worker, capacity 2: block the worker, overfill the queue
        // from a producer thread, then release the worker and watch the
        // parked producer complete without any polling.
        let pool = EvalPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(pool.submit(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().expect("gate lock");
            while !*open {
                open = cv.wait(open).expect("gate lock");
            }
        })));
        let done = Arc::new(AtomicUsize::new(0));
        let producer = {
            let pool = pool.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let done = Arc::clone(&done);
                    assert!(pool.submit(Box::new(move || {
                        done.fetch_add(1, Ordering::SeqCst);
                    })));
                }
            })
        };
        // Open the gate: the worker unblocks, the queue drains, and the
        // parked producer is woken by `space` notifications.
        {
            let (lock, cv) = &*gate;
            *lock.lock().expect("gate lock") = true;
            cv.notify_all();
        }
        producer.join().expect("producer thread");
        pool.shutdown().expect("no job panicked");
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }
}
