//! The `syno-serve` daemon: many concurrent search sessions, one warm
//! store, one shared evaluation pool, one event-loop thread for every
//! client connection.
//!
//! # Architecture
//!
//! One [`Daemon`] owns a listening socket, an optional shared
//! [`Store`], and a single [`EvalPool`]. Each inbound connection
//! authenticates a *tenant* with a `Hello` handshake and may then submit
//! any number of search sessions; every session is a full
//! [`SearchRun`](syno_search::SearchRun) whose candidate evaluations fan
//! into the daemon's one pool via
//! [`SearchBuilder::eval_pool`](syno_search::SearchBuilder::eval_pool).
//! Because every session shares the store, a candidate proxy-trained for
//! one tenant is a [`CacheHit`](crate::WireEvent::CacheHit) for every
//! other tenant that discovers it — and the shared in-flight
//! [`CoalesceTable`] closes the remaining race: two tenants that discover
//! the same candidate while a training is *still running* share that one
//! training instead of paying for it twice. One [`SynthMemo`] holds the
//! feasible children of every spec in use, so sessions on one spec filter
//! each action path once between them; when the last live session ends,
//! the memo of every spec no session held since the previous idle point is
//! dropped.
//!
//! Threads are budgeted per **session**, not per connection:
//!
//! * the **event loop** (the `event_loop` module) multiplexes
//!   every connection — handshake, admission, cancel, status, derive,
//!   attach, delivery, and the shutdown drain — over non-blocking sockets
//!   and `poll(2)`, woken by a `Mailbox` self-pipe (never a timer);
//! * one **run thread** (`syno-run`) per live session searches its one
//!   scenario and hands every candidate to the shared pool;
//! * one **pump** per live session appends
//!   [`SearchEvent`](syno_search::SearchEvent)s to the session's record
//!   and wakes the loop, finishing with the terminal `SearchDone` frame;
//!   the loop joins it when its `Done` arrives.
//!
//! So a live session costs two threads; the loop and the pool are the
//! daemon's.
//!
//! # Sessions outlive sockets
//!
//! Each session is one record in the daemon's one session table: owner,
//! label, cancel token, live progress, and every frame it produced. A
//! dropped connection **detaches** from its sessions instead of
//! cancelling them: the runs keep executing and their frames stay in
//! their records. A reconnecting client replays with
//! [`Frame::Attach`]`{session, from_seq}` — the daemon answers
//! `AttachReply` and streams the record from that cursor, so the client
//! observes exactly the byte sequence it would have seen without the
//! disconnect. Explicit [`Frame::Cancel`] is tenant-scoped: any
//! connection authenticated as the owning tenant may cancel.
//!
//! When the last live session ends (the daemon's *idle point*), every
//! session that had already finished at the previous idle point is
//! retired: an `Attach` or `Cancel` of it is then an "unknown session"
//! error, while a connection that subscribed holds the record itself and
//! still gets every frame. So the table holds the live sessions and those
//! finished since the previous idle point, however long the daemon runs.
//!
//! # Admission control
//!
//! [`ServeConfig::max_sessions`] bounds live sessions daemon-wide,
//! [`ServeConfig::max_sessions_per_tenant`] per tenant, and
//! [`ServeConfig::tenant_max_steps`] meters each tenant's *cumulative*
//! search steps across all its sessions (live iterations count against
//! the budget too). A submit over any cap — or during shutdown — receives
//! a `Rejected` frame naming the limit, never a silent queue.
//!
//! # Shutdown ordering
//!
//! [`DaemonHandle::shutdown`] (or an inbound `Shutdown` frame, or SIGINT
//! in the binary) (1) marks the daemon draining so new submits are
//! rejected, (2) cancels every live session's [`CancelToken`], (3) lets
//! each run wind down through its normal path — in-flight pool
//! evaluations complete, the final checkpoint is journaled to the store —
//! then (4) answers every connected client with its undelivered session
//! frames followed by one terminal `ShuttingDown{checkpointed}` (the
//! sessions that finished during the drain) per connection, and (5) joins
//! the pumps not joined yet and shuts the shared pool down. A later run
//! with [`resume`](crate::SearchRequest::resume) replays each interrupted
//! session to the identical candidate set.
//!
//! This file holds the daemon's shared state and its handles; `session`
//! holds what happens to one submission: admission, the pump, derive.

mod session;

pub(crate) use session::{admit, handle_derive};

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

use syno_nn::ProxyConfig;
use syno_search::{CancelToken, CoalesceTable, EvalPool, RunProgress, SynthMemo};
use syno_store::Store;

use crate::event_loop::{self, LoopMsg, Mailbox, WakeReader};
use crate::protocol::{DaemonStatus, Frame, SessionStatus, WireStoreStats};
use crate::transport::Listener;

/// Daemon-wide tuning: the shared pool size, admission caps, and the
/// evaluation defaults every session inherits unless its request
/// overrides them.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the shared evaluation pool.
    pub eval_workers: usize,
    /// Live-session cap across all tenants.
    pub max_sessions: usize,
    /// Live-session cap per tenant.
    pub max_sessions_per_tenant: usize,
    /// Cumulative search-step budget per tenant across all its sessions
    /// (completed steps plus live iterations); `0` means unmetered.
    pub tenant_max_steps: u64,
    /// Proxy-training defaults (requests override steps/batch/batches).
    pub proxy: ProxyConfig,
    /// Default progress/checkpoint cadence in iterations.
    pub progress_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            eval_workers: 2,
            max_sessions: 8,
            max_sessions_per_tenant: 4,
            tenant_max_steps: 0,
            proxy: ProxyConfig::default(),
            progress_every: 10,
        }
    }
}

// A session's phase: live; finished since the previous idle point;
// finished during the drain (counted in `ShuttingDown`, never retired: no
// idle point follows); finished at the previous idle point (retired at the
// next, once its pump is joined). Read and written only under the table
// lock, which orders it; the atomic just lets a shared record change.
const LIVE: u8 = 0;
const FINISHED: u8 = 1;
const DRAINED: u8 = 2;
const SETTLED: u8 = 3;

/// One admitted session — the unit of session takeover. [`admit`] inserts
/// it whole; every frame the session produces is appended here and
/// *delivered* by the event loop to the connections that hold the record
/// and a cursor into it, so [`Frame::Attach`] can replay from any cursor.
pub(crate) struct Session {
    tenant: String,
    label: String,
    cancel: CancelToken,
    progress: Arc<RunProgress>,
    frames: Mutex<Vec<Frame>>,
    phase: AtomicU8,
    /// Taken and joined by the event loop when the session's `Done` arrives.
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl Session {
    fn push(&self, frame: Frame) {
        self.frames.lock().expect("session frames lock").push(frame);
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.lock().expect("session frames lock").len()
    }

    /// Hands every frame from `cursor` on to `write` and advances the
    /// cursor; `true` once the terminal `SearchDone` has been handed over.
    pub(crate) fn read_from(&self, cursor: &mut usize, mut write: impl FnMut(&Frame)) -> bool {
        let frames = self.frames.lock().expect("session frames lock");
        for frame in frames.get(*cursor..).unwrap_or(&[]) {
            write(frame);
        }
        *cursor = (*cursor).max(frames.len());
        matches!(frames.last(), Some(Frame::SearchDone { .. }))
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Relaxed)
    }

    fn pump(&self) -> MutexGuard<'_, Option<JoinHandle<()>>> {
        self.pump.lock().expect("session pump lock")
    }
}

/// State shared by the event loop, every session pump, and the handle.
pub(crate) struct DaemonState {
    config: ServeConfig,
    store: Option<Arc<Store>>,
    pool: EvalPool,
    /// Every live session and every session that finished since the
    /// previous idle point — the replay source for `Attach`.
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Completed search steps per tenant (live iterations are read from
    /// the session progress when metering admission). Locked only while
    /// `sessions` is held.
    tenant_steps: Mutex<HashMap<String, u64>>,
    coalesce: CoalesceTable,
    /// Feasible children by spec and action path, shared by every session;
    /// a spec no session held between two idle points is dropped at the
    /// second.
    synth_memo: SynthMemo,
    mailbox: Mailbox,
    /// Sessions admitted so far; the last one's id.
    next_session: AtomicU64,
    shutting_down: AtomicBool,
}

impl DaemonState {
    /// Marks the daemon draining, cancels every live session, and wakes
    /// the event loop so it observes the flag immediately. Safe to call
    /// more than once.
    pub(crate) fn trigger_shutdown(&self) {
        {
            // Under the table lock, so a session finishes either before the
            // drain or as part of it, and `admit` cancels one it inserts.
            let sessions = self.sessions.lock().expect("sessions lock");
            self.shutting_down.store(true, Ordering::SeqCst);
            for session in sessions.values() {
                session.cancel.cancel();
            }
        }
        self.mailbox.post(LoopMsg::Shutdown);
    }

    pub(crate) fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// The `checkpointed` count of `ShuttingDown` once no session is
    /// live: the sessions that finished during the drain, each after
    /// journaling its final checkpoint (none without a store). `None`
    /// while a session is still live.
    pub(crate) fn drained(&self) -> Option<u64> {
        let sessions = self.sessions.lock().expect("sessions lock");
        if sessions.values().any(|session| session.phase() == LIVE) {
            return None;
        }
        let drained = sessions.values().filter(|s| s.phase() == DRAINED);
        Some(self.store.as_ref().map_or(0, |_| drained.count() as u64))
    }

    /// Ends a session in one critical section: its terminal `SearchDone`
    /// enters the record, the tenant is charged `steps`, and the session
    /// leaves the live set. When no session is left live, this is the
    /// daemon's one idle point: no session can still be racing a training,
    /// so the coalescing table's outcomes go (the next generation is served
    /// `CacheHit`s from the store instead); the memo keeps only the specs
    /// used since the previous idle point (twin tenants finish together, so
    /// clearing it would drop a spec between each pair); and every session
    /// that had already finished at the previous idle point is retired.
    fn finish(&self, session: &Session, done: Frame, steps: u64) {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        session.push(done);
        *self
            .tenant_steps
            .lock()
            .expect("tenant steps lock")
            .entry(session.tenant.clone())
            .or_insert(0) += steps;
        let phase = if self.is_shutting_down() {
            DRAINED
        } else {
            FINISHED
        };
        session.phase.store(phase, Ordering::Relaxed);
        syno_telemetry::gauge!("syno_serve_active_sessions").sub(1);
        if sessions.values().all(|session| session.phase() != LIVE) {
            self.coalesce.clear();
            self.synth_memo.drop_unused();
            sessions.retain(|_, session| match session.phase() {
                SETTLED => session.pump().is_some(),
                FINISHED => {
                    session.phase.store(SETTLED, Ordering::Relaxed);
                    true
                }
                _ => true,
            });
            syno_telemetry::gauge!("syno_serve_session_logs").set(sessions.len() as i64);
        }
    }

    /// Joins the pump of every finished session (each is past `finish`):
    /// on each `Done`, and once the drain is over.
    pub(crate) fn join_finished_pumps(&self) {
        let pumps: Vec<JoinHandle<()>> = (self.sessions.lock().expect("sessions lock"))
            .values()
            .filter(|session| session.phase() != LIVE)
            .filter_map(|session| session.pump().take())
            .collect();
        for pump in pumps {
            let _ = pump.join();
        }
    }

    /// The session `id`, if it is in the table and `tenant` owns it.
    pub(crate) fn owned(&self, tenant: &str, id: u64, verb: &str) -> Result<Arc<Session>, String> {
        let sessions = self.sessions.lock().expect("sessions lock");
        let Some(session) = sessions.get(&id) else {
            return Err(format!("cannot {verb}: unknown session {id}"));
        };
        if session.tenant != tenant {
            return Err(format!(
                "cannot {verb}: session {id} is not owned by tenant '{tenant}'"
            ));
        }
        Ok(Arc::clone(session))
    }

    /// Tenant-scoped cancel: any connection authenticated as the owning
    /// tenant may cancel (the session may have outlived the socket that
    /// submitted it). Cancelling a finished session is a no-op.
    pub(crate) fn cancel_session(&self, tenant: &str, id: u64) -> Result<(), String> {
        self.owned(tenant, id, "cancel")?.cancel.cancel();
        Ok(())
    }

    /// A tenant's metered step usage: completed steps plus the live
    /// iterations of its running sessions.
    fn tenant_steps_used(&self, tenant: &str) -> u64 {
        let sessions = self.sessions.lock().expect("sessions lock");
        let completed = *self
            .tenant_steps
            .lock()
            .expect("tenant steps lock")
            .get(tenant)
            .unwrap_or(&0);
        let live: u64 = sessions
            .values()
            .filter(|session| session.phase() == LIVE && session.tenant == tenant)
            .map(|session| session.progress.scenarios()[0].iterations())
            .sum();
        completed + live
    }

    pub(crate) fn status(&self) -> DaemonStatus {
        let sessions = self.sessions.lock().expect("sessions lock");
        let mut tenants: HashMap<String, u64> =
            self.tenant_steps.lock().expect("tenant steps lock").clone();
        let mut rows: Vec<SessionStatus> = Vec::new();
        for (id, session) in sessions.iter().filter(|(_, s)| s.phase() == LIVE) {
            let scenario = &session.progress.scenarios()[0];
            let phases = session.progress.phases();
            rows.push(SessionStatus {
                session: *id,
                tenant: session.tenant.clone(),
                label: session.label.clone(),
                iterations: scenario.iterations(),
                total_iterations: scenario.total_iterations(),
                discovered: scenario.discovered(),
                candidates: scenario.candidates(),
                synth_ns: phases.synth_ns(),
                eval_ns: phases.eval_ns(),
                store_ns: phases.store_ns(),
                tune_ns: phases.tune_ns(),
            });
            *tenants.entry(session.tenant.clone()).or_insert(0) += scenario.iterations();
        }
        rows.sort_by_key(|row| row.session);
        let mut tenants: Vec<(String, u64)> = tenants.into_iter().collect();
        tenants.sort();
        DaemonStatus {
            active_sessions: rows.len() as u32,
            total_admitted: self.next_session.load(Ordering::SeqCst),
            shutting_down: self.is_shutting_down(),
            sessions: rows,
            store: self
                .store
                .as_ref()
                .map(|store| WireStoreStats::from(&store.stats())),
            tenants,
        }
    }
}

/// A cloneable remote control for a running [`Daemon`] — the binary hands
/// one to its SIGINT watcher, tests use one to stop the daemon in-process.
#[derive(Clone)]
pub struct DaemonHandle {
    state: Arc<DaemonState>,
    addr: String,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl DaemonHandle {
    /// The daemon's bound address in listen-spec syntax.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Is the daemon draining toward exit?
    pub fn is_shutting_down(&self) -> bool {
        self.state.is_shutting_down()
    }

    /// Requests a graceful shutdown: reject new work, cancel live
    /// sessions, drain in-flight evaluations, checkpoint, answer every
    /// client with terminal frames. Returns immediately;
    /// [`Daemon::run`] returns once the drain completes.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }
}

/// The serving daemon. [`bind`](Daemon::bind) it, then either
/// [`run`](Daemon::run) on the current thread (the binary) or
/// [`spawn`](Daemon::spawn) onto a background thread (tests).
pub struct Daemon {
    listener: Listener,
    wake: WakeReader,
    addr: String,
    state: Arc<DaemonState>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the listen spec (`"unix:<path>"` or a TCP address; TCP port
    /// `0` picks a free port) and builds the shared pool and wakeup
    /// mailbox. No connection is accepted until [`run`](Daemon::run).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures; `Unsupported` on platforms
    /// without `poll(2)`-capable unix pipes (the event loop needs them).
    pub fn bind(
        listen: &str,
        store: Option<Arc<Store>>,
        config: ServeConfig,
    ) -> io::Result<Daemon> {
        let listener = Listener::bind(listen)?;
        let addr = listener.local_spec()?;
        let (mailbox, wake) = Mailbox::new()?;
        let pool = EvalPool::new(config.eval_workers);
        Ok(Daemon {
            listener,
            wake,
            addr,
            state: Arc::new(DaemonState {
                config,
                store,
                pool,
                sessions: Mutex::new(HashMap::new()),
                tenant_steps: Mutex::new(HashMap::new()),
                coalesce: CoalesceTable::new(),
                synth_memo: SynthMemo::new(),
                mailbox,
                next_session: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
            }),
        })
    }

    /// A control handle for this daemon (cloneable, thread-safe).
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            state: Arc::clone(&self.state),
            addr: self.addr.clone(),
        }
    }

    /// Serves connections until [`DaemonHandle::shutdown`] (or an inbound
    /// `Shutdown` frame) completes the drain: every session finished and
    /// checkpointed, every client answered, every pump joined, the
    /// shared pool shut down.
    pub fn run(self) {
        event_loop::drive(Arc::clone(&self.state), self.listener, self.wake);
        // The search layer isolates evaluation panics per candidate, so a
        // payload here means one escaped that net; count it and keep the
        // drain going — the daemon is exiting either way.
        if self.state.pool.shutdown().is_err() {
            syno_telemetry::counter!("syno_serve_pool_panics_total").inc();
        }
    }

    /// Runs the daemon on a background thread; returns the control handle
    /// and the join handle for the serving thread.
    pub fn spawn(self) -> (DaemonHandle, thread::JoinHandle<()>) {
        let handle = self.handle();
        let join = thread::Builder::new()
            .name("syno-serve-loop".into())
            .spawn(move || self.run())
            .expect("spawn daemon thread");
        (handle, join)
    }
}
