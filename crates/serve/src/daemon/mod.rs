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
//!   [`SearchEvent`](syno_search::SearchEvent)s to the session's retained
//!   `SessionLog` and wakes the loop, finishing with the terminal
//!   `SearchDone` frame.
//!
//! So a live session costs two threads; the loop and the pool are the
//! daemon's.
//!
//! # Sessions outlive sockets
//!
//! A dropped connection **detaches** its sessions instead of cancelling
//! them: the runs keep executing and every frame they produce is retained
//! in the daemon's per-session log. A reconnecting client replays with
//! [`Frame::Attach`]`{session, from_seq}` — the daemon answers
//! `AttachReply` and streams the log from that cursor, so the client
//! observes exactly the byte sequence it would have seen without the
//! disconnect. Explicit [`Frame::Cancel`] is tenant-scoped: any
//! connection authenticated as the owning tenant may cancel.
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
//! frames followed by one terminal `ShuttingDown{checkpointed}` per
//! connection, and (5) joins every pump and shuts the shared pool down.
//! A later run with [`resume`](crate::SearchRequest::resume) replays each
//! interrupted session to the identical candidate set.

//!
//! This file holds the daemon's shared state and its handles; `session`
//! holds what happens to one submission: admission, the pump, derive.

mod session;

pub(crate) use session::{admit, handle_derive, spawn_pump};

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

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

/// One live session as the daemon tracks it.
struct SessionEntry {
    tenant: String,
    cancel: CancelToken,
    progress: Arc<RunProgress>,
}

/// A session's retained outbound frame log — the unit of session
/// takeover. Every frame the session produces is appended here (and
/// *delivered* to subscribed connections by the event loop); the log
/// outlives the socket that submitted it, so [`Frame::Attach`] can
/// replay from any cursor.
pub(crate) struct SessionLog {
    tenant: String,
    label: String,
    frames: Mutex<Vec<Frame>>,
    done: AtomicBool,
}

impl SessionLog {
    fn new(tenant: &str, label: &str) -> SessionLog {
        SessionLog {
            tenant: tenant.to_owned(),
            label: label.to_owned(),
            frames: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
        }
    }

    fn push(&self, frame: Frame) {
        self.frames.lock().expect("session log lock").push(frame);
    }

    /// Frames from `ix` onward (clones — the log is the source of truth).
    pub(crate) fn frames_from(&self, ix: usize) -> Vec<Frame> {
        let frames = self.frames.lock().expect("session log lock");
        frames.get(ix..).unwrap_or(&[]).to_vec()
    }

    /// Number of retained frames.
    pub(crate) fn len(&self) -> usize {
        self.frames.lock().expect("session log lock").len()
    }

    /// Has the terminal `SearchDone` been appended?
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }
}

/// State shared by the event loop, every session pump, and the handle.
pub(crate) struct DaemonState {
    config: ServeConfig,
    store: Option<Arc<Store>>,
    pool: EvalPool,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    /// Retained frame logs for every session the daemon has ever
    /// admitted (live and finished) — the replay source for `Attach`.
    logs: Mutex<HashMap<u64, Arc<SessionLog>>>,
    /// Completed search steps per tenant (live iterations are read from
    /// the session progress when metering admission).
    tenant_steps: Mutex<HashMap<String, u64>>,
    coalesce: CoalesceTable,
    /// Feasible children by spec and action path, shared by every session;
    /// a spec no session held between two idle points is dropped at the
    /// second.
    synth_memo: SynthMemo,
    mailbox: Mailbox,
    next_session: AtomicU64,
    total_admitted: AtomicU64,
    shutting_down: AtomicBool,
    checkpointed: AtomicU64,
}

impl DaemonState {
    /// Marks the daemon draining, cancels every live session, and wakes
    /// the event loop so it observes the flag immediately. Safe to call
    /// more than once.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        {
            let sessions = self.sessions.lock().expect("sessions lock");
            for entry in sessions.values() {
                entry.cancel.cancel();
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

    pub(crate) fn live_sessions(&self) -> usize {
        self.sessions.lock().expect("sessions lock").len()
    }

    pub(crate) fn checkpointed_count(&self) -> u64 {
        self.checkpointed.load(Ordering::SeqCst)
    }

    /// The retained log for a session, if the daemon ever admitted it.
    pub(crate) fn session_log(&self, session: u64) -> Option<Arc<SessionLog>> {
        self.logs
            .lock()
            .expect("session logs lock")
            .get(&session)
            .cloned()
    }

    /// Creates and retains the frame log for a freshly admitted session.
    pub(crate) fn register_log(&self, session: u64, tenant: &str, label: &str) -> Arc<SessionLog> {
        let log = Arc::new(SessionLog::new(tenant, label));
        self.logs
            .lock()
            .expect("session logs lock")
            .insert(session, Arc::clone(&log));
        log
    }

    /// Validates a [`Frame::Attach`]: the session must exist and belong
    /// to the attaching tenant. Counts the takeover in
    /// `syno_serve_attach_total` and returns the number of retained
    /// frames.
    pub(crate) fn attach_session(&self, tenant: &str, session: u64) -> Result<u64, String> {
        let Some(log) = self.session_log(session) else {
            return Err(format!("cannot attach: unknown session {session}"));
        };
        if log.tenant != tenant {
            return Err(format!(
                "cannot attach: session {session} is not owned by tenant '{tenant}'"
            ));
        }
        syno_telemetry::counter!("syno_serve_attach_total").inc();
        Ok(log.len() as u64)
    }

    /// Tenant-scoped cancel: any connection authenticated as the owning
    /// tenant may cancel (the session may have outlived the socket that
    /// submitted it). Cancelling an already-finished session is a no-op.
    pub(crate) fn cancel_session(&self, tenant: &str, session: u64) -> Result<(), String> {
        {
            let sessions = self.sessions.lock().expect("sessions lock");
            if let Some(entry) = sessions.get(&session) {
                if entry.tenant != tenant {
                    return Err(format!(
                        "session {session} is not owned by tenant '{tenant}'"
                    ));
                }
                entry.cancel.cancel();
                return Ok(());
            }
        }
        match self.session_log(session) {
            Some(log) if log.tenant == tenant => Ok(()), // already finished
            Some(_) => Err(format!(
                "session {session} is not owned by tenant '{tenant}'"
            )),
            None => Err(format!("cannot cancel: unknown session {session}")),
        }
    }

    /// A tenant's metered step usage: completed steps plus the live
    /// iterations of its running sessions.
    fn tenant_steps_used(&self, tenant: &str) -> u64 {
        let completed = *self
            .tenant_steps
            .lock()
            .expect("tenant steps lock")
            .get(tenant)
            .unwrap_or(&0);
        let live: u64 = self
            .sessions
            .lock()
            .expect("sessions lock")
            .values()
            .filter(|entry| entry.tenant == tenant)
            .map(|entry| entry.progress.scenarios()[0].iterations())
            .sum();
        completed + live
    }

    fn add_tenant_steps(&self, tenant: &str, steps: u64) {
        *self
            .tenant_steps
            .lock()
            .expect("tenant steps lock")
            .entry(tenant.to_owned())
            .or_insert(0) += steps;
    }

    pub(crate) fn status(&self) -> DaemonStatus {
        let mut tenants: HashMap<String, u64> = self
            .tenant_steps
            .lock()
            .expect("tenant steps lock")
            .clone();
        let sessions = self.sessions.lock().expect("sessions lock");
        let mut rows: Vec<SessionStatus> = Vec::with_capacity(sessions.len());
        for (id, entry) in sessions.iter() {
            let scenario = &entry.progress.scenarios()[0];
            let phases = entry.progress.phases();
            let log = self.session_log(*id);
            rows.push(SessionStatus {
                session: *id,
                tenant: entry.tenant.clone(),
                label: log.as_ref().map(|l| l.label.clone()).unwrap_or_default(),
                iterations: scenario.iterations(),
                total_iterations: scenario.total_iterations(),
                discovered: scenario.discovered(),
                candidates: scenario.candidates(),
                synth_ns: phases.synth_ns(),
                eval_ns: phases.eval_ns(),
                store_ns: phases.store_ns(),
                tune_ns: phases.tune_ns(),
            });
            *tenants.entry(entry.tenant.clone()).or_insert(0) +=
                scenario.iterations();
        }
        rows.sort_by_key(|row| row.session);
        let mut tenants: Vec<(String, u64)> = tenants.into_iter().collect();
        tenants.sort();
        DaemonStatus {
            active_sessions: rows.len() as u32,
            total_admitted: self.total_admitted.load(Ordering::SeqCst),
            shutting_down: self.shutting_down.load(Ordering::SeqCst),
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
                logs: Mutex::new(HashMap::new()),
                tenant_steps: Mutex::new(HashMap::new()),
                coalesce: CoalesceTable::new(),
                synth_memo: SynthMemo::new(),
                mailbox,
                next_session: AtomicU64::new(0),
                total_admitted: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
                checkpointed: AtomicU64::new(0),
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
