//! The daemon's readiness-driven connection loop.
//!
//! One thread multiplexes every client connection: non-blocking sockets
//! registered with `poll(2)` (a dependency-free FFI shim — the only libc
//! entry points used are `poll` itself and the `write` in
//! [`signal`](crate::signal), both already linked by std). The previous
//! transport spent two threads per client (reader + writer) plus a
//! polling drain watcher; this loop replaces all of them with exactly
//! one thread and zero sleeps.
//!
//! # Wakeups
//!
//! Threads outside the loop (session pumps, [`DaemonHandle::shutdown`]
//! (crate::DaemonHandle::shutdown)) talk to it through the [`Mailbox`]:
//! a message queue paired with a self-pipe. Posting pushes the message
//! and writes one byte to the pipe, which `poll` observes as readiness —
//! the loop wakes immediately, never on a timer. The pipe is
//! non-blocking and the pending flag coalesces bytes, so posting never
//! blocks and a burst of activity costs one wakeup.
//!
//! # Connection state machine
//!
//! Each connection owns a read buffer (incrementally framed with
//! [`split_frame`](syno_core::codec::split_frame)) and a write buffer
//! (flushed on `POLLOUT`). Inbound frames are handled synchronously on
//! the loop; outbound session frames are *deliveries* — copies from the
//! session records the connection holds, each with its own cursor — so a
//! dropped socket never loses a session ([`Frame::Attach`] replays from
//! any cursor) and a slow client only backs up its own buffer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A message posted to the loop's [`Mailbox`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum LoopMsg {
    /// A session's record grew: deliver the new frames to its subscribers.
    Activity(u64),
    /// A session finished (its terminal `SearchDone` is in its record):
    /// deliver, join its pump, then re-check the shutdown drain condition.
    Done(u64),
    /// The daemon was asked to shut down: re-check the drain condition.
    Shutdown,
}

/// The loop's inbox: a queue plus a self-pipe wakeup. Cheap to post from
/// any thread; the pending flag coalesces wakeup bytes so a burst of
/// messages costs one `poll` wakeup.
pub(crate) struct Mailbox {
    queue: Mutex<Vec<LoopMsg>>,
    pending: AtomicBool,
    #[cfg(unix)]
    wake: Mutex<std::os::unix::net::UnixStream>,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

/// The read half of the mailbox's self-pipe — owned by the loop, polled
/// alongside the sockets.
pub(crate) struct WakeReader {
    #[cfg(unix)]
    pipe: std::os::unix::net::UnixStream,
}

impl std::fmt::Debug for WakeReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeReader").finish_non_exhaustive()
    }
}

impl Mailbox {
    /// Builds the mailbox and its wake pipe.
    ///
    /// # Errors
    ///
    /// `Unsupported` on platforms without Unix sockets — the daemon's
    /// readiness loop needs `poll(2)`, so [`Daemon::bind`]
    /// (crate::Daemon::bind) fails up front there (the client and the
    /// protocol remain fully portable).
    pub(crate) fn new() -> std::io::Result<(Mailbox, WakeReader)> {
        #[cfg(unix)]
        {
            let (reader, writer) = std::os::unix::net::UnixStream::pair()?;
            reader.set_nonblocking(true)?;
            writer.set_nonblocking(true)?;
            Ok((
                Mailbox {
                    queue: Mutex::new(Vec::new()),
                    pending: AtomicBool::new(false),
                    wake: Mutex::new(writer),
                },
                WakeReader { pipe: reader },
            ))
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the serving daemon's readiness loop needs poll(2); \
                 this platform has no unix poll",
            ))
        }
    }

    /// Posts a message and wakes the loop (at most one pipe byte per
    /// drain cycle). Never blocks.
    pub(crate) fn post(&self, msg: LoopMsg) {
        self.queue.lock().expect("mailbox queue lock").push(msg);
        if !self.pending.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            {
                use std::io::Write;
                // A full pipe means a wakeup is already in flight.
                let _ = (&*self.wake.lock().expect("mailbox wake lock")).write(&[1]);
            }
        }
    }

    /// Takes every queued message. Clears the pending flag *first*, so a
    /// post racing the take re-arms the wakeup.
    pub(crate) fn drain(&self) -> Vec<LoopMsg> {
        self.pending.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.queue.lock().expect("mailbox queue lock"))
    }
}

#[cfg(unix)]
impl WakeReader {
    /// The raw descriptor for readiness registration.
    pub(crate) fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.pipe.as_raw_fd()
    }

    /// Discards every buffered wakeup byte.
    pub(crate) fn clear(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.pipe).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The `poll(2)` FFI shim — `std` links libc already, so declaring the
/// one entry point keeps the crate dependency-free.
#[cfg(unix)]
pub(crate) mod sys {
    /// Mirror of `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        /// The descriptor to watch.
        pub fd: i32,
        /// Requested readiness (`POLLIN` / `POLLOUT`).
        pub events: i16,
        /// Kernel-reported readiness.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// The descriptor errored.
    pub const POLLERR: i16 = 0x008;
    /// The peer hung up.
    pub const POLLHUP: i16 = 0x010;
    /// The descriptor is invalid.
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until at least one registered descriptor is ready,
    /// retrying on `EINTR` (a signal mid-poll must not kill the loop).
    pub fn poll_fds(fds: &mut [PollFd]) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd mirrors for the duration of the call.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, -1) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(unix)]
mod unix_loop {
    use super::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
    use super::{LoopMsg, WakeReader};
    use crate::daemon::{admit, handle_derive, DaemonState, Session};
    use crate::protocol::{Frame, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};
    use crate::transport::{Listener, Socket};
    use std::collections::HashMap;
    use std::io::{ErrorKind, Read, Write};
    use std::sync::Arc;
    use syno_core::codec::{put_frame, split_frame};

    /// One multiplexed connection.
    struct ConnState {
        sock: Socket,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
        /// Set by a version-matched `Hello`; frames before it close the
        /// connection.
        tenant: Option<String>,
        /// Session subscriptions: session id → its record and the index
        /// of the next frame to deliver.
        subs: HashMap<u64, (Arc<Session>, usize)>,
        /// Close once the write buffer drains (terminal frame queued).
        closing: bool,
        /// Tear down without flushing (peer gone or protocol breach).
        dead: bool,
    }

    impl ConnState {
        fn new(sock: Socket) -> ConnState {
            ConnState {
                sock,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                tenant: None,
                subs: HashMap::new(),
                closing: false,
                dead: false,
            }
        }

        /// Encodes a frame into the write buffer (flushed by the loop).
        fn queue(&mut self, frame: &Frame) {
            put_frame(&mut self.wbuf, frame.kind().tag(), &frame.encode());
        }

        /// Encodes a subscribed session's new frames (cursor onward) into
        /// the write buffer and advances the cursor; unsubscribes once
        /// the finished session is fully delivered.
        fn deliver(&mut self, id: u64) {
            let Some((session, cursor)) = self.subs.get_mut(&id) else {
                return;
            };
            let wbuf = &mut self.wbuf;
            let finished = session.read_from(cursor, |frame| {
                put_frame(wbuf, frame.kind().tag(), &frame.encode());
            });
            if finished {
                self.subs.remove(&id);
            }
        }

        /// Delivers every subscribed session to its current end.
        fn deliver_all(&mut self) {
            let sessions: Vec<u64> = self.subs.keys().copied().collect();
            for id in sessions {
                self.deliver(id);
            }
        }

        /// Writes as much of the buffer as the socket accepts.
        fn flush(&mut self) {
            while !self.wbuf.is_empty() {
                match self.sock.write(&self.wbuf) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => {
                        self.wbuf.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
        }

        /// Reads until `WouldBlock`, then handles every complete frame.
        fn fill_and_handle(&mut self, state: &Arc<DaemonState>) {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match self.sock.read(&mut buf) {
                    Ok(0) => {
                        // EOF: the client detached. Sessions outlive the
                        // socket — drop only the subscriptions; the records
                        // stay for a later `Attach`.
                        self.dead = true;
                        break;
                    }
                    Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            loop {
                match split_frame(&self.rbuf, MAX_FRAME_PAYLOAD) {
                    Ok(None) => break,
                    Ok(Some((tag, payload, consumed))) => {
                        let decoded = Frame::from_envelope(tag, payload);
                        self.rbuf.drain(..consumed);
                        match decoded {
                            Ok(frame) => self.handle(state, frame),
                            Err(error) => {
                                self.queue(&Frame::Error {
                                    session: 0,
                                    message: format!("undecodable frame (tag {tag}): {error}"),
                                });
                                self.closing = true;
                                break;
                            }
                        }
                        if self.dead || self.closing {
                            break;
                        }
                    }
                    Err(_) => {
                        // An oversized or corrupt envelope is unrecoverable
                        // — framing has lost sync.
                        self.dead = true;
                        break;
                    }
                }
            }
        }

        /// Handles one inbound frame synchronously on the loop.
        fn handle(&mut self, state: &Arc<DaemonState>, frame: Frame) {
            // Handshake first: anything else before `Hello` is a breach.
            let Some(tenant) = self.tenant.clone() else {
                match frame {
                    Frame::Hello { protocol, tenant } if protocol == PROTOCOL_VERSION => {
                        self.tenant = Some(tenant);
                        self.queue(&Frame::HelloAck {
                            protocol: PROTOCOL_VERSION,
                        });
                    }
                    Frame::Hello { protocol, .. } => {
                        self.queue(&Frame::Error {
                            session: 0,
                            message: format!(
                                "protocol version {protocol} not supported \
                                 (daemon speaks {PROTOCOL_VERSION})"
                            ),
                        });
                        self.closing = true;
                    }
                    _ => self.dead = true,
                }
                return;
            };
            match frame {
                Frame::Hello { .. } => {
                    self.queue(&Frame::Error {
                        session: 0,
                        message: "connection already completed its handshake".to_owned(),
                    });
                }
                Frame::SubmitSearch(request) => match admit(state, &tenant, &request) {
                    Ok((session, record)) => {
                        self.subs.insert(session, (record, 0));
                        self.queue(&Frame::Accepted { session });
                    }
                    Err(reason) => self.queue(&Frame::Rejected { reason }),
                },
                Frame::Attach { session, from_seq } => {
                    match state.owned(&tenant, session, "attach") {
                        Ok(record) => {
                            syno_telemetry::counter!("syno_serve_attach_total").inc();
                            let retained = record.len() as u64;
                            self.queue(&Frame::AttachReply {
                                session,
                                from_seq,
                                retained,
                            });
                            // Replay starts immediately: subscribe at the
                            // client's cursor (clamped to what exists) and
                            // deliver — the live stream follows through
                            // the same subscription.
                            let cursor = from_seq.min(retained) as usize;
                            self.subs.insert(session, (record, cursor));
                            self.deliver(session);
                        }
                        Err(message) => self.queue(&Frame::Error {
                            session: 0,
                            message,
                        }),
                    }
                }
                Frame::Cancel { session } => match state.cancel_session(&tenant, session) {
                    Ok(()) => {}
                    Err(message) => self.queue(&Frame::Error { session, message }),
                },
                Frame::Status => {
                    self.queue(&Frame::StatusReply(state.status()));
                }
                Frame::Metrics => {
                    self.queue(&Frame::MetricsReply {
                        dump: syno_telemetry::metrics::global().render(),
                    });
                }
                Frame::Shutdown => {
                    state.trigger_shutdown();
                    // The drain check below answers with `ShuttingDown`
                    // once every live session has wound down.
                }
                Frame::Derive {
                    op,
                    name,
                    left,
                    right,
                } => {
                    let reply = handle_derive(state, &op, &name, &left, &right);
                    self.queue(&reply);
                }
                other => {
                    self.queue(&Frame::Error {
                        session: 0,
                        message: format!("unexpected client frame: {}", other.kind()),
                    });
                }
            }
        }
    }

    /// Runs the loop until the shutdown drain completes: every live
    /// session finished and checkpointed, every client answered with its
    /// terminal `ShuttingDown`, every buffer flushed. Returns after
    /// joining the session pumps not joined at their `Done`.
    pub(crate) fn drive(state: Arc<DaemonState>, listener: Listener, wake: WakeReader) {
        let _ = listener.set_nonblocking(true);
        let mut conns: Vec<ConnState> = Vec::new();
        // `ShuttingDown` has been broadcast; stop accepting, exit once
        // every buffer drains.
        let mut broadcast = false;

        loop {
            let mut fds = Vec::with_capacity(2 + conns.len());
            fds.push(PollFd {
                fd: wake.raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            let listen_slot = if broadcast {
                None
            } else {
                fds.push(PollFd {
                    fd: listener.raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                Some(fds.len() - 1)
            };
            let base = fds.len();
            for conn in &conns {
                let mut events = POLLIN;
                if !conn.wbuf.is_empty() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.sock.raw_fd(),
                    events,
                    revents: 0,
                });
            }

            if poll_fds(&mut fds).is_err() {
                break;
            }

            // 1. Wakeups: clear the pipe, then deliver mailbox messages.
            if fds[0].revents != 0 {
                wake.clear();
            }
            for msg in state.mailbox().drain() {
                match msg {
                    LoopMsg::Activity(session) | LoopMsg::Done(session) => {
                        for conn in conns.iter_mut() {
                            conn.deliver(session);
                        }
                        if matches!(msg, LoopMsg::Done(_)) {
                            state.join_finished_pumps();
                        }
                    }
                    LoopMsg::Shutdown => {}
                }
            }

            // 2. Socket I/O (before accepting, so `fds` indices line up).
            for (i, conn) in conns.iter_mut().enumerate() {
                let revents = fds[base + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (POLLERR | POLLNVAL) != 0 {
                    conn.dead = true;
                    continue;
                }
                if revents & POLLOUT != 0 {
                    conn.flush();
                }
                if revents & (POLLIN | POLLHUP) != 0 {
                    conn.fill_and_handle(&state);
                }
            }

            // 3. Accept. New connections join the next poll round.
            if let Some(slot) = listen_slot {
                if fds[slot].revents != 0 {
                    loop {
                        match listener.accept_socket() {
                            Ok(sock) => {
                                if sock.set_nonblocking(true).is_ok() {
                                    conns.push(ConnState::new(sock));
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
            }

            // 4. Drain check: once the daemon is shutting down and the
            // last live session has wound down (final checkpoint
            // journaled, `SearchDone` in its record), answer every client
            // and close after the flush.
            let draining = !broadcast && state.is_shutting_down();
            if let Some(checkpointed) = draining.then(|| state.drained()).flatten() {
                for conn in conns.iter_mut() {
                    conn.deliver_all();
                    conn.queue(&Frame::ShuttingDown { checkpointed });
                    conn.closing = true;
                }
                broadcast = true;
            }

            // 5. Flush everything queued this round, then reap.
            for conn in conns.iter_mut() {
                if !conn.dead && !conn.wbuf.is_empty() {
                    conn.flush();
                }
            }
            conns.retain(|conn| {
                if conn.dead {
                    return false;
                }
                if conn.closing && conn.wbuf.is_empty() {
                    let _ = conn.sock.shutdown_socket();
                    return false;
                }
                true
            });

            if broadcast && conns.is_empty() {
                break;
            }
        }

        state.join_finished_pumps();
    }
}

#[cfg(unix)]
pub(crate) use unix_loop::drive;

/// Non-unix stub: unreachable in practice — [`Mailbox::new`] already
/// failed [`Daemon::bind`](crate::Daemon::bind) with `Unsupported`.
#[cfg(not(unix))]
pub(crate) fn drive(
    _state: std::sync::Arc<crate::daemon::DaemonState>,
    _listener: crate::transport::Listener,
    _wake: WakeReader,
) {
}
