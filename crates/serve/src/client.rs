//! `SynoClient` — the client handle for a running `syno-serve` daemon.
//!
//! One client is one authenticated connection for one tenant. A
//! background reader thread demultiplexes inbound frames: session-scoped
//! frames (`Event` / `SearchDone` / session `Error`) land in per-session
//! queues drained through [`ClientSession`], everything else
//! (`Accepted`, `Rejected`, `StatusReply`, `ShuttingDown`, connection
//! `Error`) lands in a control queue the blocking calls wait on.
//!
//! Sessions outlive connections. If the socket dies mid-stream, every
//! open session queue receives a terminal [`SessionMessage::Lost`]
//! carrying how many messages arrived on *this* connection — a fresh
//! client can then [`SynoClient::attach`] with that count as `from_seq`
//! and the daemon replays the missed tail bit-identically.

use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol::{
    DaemonStatus, Frame, ProtocolError, SearchRequest, WireCandidateSet, WireEvent,
    PROTOCOL_VERSION,
};
use crate::transport::{connect, Socket};

/// Errors a [`SynoClient`] call can surface.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed.
    Io(io::Error),
    /// A frame failed to encode or decode.
    Protocol(ProtocolError),
    /// The daemon refused the request; carries its reason.
    Rejected(String),
    /// The daemon reported a request-level error.
    Daemon(String),
    /// The daemon did not answer within the client's deadline.
    Timeout,
    /// The connection closed before the expected reply arrived.
    Disconnected,
    /// The connection died mid-stream with this session still open;
    /// `received` counts the messages delivered on this connection, so a
    /// reconnect can [`attach`](SynoClient::attach) from where it left
    /// off.
    Lost {
        /// The session that lost its connection.
        session: u64,
        /// Session messages delivered on this connection before the loss.
        received: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport failed: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol failed: {e}"),
            ServeError::Rejected(reason) => write!(f, "daemon rejected the request: {reason}"),
            ServeError::Daemon(message) => write!(f, "daemon reported an error: {message}"),
            ServeError::Timeout => write!(f, "timed out waiting for the daemon"),
            ServeError::Disconnected => write!(f, "connection closed before the daemon replied"),
            ServeError::Lost { session, received } => write!(
                f,
                "connection lost with session {session} still open after \
                 {received} messages; reconnect and attach(session, {received}) \
                 to replay the rest"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for syno_core::error::SynoError {
    fn from(error: ServeError) -> Self {
        syno_core::error::SynoError::serve(error.to_string())
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

/// One message on a session's stream, in daemon emission order.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionMessage {
    /// A streamed search event.
    Event(WireEvent),
    /// The session's terminal frame; no further messages follow.
    Done {
        /// Why the run stopped
        /// ([`StopReason::name`](syno_search::StopReason::name) or
        /// `"error"`).
        stopped: String,
        /// MCTS iterations executed.
        steps: u64,
        /// Candidates in the final report.
        candidates: u64,
    },
    /// A session-scoped daemon error (the terminal `Done` still follows).
    Error(String),
    /// The connection died before the session finished. Terminal for
    /// this stream — but the session itself is still running on the
    /// daemon: reconnect and [`SynoClient::attach`] at `received` (plus
    /// any messages consumed on earlier connections) to resume.
    Lost {
        /// The session whose stream was severed.
        session: u64,
        /// Session messages delivered on this connection before the loss.
        received: u64,
    },
}

/// Per-session inbound queue, created lazily by whichever side touches
/// the session id first (the demux on an early `Event`, or
/// [`SynoClient::submit`] on `Accepted`), and removed once its terminal
/// `Done` is routed and its receiver taken, whichever comes second.
struct SessionQueue {
    tx: Sender<SessionMessage>,
    rx: Option<Receiver<SessionMessage>>,
    /// Session messages routed on this connection — the resume cursor a
    /// [`SessionMessage::Lost`] hands back for `attach`.
    received: u64,
    /// The terminal `Done` arrived; the session needs no loss notice.
    done: bool,
}

impl SessionQueue {
    fn new() -> SessionQueue {
        let (tx, rx) = channel();
        SessionQueue {
            tx,
            rx: Some(rx),
            received: 0,
            done: false,
        }
    }
}

struct Demux {
    sessions: Mutex<HashMap<u64, SessionQueue>>,
    control_tx: Sender<Frame>,
}

impl Demux {
    fn take_session_rx(&self, session: u64) -> Receiver<SessionMessage> {
        let mut sessions = self.sessions.lock().expect("session queues lock");
        let queue = sessions.entry(session).or_insert_with(SessionQueue::new);
        let rx = queue.rx.take().expect("session receiver already taken");
        if queue.done {
            sessions.remove(&session);
        }
        rx
    }

    fn send_session(&self, session: u64, message: SessionMessage, terminal: bool) {
        let mut sessions = self.sessions.lock().expect("session queues lock");
        let queue = sessions.entry(session).or_insert_with(SessionQueue::new);
        queue.received += 1;
        queue.done |= terminal;
        let _ = queue.tx.send(message);
        if queue.done && queue.rx.is_none() {
            sessions.remove(&session);
        }
    }

    /// How many session queues the connection holds.
    #[cfg(test)]
    fn queues(&self) -> usize {
        self.sessions.lock().expect("session queues lock").len()
    }

    fn route(&self, frame: Frame) {
        match frame {
            Frame::Event { session, event } => {
                self.send_session(session, SessionMessage::Event(event), false);
            }
            Frame::SearchDone {
                session,
                stopped,
                steps,
                candidates,
            } => {
                self.send_session(
                    session,
                    SessionMessage::Done {
                        stopped,
                        steps,
                        candidates,
                    },
                    true,
                );
            }
            Frame::Error { session, message } if session != 0 => {
                self.send_session(session, SessionMessage::Error(message), false);
            }
            other => {
                let _ = self.control_tx.send(other);
            }
        }
    }

    /// The connection died: hand every still-open session a terminal
    /// [`SessionMessage::Lost`] carrying its resume cursor.
    fn lost(&self) {
        let sessions = self.sessions.lock().expect("session queues lock");
        for (id, queue) in sessions.iter() {
            if !queue.done {
                let _ = queue.tx.send(SessionMessage::Lost {
                    session: *id,
                    received: queue.received,
                });
            }
        }
    }
}

/// A client connection to a `syno-serve` daemon, authenticated as one
/// tenant. Cheap to keep open; one client can run many concurrent
/// sessions.
pub struct SynoClient {
    writer: Mutex<Socket>,
    shutdown_conn: Socket,
    demux: Arc<Demux>,
    control_rx: Mutex<Receiver<Frame>>,
    reader: Option<thread::JoinHandle<()>>,
}

/// How long a blocking call waits for the daemon's reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

impl std::fmt::Debug for SynoClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynoClient").finish_non_exhaustive()
    }
}

impl SynoClient {
    /// Connects to a daemon (listen-spec syntax: `"unix:<path>"` or a TCP
    /// address) and completes the `Hello`/`HelloAck` handshake as
    /// `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`]/[`ServeError::Protocol`] on connection or
    /// handshake failure, [`ServeError::Daemon`] when the daemon refuses
    /// the protocol version.
    pub fn connect(addr: &str, tenant: &str) -> Result<SynoClient, ServeError> {
        let mut conn = connect(addr)?;
        Frame::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: tenant.to_owned(),
        }
        .write_to(&mut conn)?;
        match Frame::read_from(&mut conn)? {
            Some(Frame::HelloAck { .. }) => {}
            Some(Frame::Error { message, .. }) => return Err(ServeError::Daemon(message)),
            Some(_) => {
                return Err(ServeError::Daemon(
                    "daemon answered the handshake with an unexpected frame".to_owned(),
                ))
            }
            None => return Err(ServeError::Disconnected),
        }

        let writer = conn.try_clone()?;
        let shutdown_conn = conn.try_clone()?;
        let (control_tx, control_rx) = channel();
        let demux = Arc::new(Demux {
            sessions: Mutex::new(HashMap::new()),
            control_tx,
        });
        let reader_demux = Arc::clone(&demux);
        let mut reader_conn = conn;
        let reader = thread::Builder::new()
            .name("syno-client-reader".into())
            .spawn(move || {
                while let Ok(Some(frame)) = Frame::read_from(&mut reader_conn) {
                    reader_demux.route(frame);
                }
                // EOF or error: open sessions get a terminal `Lost` with
                // their resume cursor; closing the control sender wakes
                // blocked waiters with `Disconnected`.
                reader_demux.lost();
            })?;

        Ok(SynoClient {
            writer: Mutex::new(writer),
            shutdown_conn,
            demux,
            control_rx: Mutex::new(control_rx),
            reader: Some(reader),
        })
    }

    fn send(&self, frame: &Frame) -> Result<(), ServeError> {
        let mut writer = self.writer.lock().expect("writer lock");
        frame.write_to(&mut *writer)?;
        Ok(())
    }

    /// Sends `frame` and waits for the first control frame `reply`
    /// extracts an answer from.
    ///
    /// The control queue stays locked from the send to the reply. The
    /// daemon answers a connection's frames in order, so no other thread
    /// sharing this client can send a request, and take this one's reply
    /// for its own, until the reply is here.
    fn request<T>(
        &self,
        frame: &Frame,
        reply: impl Fn(Frame) -> Reply<T>,
    ) -> Result<T, ServeError> {
        let control = self.control_rx.lock().expect("control queue lock");
        self.send(frame)?;
        wait_control(&control, reply)
    }

    /// The handle for an admitted or attached session.
    fn session(&self, session: u64) -> ClientSession<'_> {
        ClientSession {
            client: self,
            session,
            rx: self.demux.take_session_rx(session),
        }
    }

    /// Submits one search session and waits for admission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] with the daemon's reason (admission cap,
    /// bad spec, shutdown, …); transport/timeout errors otherwise.
    pub fn submit(&self, request: &SearchRequest) -> Result<ClientSession<'_>, ServeError> {
        let session = self.request(&Frame::SubmitSearch(request.clone()), |frame| match frame {
            Frame::Accepted { session } => Some(Ok(session)),
            Frame::Rejected { reason } => Some(Err(ServeError::Rejected(reason))),
            _ => None,
        })?;
        Ok(self.session(session))
    }

    /// Reattaches to a session that outlived its original connection and
    /// replays its stream from `from_seq` (the number of session
    /// messages already consumed — a [`SessionMessage::Lost`] hands this
    /// back as `received`; across several reconnects, sum them). The
    /// daemon streams the retained tail bit-identically, then the live
    /// remainder.
    ///
    /// One connection can drive a session id through at most one
    /// [`ClientSession`]; attach from a *fresh* client after a loss.
    ///
    /// # Errors
    ///
    /// [`ServeError::Daemon`] when the session is unknown or owned by a
    /// different tenant; transport, timeout, or disconnection errors
    /// otherwise.
    pub fn attach(&self, session: u64, from_seq: u64) -> Result<ClientSession<'_>, ServeError> {
        self.request(&Frame::Attach { session, from_seq }, |frame| match frame {
            Frame::AttachReply { session: s, .. } if s == session => Some(Ok(())),
            other => daemon_error(other),
        })?;
        Ok(self.session(session))
    }

    /// Requests the daemon's status snapshot (live sessions + shared
    /// store statistics).
    ///
    /// # Errors
    ///
    /// Transport, timeout, or disconnection errors.
    pub fn status(&self) -> Result<DaemonStatus, ServeError> {
        self.request(&Frame::Status, |frame| match frame {
            Frame::StatusReply(status) => Some(Ok(status)),
            _ => None,
        })
    }

    /// Requests the daemon's live metrics dump — its process-global
    /// `syno-telemetry` registry rendered as Prometheus exposition text.
    /// The dump is deterministically sorted; it is empty when telemetry
    /// is disabled in the daemon process.
    ///
    /// # Errors
    ///
    /// Transport, timeout, or disconnection errors.
    pub fn metrics(&self) -> Result<String, ServeError> {
        self.request(&Frame::Metrics, |frame| match frame {
            Frame::MetricsReply { dump } => Some(Ok(dump)),
            _ => None,
        })
    }

    /// Fetches the named [`CandidateSet`](syno_store::CandidateSet) from
    /// the daemon's repository, as a [`WireCandidateSet`] in canonical
    /// member order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Daemon`] when no such set exists or the daemon has
    /// no store attached; transport, timeout, or disconnection errors
    /// otherwise.
    pub fn candidate_set(&self, name: &str) -> Result<WireCandidateSet, ServeError> {
        self.derive_request("get", name, "", "")
    }

    /// Derives a new named set in the daemon's repository: `op` is
    /// `"union"`, `"intersection"`, or `"difference"` over the sets
    /// `left` and `right`. The daemon journals the result (and its
    /// lineage) and returns it; repeat derives of the same inputs are
    /// deterministic.
    ///
    /// # Errors
    ///
    /// [`ServeError::Daemon`] on an unknown op or set name, or when the
    /// daemon has no store attached; transport, timeout, or
    /// disconnection errors otherwise.
    pub fn derive(
        &self,
        op: &str,
        name: &str,
        left: &str,
        right: &str,
    ) -> Result<WireCandidateSet, ServeError> {
        self.derive_request(op, name, left, right)
    }

    fn derive_request(
        &self,
        op: &str,
        name: &str,
        left: &str,
        right: &str,
    ) -> Result<WireCandidateSet, ServeError> {
        let derive = Frame::Derive {
            op: op.to_owned(),
            name: name.to_owned(),
            left: left.to_owned(),
            right: right.to_owned(),
        };
        self.request(&derive, |frame| match frame {
            Frame::DeriveReply { set } => Some(Ok(set)),
            other => daemon_error(other),
        })
    }

    /// Requests a graceful daemon shutdown and waits for the terminal
    /// `ShuttingDown`; returns the number of sessions the daemon
    /// checkpointed during the drain.
    ///
    /// # Errors
    ///
    /// Transport, timeout, or disconnection errors.
    pub fn shutdown(&self) -> Result<u64, ServeError> {
        self.request(&Frame::Shutdown, shutting_down)
    }

    /// Waits for the daemon-initiated terminal `ShuttingDown` frame
    /// (e.g. after another connection — or SIGINT — triggered the
    /// shutdown); returns the checkpointed-session count.
    ///
    /// # Errors
    ///
    /// Transport, timeout, or disconnection errors.
    pub fn wait_shutdown(&self) -> Result<u64, ServeError> {
        let control = self.control_rx.lock().expect("control queue lock");
        wait_control(&control, shutting_down)
    }
}

/// What a reply extractor makes of one control frame: `None` for a frame
/// that is not the awaited reply, else the call's outcome.
type Reply<T> = Option<Result<T, ServeError>>;

/// The terminal `ShuttingDown` frame's checkpointed-session count.
fn shutting_down(frame: Frame) -> Reply<u64> {
    match frame {
        Frame::ShuttingDown { checkpointed } => Some(Ok(checkpointed)),
        _ => None,
    }
}

/// A connection-scoped daemon error, the refusal of a request that names
/// a session or a set.
fn daemon_error<T>(frame: Frame) -> Reply<T> {
    match frame {
        Frame::Error {
            session: 0,
            message,
        } => Some(Err(ServeError::Daemon(message))),
        _ => None,
    }
}

/// Waits on the control queue for the first frame `reply` extracts an
/// answer from, dropping the control frames it does not.
fn wait_control<T>(
    control: &Receiver<Frame>,
    reply: impl Fn(Frame) -> Reply<T>,
) -> Result<T, ServeError> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ServeError::Timeout);
        }
        match control.recv_timeout(left) {
            Ok(frame) => {
                if let Some(answer) = reply(frame) {
                    return answer;
                }
            }
            Err(RecvTimeoutError::Timeout) => return Err(ServeError::Timeout),
            Err(RecvTimeoutError::Disconnected) => return Err(ServeError::Disconnected),
        }
    }
}

impl Drop for SynoClient {
    fn drop(&mut self) {
        let _ = self.shutdown_conn.shutdown_socket();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One admitted search session: an iterator-style handle over its event
/// stream plus cooperative cancellation.
pub struct ClientSession<'a> {
    client: &'a SynoClient,
    session: u64,
    rx: Receiver<SessionMessage>,
}

impl std::fmt::Debug for ClientSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession")
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl ClientSession<'_> {
    /// The daemon-assigned session id.
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Blocks for the next message; `None` once a terminal
    /// [`SessionMessage::Done`] or [`SessionMessage::Lost`] has been
    /// consumed (or the connection died).
    pub fn recv(&self) -> Option<SessionMessage> {
        self.rx.recv().ok()
    }

    /// Blocking iterator over the session's messages, ending after the
    /// terminal [`SessionMessage::Done`] — or [`SessionMessage::Lost`],
    /// after which a fresh client can [`SynoClient::attach`] to resume.
    pub fn messages(&self) -> impl Iterator<Item = SessionMessage> + '_ {
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let message = self.rx.recv().ok()?;
            if matches!(
                message,
                SessionMessage::Done { .. } | SessionMessage::Lost { .. }
            ) {
                done = true;
            }
            Some(message)
        })
    }

    /// Asks the daemon to cooperatively cancel this session; the stream
    /// still ends with its terminal [`SessionMessage::Done`].
    ///
    /// # Errors
    ///
    /// Transport errors writing the cancel frame.
    pub fn cancel(&self) -> Result<(), ServeError> {
        self.client.send(&Frame::Cancel {
            session: self.session,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, ServeConfig};
    use syno_core::codec::encode_spec;
    use syno_core::prelude::*;

    /// A client that runs many sessions in a row holds a queue only for the
    /// one in flight: each is dropped once its `Done` is routed and its
    /// receiver taken.
    #[test]
    fn sequential_sessions_hold_at_most_one_queue() {
        let mut vars = VarTable::new();
        let [n, cin, cout, h, w] =
            ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 2), (cin, 3), (cout, 4), (h, 4), (w, 4), (k, 2)]);
        let dims =
            |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
        let spec = OperatorSpec::new(dims(cin), dims(cout));
        let config = ServeConfig {
            eval_workers: 1,
            progress_every: 0,
            ..ServeConfig::default()
        };
        let daemon = Daemon::bind("127.0.0.1:0", None, config).expect("daemon binds");
        let (handle, daemon_thread) = daemon.spawn();
        let client = SynoClient::connect(handle.addr(), "queues").expect("client connects");
        for seed in 1..=50 {
            let request = SearchRequest {
                label: format!("queues-{seed}"),
                spec: encode_spec(&vars, &spec),
                family: "vision".to_owned(),
                iterations: 2,
                seed,
                progress_every: 0,
                max_steps: 0,
                train_steps: 1,
                train_batch: 2,
                eval_batches: 1,
                resume: false,
            };
            let session = client.submit(&request).expect("session admitted");
            assert!(client.demux.queues() <= 1);
            let last = session.messages().last();
            assert!(matches!(last, Some(SessionMessage::Done { .. })), "{last:?}");
            assert_eq!(client.demux.queues(), 0, "session {seed} left its queue");
        }
        client.shutdown().expect("daemon acknowledges shutdown");
        drop(client);
        daemon_thread.join().expect("daemon exits");
        drop(handle);
    }
}
