//! Typed frames over the core record envelope.
//!
//! `syno_core::codec` owns the *envelope* — the tagged, length-prefixed,
//! checksummed `[tag u8][len u32][payload][checksum u32]` layout shared
//! with the store journal. This module owns what the wire makes of it: the
//! tag byte is a [`FrameKind`], a payload is at most
//! [`MAX_FRAME_PAYLOAD`] bytes, and every kind gets a typed [`Frame`]
//! variant with a versioned binary encoding built from the same
//! [`Encoder`]/[`Decoder`] primitives as the spec and graph codecs. Each
//! payload leads with [`PROTOCOL_VERSION`], so a peer speaking a different
//! protocol revision fails with a typed version error instead of misreading
//! fields.
//!
//! Encoding is total (every [`Frame`] value encodes) and decoding is
//! exact: `decode(encode(f)) == f` for every frame — the property the
//! round-trip suite in `tests/protocol_properties.rs` drives per kind.

use std::fmt;
use std::io::{Read, Write};
use syno_core::codec::{read_frame, write_frame, CodecError, Decoder, Encoder, FrameError};
use syno_store::StoreStats;

/// Version of the wire protocol. Every typed frame payload leads with this
/// value; a daemon and client negotiate it in the `Hello`/`HelloAck`
/// exchange and reject mismatches loudly instead of misreading bytes.
pub const PROTOCOL_VERSION: u32 = 4;

/// Hard ceiling on one wire frame's payload size (16 MiB). A length prefix
/// read off a socket is attacker-controlled input; refusing oversized
/// frames keeps a corrupt or malicious peer from forcing an unbounded
/// allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The envelope tag of one wire frame, as exchanged between `syno-serve`
/// and its clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[non_exhaustive]
pub enum FrameKind {
    /// Client → server: protocol version + tenant identity (first frame).
    Hello = 0,
    /// Server → client: handshake accepted.
    HelloAck = 1,
    /// Client → server: submit one search session.
    SubmitSearch = 2,
    /// Server → client: session admitted; carries the session id.
    Accepted = 3,
    /// Server → client: session refused (admission control, bad spec, …).
    Rejected = 4,
    /// Server → client: one streamed search event for a session.
    Event = 5,
    /// Client → server: cooperatively cancel a session.
    Cancel = 6,
    /// Client → server: request daemon + store status.
    Status = 7,
    /// Server → client: the status snapshot.
    StatusReply = 8,
    /// Client → server: request a graceful daemon shutdown.
    Shutdown = 9,
    /// Server → client: terminal frame — the daemon is draining and has
    /// checkpointed live sessions; no further frames follow.
    ShuttingDown = 10,
    /// Server → client: terminal frame of one session's event stream.
    SearchDone = 11,
    /// Server → client: a request-level error that did not kill the
    /// connection.
    Error = 12,
    /// Client → server: request the daemon's live metrics dump.
    Metrics = 13,
    /// Server → client: the metrics dump (Prometheus exposition text).
    MetricsReply = 14,
    /// Client → server: fetch a named candidate set, or derive one via a
    /// union/intersection/difference over two existing sets.
    Derive = 15,
    /// Server → client: the (possibly freshly derived) candidate set.
    DeriveReply = 16,
    /// Client → server: take over an existing session's event stream,
    /// replaying retained frames from a client-supplied sequence number.
    Attach = 17,
    /// Server → client: the takeover is accepted; retained frames follow.
    AttachReply = 18,
}

impl FrameKind {
    /// Every frame kind, in tag order (for exhaustive round-trip tests).
    pub const ALL: [FrameKind; 19] = [
        FrameKind::Hello,
        FrameKind::HelloAck,
        FrameKind::SubmitSearch,
        FrameKind::Accepted,
        FrameKind::Rejected,
        FrameKind::Event,
        FrameKind::Cancel,
        FrameKind::Status,
        FrameKind::StatusReply,
        FrameKind::Shutdown,
        FrameKind::ShuttingDown,
        FrameKind::SearchDone,
        FrameKind::Error,
        FrameKind::Metrics,
        FrameKind::MetricsReply,
        FrameKind::Derive,
        FrameKind::DeriveReply,
        FrameKind::Attach,
        FrameKind::AttachReply,
    ];

    /// The wire tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<FrameKind> {
        FrameKind::ALL.get(tag as usize).copied()
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors surfaced while speaking the typed protocol.
#[derive(Debug)]
pub enum ProtocolError {
    /// The frame envelope failed (transport, truncation, checksum, …).
    Frame(FrameError),
    /// A payload field failed to decode.
    Codec(CodecError),
    /// The peer speaks a different protocol revision.
    Version {
        /// The version the peer declared.
        got: u32,
    },
    /// The payload decoded but violates the protocol (bad enum tag, …).
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Frame(e) => write!(f, "frame layer failed: {e}"),
            ProtocolError::Codec(e) => write!(f, "payload decode failed: {e}"),
            ProtocolError::Version { got } => write!(
                f,
                "peer speaks protocol version {got}, this build speaks {PROTOCOL_VERSION}"
            ),
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        ProtocolError::Frame(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// One search submission: everything the daemon needs to start a
/// [`SearchRun`](syno_search::SearchRun) for a tenant.
///
/// The spec travels as `syno_core::codec::encode_spec` bytes (variable
/// table included), so the daemon reconstructs exactly the client's
/// operator specification. Zero-valued tuning fields mean "daemon
/// default".
#[derive(Clone, Debug, PartialEq)]
pub struct SearchRequest {
    /// Scenario label (also the checkpoint key in the shared store).
    pub label: String,
    /// `encode_spec` bytes: variable table + operator spec.
    pub spec: Vec<u8>,
    /// Proxy family name (`"vision"` / `"sequence"`), or empty to
    /// auto-detect from the spec.
    pub family: String,
    /// MCTS iterations (0 = daemon default).
    pub iterations: u32,
    /// MCTS seed.
    pub seed: u64,
    /// Progress/checkpoint cadence in iterations (0 = daemon default).
    pub progress_every: u64,
    /// Step-budget cap (0 = unlimited).
    pub max_steps: u64,
    /// Proxy training steps (0 = daemon default).
    pub train_steps: u32,
    /// Proxy training batch size (0 = daemon default).
    pub train_batch: u32,
    /// Proxy evaluation batches (0 = daemon default).
    pub eval_batches: u32,
    /// Resume from the label's journaled checkpoint in the daemon's store
    /// instead of starting fresh.
    pub resume: bool,
}

/// A fully evaluated candidate as it travels in
/// [`WireEvent::CacheHit`]/[`WireEvent::LatencyTuned`] frames.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCandidate {
    /// `encode_graph` bytes of the operator.
    pub graph: Vec<u8>,
    /// Proxy accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Naive FLOPs under valuation 0.
    pub flops: u128,
    /// Parameter count under valuation 0.
    pub params: u128,
    /// Tuned latency per requested device, in daemon device order.
    pub latencies: Vec<f64>,
}

/// A [`SearchEvent`](syno_search::SearchEvent) as it travels in an
/// [`Frame::Event`] frame. Scenario indices are per session; errors carry
/// a machine-readable kind tag plus the rendered message, so a tenant can
/// distinguish a lost evaluation (`"eval"`) from a proxy failure
/// (`"proxy"`) without parsing prose.
#[derive(Clone, Debug, PartialEq)]
pub enum WireEvent {
    /// MCTS completed a rollout to a new distinct operator.
    CandidateFound {
        /// Scenario index within the session.
        scenario: u32,
        /// Stable candidate id (`PGraph::content_hash`).
        id: u64,
    },
    /// The accuracy proxy finished training the candidate.
    ProxyScored {
        /// Scenario index within the session.
        scenario: u32,
        /// Candidate id.
        id: u64,
        /// Proxy accuracy in `[0, 1]`.
        accuracy: f64,
    },
    /// The evaluation was recalled from the shared warm store.
    CacheHit {
        /// Scenario index within the session.
        scenario: u32,
        /// Candidate id.
        id: u64,
        /// The recalled, fully evaluated candidate.
        candidate: WireCandidate,
    },
    /// The compiler simulator tuned the candidate on every device.
    LatencyTuned {
        /// Scenario index within the session.
        scenario: u32,
        /// Candidate id.
        id: u64,
        /// The finished candidate record.
        candidate: WireCandidate,
    },
    /// A candidate could not be evaluated.
    CandidateSkipped {
        /// Scenario index within the session.
        scenario: u32,
        /// Candidate id.
        id: u64,
        /// Error kind tag: `"eval"`, `"proxy"`, `"worker"`, or `"other"`.
        kind: String,
        /// Rendered error message.
        message: String,
    },
    /// The scenario's position was journaled to the shared store.
    CheckpointWritten {
        /// Scenario index within the session.
        scenario: u32,
        /// Iterations completed at the checkpoint.
        iterations: u64,
    },
    /// Periodic per-scenario heartbeat.
    Progress {
        /// Scenario index within the session.
        scenario: u32,
        /// Iterations finished.
        iterations: u64,
        /// Iterations configured.
        total_iterations: u64,
        /// Distinct candidates discovered.
        discovered: u64,
    },
    /// A scenario finished.
    ScenarioFinished {
        /// Scenario index within the session.
        scenario: u32,
        /// Candidates the scenario contributed.
        candidates: u64,
    },
}

/// A named candidate collection as it travels in a [`Frame::DeriveReply`]
/// — the wire shape of [`syno_store::CandidateSet`]. Hashes are in the
/// set's canonical order (sorted ascending, deduplicated), so identical
/// sets encode to identical bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireCandidateSet {
    /// The set's repository name.
    pub name: String,
    /// Lineage string (`"run:<label>"`, `"union(a,b)"`, …).
    pub lineage: String,
    /// Member candidate ids (`PGraph::content_hash`), sorted ascending.
    pub hashes: Vec<u64>,
}

/// Per-session live counters inside a [`DaemonStatus`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionStatus {
    /// Session id.
    pub session: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Scenario label.
    pub label: String,
    /// MCTS iterations finished.
    pub iterations: u64,
    /// MCTS iterations configured.
    pub total_iterations: u64,
    /// Distinct candidates discovered.
    pub discovered: u64,
    /// Fully evaluated candidates kept.
    pub candidates: u64,
    /// Nanoseconds spent in tree search (selection + rollout synthesis).
    /// Phase counters are telemetry-derived and stay 0 while telemetry is
    /// disabled in the daemon process.
    pub synth_ns: u64,
    /// Nanoseconds spent in proxy training.
    pub eval_ns: u64,
    /// Nanoseconds spent in store lookups and appends.
    pub store_ns: u64,
    /// Nanoseconds spent in latency tuning.
    pub tune_ns: u64,
}

/// Store statistics as they travel in a [`Frame::StatusReply`] — the wire
/// shape of [`StoreStats`], per-family breakdown and hit ratio included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireStoreStats {
    /// Distinct candidates journaled.
    pub candidates: u64,
    /// Candidates with a successful proxy score.
    pub scored: u64,
    /// Successful scores per family, sorted by family name.
    pub scores_by_family: Vec<(String, u64)>,
    /// Latency measurements journaled.
    pub latency_measurements: u64,
    /// Live checkpoints.
    pub checkpoints: u64,
    /// Evaluations served from the store this process.
    pub cache_hits: u64,
    /// Recall probes answered this process, hit or miss.
    pub lookups: u64,
}

impl WireStoreStats {
    /// `cache_hits / lookups` — the fraction of recall probes served from
    /// the journal — or `None` before the first probe.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        if self.lookups == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / self.lookups as f64)
        }
    }
}

impl From<&StoreStats> for WireStoreStats {
    fn from(s: &StoreStats) -> Self {
        WireStoreStats {
            candidates: s.candidates,
            scored: s.scored,
            scores_by_family: s.scores_by_family.clone(),
            latency_measurements: s.latency_measurements,
            checkpoints: s.checkpoints,
            cache_hits: s.cache_hits,
            lookups: s.lookups,
        }
    }
}

/// The daemon's answer to a [`Frame::Status`] request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DaemonStatus {
    /// Sessions currently live.
    pub active_sessions: u32,
    /// Sessions admitted since the daemon started.
    pub total_admitted: u64,
    /// Is the daemon draining toward shutdown?
    pub shutting_down: bool,
    /// Live sessions, in admission order.
    pub sessions: Vec<SessionStatus>,
    /// Shared-store statistics, when a store is attached.
    pub store: Option<WireStoreStats>,
    /// Per-tenant accumulated step usage (completed sessions plus live
    /// iterations at snapshot time), sorted by tenant name — what
    /// [`ServeConfig::tenant_max_steps`](crate::ServeConfig::tenant_max_steps)
    /// admission metering charges against (protocol v4).
    pub tenants: Vec<(String, u64)>,
}

/// One typed protocol message — the payload of exactly one [`FrameKind`].
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: handshake (first frame on a connection).
    Hello {
        /// The client's protocol version.
        protocol: u32,
        /// Tenant identity (admission control is per tenant).
        tenant: String,
    },
    /// Server → client: handshake accepted.
    HelloAck {
        /// The server's protocol version.
        protocol: u32,
    },
    /// Client → server: submit one search session.
    SubmitSearch(SearchRequest),
    /// Server → client: session admitted.
    Accepted {
        /// The new session id.
        session: u64,
    },
    /// Server → client: session refused.
    Rejected {
        /// Why (admission control, bad spec, shutdown, …).
        reason: String,
    },
    /// Server → client: one streamed search event.
    Event {
        /// The session the event belongs to.
        session: u64,
        /// The event.
        event: WireEvent,
    },
    /// Client → server: cooperatively cancel a session.
    Cancel {
        /// The session to cancel.
        session: u64,
    },
    /// Client → server: request daemon + store status.
    Status,
    /// Server → client: the status snapshot.
    StatusReply(DaemonStatus),
    /// Client → server: request a graceful daemon shutdown.
    Shutdown,
    /// Server → client: terminal frame — live sessions have drained and
    /// been checkpointed; no further frames follow on this connection.
    ShuttingDown {
        /// Sessions checkpointed to the store during the drain.
        checkpointed: u64,
    },
    /// Server → client: terminal frame of one session's event stream.
    SearchDone {
        /// The finished session.
        session: u64,
        /// [`StopReason::name`](syno_search::StopReason::name), or
        /// `"error"` when the run failed outright.
        stopped: String,
        /// MCTS iterations executed.
        steps: u64,
        /// Candidates in the final report.
        candidates: u64,
    },
    /// Server → client: a request-level error that did not kill the
    /// connection (session 0 = connection-scoped).
    Error {
        /// The session the error concerns, or 0.
        session: u64,
        /// Rendered reason.
        message: String,
    },
    /// Client → server: request the daemon's live metrics dump.
    Metrics,
    /// Server → client: the metrics dump — the daemon's process-global
    /// `syno-telemetry` registry rendered as Prometheus exposition text
    /// (deterministically sorted; empty while telemetry is disabled in
    /// the daemon process).
    MetricsReply {
        /// The rendered dump.
        dump: String,
    },
    /// Client → server (protocol v3): fetch or derive a named candidate
    /// set from the daemon's repository. `op` is `"get"` (fetch `name`;
    /// `left`/`right` empty) or a [`syno_store::DeriveOp`] name
    /// (`"union"` / `"intersection"` / `"difference"`, deriving `name`
    /// from the sets `left` and `right` and journaling the result).
    Derive {
        /// The operation: `"get"`, `"union"`, `"intersection"`, or
        /// `"difference"`.
        op: String,
        /// The set to fetch, or the derived set's new name.
        name: String,
        /// Left input set name (empty for `"get"`).
        left: String,
        /// Right input set name (empty for `"get"`).
        right: String,
    },
    /// Server → client (protocol v3): the fetched or freshly derived
    /// candidate set.
    DeriveReply {
        /// The set, in canonical member order.
        set: WireCandidateSet,
    },
    /// Client → server (protocol v4): take over a session whose previous
    /// connection dropped. Sessions outlive sockets — the daemon retains
    /// every session's frame log, and a reconnecting client (same
    /// tenant) replays what it missed from `from_seq` onward.
    Attach {
        /// The session to take over.
        session: u64,
        /// Index of the first retained frame to replay (the count of
        /// session frames the client already received).
        from_seq: u64,
    },
    /// Server → client (protocol v4): attach accepted; the replay
    /// (every retained frame from `from_seq` onward, then the live
    /// stream) follows on this connection.
    AttachReply {
        /// The attached session.
        session: u64,
        /// Echo of the requested replay start.
        from_seq: u64,
        /// Frames retained for the session at attach time.
        retained: u64,
    },
}

fn put_u128(e: &mut Encoder, v: u128) {
    e.put_u64((v >> 64) as u64);
    e.put_u64(v as u64);
}

fn get_u128(d: &mut Decoder<'_>) -> Result<u128, CodecError> {
    let hi = d.get_u64()?;
    let lo = d.get_u64()?;
    Ok(((hi as u128) << 64) | lo as u128)
}

fn put_candidate(e: &mut Encoder, c: &WireCandidate) {
    e.put_bytes(&c.graph);
    e.put_f64(c.accuracy);
    put_u128(e, c.flops);
    put_u128(e, c.params);
    e.put_u32(c.latencies.len() as u32);
    for l in &c.latencies {
        e.put_f64(*l);
    }
}

fn get_candidate(d: &mut Decoder<'_>) -> Result<WireCandidate, ProtocolError> {
    let graph = d.get_bytes()?.to_vec();
    let accuracy = d.get_f64()?;
    let flops = get_u128(d)?;
    let params = get_u128(d)?;
    let n = d.get_u32()? as usize;
    let mut latencies = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        latencies.push(d.get_f64()?);
    }
    Ok(WireCandidate {
        graph,
        accuracy,
        flops,
        params,
        latencies,
    })
}

fn put_event(e: &mut Encoder, event: &WireEvent) {
    match event {
        WireEvent::CandidateFound { scenario, id } => {
            e.put_u8(0);
            e.put_u32(*scenario);
            e.put_u64(*id);
        }
        WireEvent::ProxyScored {
            scenario,
            id,
            accuracy,
        } => {
            e.put_u8(1);
            e.put_u32(*scenario);
            e.put_u64(*id);
            e.put_f64(*accuracy);
        }
        WireEvent::CacheHit {
            scenario,
            id,
            candidate,
        } => {
            e.put_u8(2);
            e.put_u32(*scenario);
            e.put_u64(*id);
            put_candidate(e, candidate);
        }
        WireEvent::LatencyTuned {
            scenario,
            id,
            candidate,
        } => {
            e.put_u8(3);
            e.put_u32(*scenario);
            e.put_u64(*id);
            put_candidate(e, candidate);
        }
        WireEvent::CandidateSkipped {
            scenario,
            id,
            kind,
            message,
        } => {
            e.put_u8(4);
            e.put_u32(*scenario);
            e.put_u64(*id);
            e.put_str(kind);
            e.put_str(message);
        }
        WireEvent::CheckpointWritten {
            scenario,
            iterations,
        } => {
            e.put_u8(5);
            e.put_u32(*scenario);
            e.put_u64(*iterations);
        }
        WireEvent::Progress {
            scenario,
            iterations,
            total_iterations,
            discovered,
        } => {
            e.put_u8(6);
            e.put_u32(*scenario);
            e.put_u64(*iterations);
            e.put_u64(*total_iterations);
            e.put_u64(*discovered);
        }
        WireEvent::ScenarioFinished {
            scenario,
            candidates,
        } => {
            e.put_u8(7);
            e.put_u32(*scenario);
            e.put_u64(*candidates);
        }
    }
}

fn get_event(d: &mut Decoder<'_>) -> Result<WireEvent, ProtocolError> {
    let tag = d.get_u8()?;
    let scenario = d.get_u32()?;
    Ok(match tag {
        0 => WireEvent::CandidateFound {
            scenario,
            id: d.get_u64()?,
        },
        1 => WireEvent::ProxyScored {
            scenario,
            id: d.get_u64()?,
            accuracy: d.get_f64()?,
        },
        2 => {
            let id = d.get_u64()?;
            WireEvent::CacheHit {
                scenario,
                id,
                candidate: get_candidate(d)?,
            }
        }
        3 => {
            let id = d.get_u64()?;
            WireEvent::LatencyTuned {
                scenario,
                id,
                candidate: get_candidate(d)?,
            }
        }
        4 => WireEvent::CandidateSkipped {
            scenario,
            id: d.get_u64()?,
            kind: d.get_str()?,
            message: d.get_str()?,
        },
        5 => WireEvent::CheckpointWritten {
            scenario,
            iterations: d.get_u64()?,
        },
        6 => WireEvent::Progress {
            scenario,
            iterations: d.get_u64()?,
            total_iterations: d.get_u64()?,
            discovered: d.get_u64()?,
        },
        7 => WireEvent::ScenarioFinished {
            scenario,
            candidates: d.get_u64()?,
        },
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown event tag {other}"
            )))
        }
    })
}

fn put_status(e: &mut Encoder, status: &DaemonStatus) {
    e.put_u32(status.active_sessions);
    e.put_u64(status.total_admitted);
    e.put_u8(u8::from(status.shutting_down));
    e.put_u32(status.sessions.len() as u32);
    for s in &status.sessions {
        e.put_u64(s.session);
        e.put_str(&s.tenant);
        e.put_str(&s.label);
        e.put_u64(s.iterations);
        e.put_u64(s.total_iterations);
        e.put_u64(s.discovered);
        e.put_u64(s.candidates);
        e.put_u64(s.synth_ns);
        e.put_u64(s.eval_ns);
        e.put_u64(s.store_ns);
        e.put_u64(s.tune_ns);
    }
    match &status.store {
        None => e.put_u8(0),
        Some(store) => {
            e.put_u8(1);
            e.put_u64(store.candidates);
            e.put_u64(store.scored);
            e.put_u32(store.scores_by_family.len() as u32);
            for (family, count) in &store.scores_by_family {
                e.put_str(family);
                e.put_u64(*count);
            }
            e.put_u64(store.latency_measurements);
            e.put_u64(store.checkpoints);
            e.put_u64(store.cache_hits);
            e.put_u64(store.lookups);
        }
    }
    e.put_u32(status.tenants.len() as u32);
    for (tenant, steps) in &status.tenants {
        e.put_str(tenant);
        e.put_u64(*steps);
    }
}

fn get_status(d: &mut Decoder<'_>) -> Result<DaemonStatus, ProtocolError> {
    let active_sessions = d.get_u32()?;
    let total_admitted = d.get_u64()?;
    let shutting_down = d.get_u8()? != 0;
    let n = d.get_u32()? as usize;
    let mut sessions = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        sessions.push(SessionStatus {
            session: d.get_u64()?,
            tenant: d.get_str()?,
            label: d.get_str()?,
            iterations: d.get_u64()?,
            total_iterations: d.get_u64()?,
            discovered: d.get_u64()?,
            candidates: d.get_u64()?,
            synth_ns: d.get_u64()?,
            eval_ns: d.get_u64()?,
            store_ns: d.get_u64()?,
            tune_ns: d.get_u64()?,
        });
    }
    let store = match d.get_u8()? {
        0 => None,
        1 => {
            let candidates = d.get_u64()?;
            let scored = d.get_u64()?;
            let families = d.get_u32()? as usize;
            let mut scores_by_family = Vec::with_capacity(families.min(1024));
            for _ in 0..families {
                let family = d.get_str()?;
                let count = d.get_u64()?;
                scores_by_family.push((family, count));
            }
            Some(WireStoreStats {
                candidates,
                scored,
                scores_by_family,
                latency_measurements: d.get_u64()?,
                checkpoints: d.get_u64()?,
                cache_hits: d.get_u64()?,
                lookups: d.get_u64()?,
            })
        }
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown store-presence tag {other}"
            )))
        }
    };
    let n = d.get_u32()? as usize;
    let mut tenants = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let tenant = d.get_str()?;
        let steps = d.get_u64()?;
        tenants.push((tenant, steps));
    }
    Ok(DaemonStatus {
        active_sessions,
        total_admitted,
        shutting_down,
        sessions,
        store,
        tenants,
    })
}

impl Frame {
    /// The envelope kind this frame travels as.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello { .. } => FrameKind::Hello,
            Frame::HelloAck { .. } => FrameKind::HelloAck,
            Frame::SubmitSearch(_) => FrameKind::SubmitSearch,
            Frame::Accepted { .. } => FrameKind::Accepted,
            Frame::Rejected { .. } => FrameKind::Rejected,
            Frame::Event { .. } => FrameKind::Event,
            Frame::Cancel { .. } => FrameKind::Cancel,
            Frame::Status => FrameKind::Status,
            Frame::StatusReply(_) => FrameKind::StatusReply,
            Frame::Shutdown => FrameKind::Shutdown,
            Frame::ShuttingDown { .. } => FrameKind::ShuttingDown,
            Frame::SearchDone { .. } => FrameKind::SearchDone,
            Frame::Error { .. } => FrameKind::Error,
            Frame::Metrics => FrameKind::Metrics,
            Frame::MetricsReply { .. } => FrameKind::MetricsReply,
            Frame::Derive { .. } => FrameKind::Derive,
            Frame::DeriveReply { .. } => FrameKind::DeriveReply,
            Frame::Attach { .. } => FrameKind::Attach,
            Frame::AttachReply { .. } => FrameKind::AttachReply,
        }
    }

    /// Encodes the payload bytes (version prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(PROTOCOL_VERSION);
        match self {
            Frame::Hello { protocol, tenant } => {
                e.put_u32(*protocol);
                e.put_str(tenant);
            }
            Frame::HelloAck { protocol } => {
                e.put_u32(*protocol);
            }
            Frame::SubmitSearch(req) => {
                e.put_str(&req.label);
                e.put_bytes(&req.spec);
                e.put_str(&req.family);
                e.put_u32(req.iterations);
                e.put_u64(req.seed);
                e.put_u64(req.progress_every);
                e.put_u64(req.max_steps);
                e.put_u32(req.train_steps);
                e.put_u32(req.train_batch);
                e.put_u32(req.eval_batches);
                e.put_u8(u8::from(req.resume));
            }
            Frame::Accepted { session } => {
                e.put_u64(*session);
            }
            Frame::Rejected { reason } => {
                e.put_str(reason);
            }
            Frame::Event { session, event } => {
                e.put_u64(*session);
                put_event(&mut e, event);
            }
            Frame::Cancel { session } => {
                e.put_u64(*session);
            }
            Frame::Status | Frame::Shutdown | Frame::Metrics => {}
            Frame::MetricsReply { dump } => {
                e.put_str(dump);
            }
            Frame::StatusReply(status) => {
                put_status(&mut e, status);
            }
            Frame::ShuttingDown { checkpointed } => {
                e.put_u64(*checkpointed);
            }
            Frame::SearchDone {
                session,
                stopped,
                steps,
                candidates,
            } => {
                e.put_u64(*session);
                e.put_str(stopped);
                e.put_u64(*steps);
                e.put_u64(*candidates);
            }
            Frame::Error { session, message } => {
                e.put_u64(*session);
                e.put_str(message);
            }
            Frame::Derive {
                op,
                name,
                left,
                right,
            } => {
                e.put_str(op);
                e.put_str(name);
                e.put_str(left);
                e.put_str(right);
            }
            Frame::DeriveReply { set } => {
                e.put_str(&set.name);
                e.put_str(&set.lineage);
                e.put_u32(set.hashes.len() as u32);
                for h in &set.hashes {
                    e.put_u64(*h);
                }
            }
            Frame::Attach { session, from_seq } => {
                e.put_u64(*session);
                e.put_u64(*from_seq);
            }
            Frame::AttachReply {
                session,
                from_seq,
                retained,
            } => {
                e.put_u64(*session);
                e.put_u64(*from_seq);
                e.put_u64(*retained);
            }
        }
        e.into_bytes()
    }

    /// Decodes a payload received under `kind`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Version`] when the payload's version prefix is not
    /// this build's; [`ProtocolError::Codec`]/[`Malformed`](ProtocolError::Malformed)
    /// when the bytes do not parse as `kind`'s payload.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut d = Decoder::new(payload);
        let version = d.get_u32()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::Version { got: version });
        }
        let frame = match kind {
            FrameKind::Hello => Frame::Hello {
                protocol: d.get_u32()?,
                tenant: d.get_str()?,
            },
            FrameKind::HelloAck => Frame::HelloAck {
                protocol: d.get_u32()?,
            },
            FrameKind::SubmitSearch => Frame::SubmitSearch(SearchRequest {
                label: d.get_str()?,
                spec: d.get_bytes()?.to_vec(),
                family: d.get_str()?,
                iterations: d.get_u32()?,
                seed: d.get_u64()?,
                progress_every: d.get_u64()?,
                max_steps: d.get_u64()?,
                train_steps: d.get_u32()?,
                train_batch: d.get_u32()?,
                eval_batches: d.get_u32()?,
                resume: d.get_u8()? != 0,
            }),
            FrameKind::Accepted => Frame::Accepted {
                session: d.get_u64()?,
            },
            FrameKind::Rejected => Frame::Rejected {
                reason: d.get_str()?,
            },
            FrameKind::Event => {
                let session = d.get_u64()?;
                Frame::Event {
                    session,
                    event: get_event(&mut d)?,
                }
            }
            FrameKind::Cancel => Frame::Cancel {
                session: d.get_u64()?,
            },
            FrameKind::Status => Frame::Status,
            FrameKind::StatusReply => Frame::StatusReply(get_status(&mut d)?),
            FrameKind::Shutdown => Frame::Shutdown,
            FrameKind::ShuttingDown => Frame::ShuttingDown {
                checkpointed: d.get_u64()?,
            },
            FrameKind::SearchDone => Frame::SearchDone {
                session: d.get_u64()?,
                stopped: d.get_str()?,
                steps: d.get_u64()?,
                candidates: d.get_u64()?,
            },
            FrameKind::Error => Frame::Error {
                session: d.get_u64()?,
                message: d.get_str()?,
            },
            FrameKind::Metrics => Frame::Metrics,
            FrameKind::MetricsReply => Frame::MetricsReply {
                dump: d.get_str()?,
            },
            FrameKind::Derive => Frame::Derive {
                op: d.get_str()?,
                name: d.get_str()?,
                left: d.get_str()?,
                right: d.get_str()?,
            },
            FrameKind::DeriveReply => {
                let name = d.get_str()?;
                let lineage = d.get_str()?;
                let n = d.get_u32()? as usize;
                let mut hashes = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    hashes.push(d.get_u64()?);
                }
                Frame::DeriveReply {
                    set: WireCandidateSet {
                        name,
                        lineage,
                        hashes,
                    },
                }
            }
            FrameKind::Attach => Frame::Attach {
                session: d.get_u64()?,
                from_seq: d.get_u64()?,
            },
            FrameKind::AttachReply => Frame::AttachReply {
                session: d.get_u64()?,
                from_seq: d.get_u64()?,
                retained: d.get_u64()?,
            },
        };
        if d.remaining() != 0 {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after {kind} payload",
                d.remaining()
            )));
        }
        Ok(frame)
    }

    /// Decodes what came out of one envelope: the tag byte names the kind.
    pub(crate) fn from_envelope(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
        let kind = FrameKind::from_tag(tag)
            .ok_or_else(|| ProtocolError::Malformed(format!("unknown frame kind {tag:#04x}")))?;
        Frame::decode(kind, payload)
    }

    /// Writes this frame to a stream (envelope + payload, flushed).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Frame`] on transport failure.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtocolError> {
        let span = syno_telemetry::span!("frame_encode");
        let payload = self.encode();
        syno_telemetry::histogram!("syno_serve_frame_encode_seconds")
            .observe_duration(span.elapsed());
        drop(span);
        write_frame(w, self.kind().tag(), &payload)?;
        Ok(())
    }

    /// Reads the next frame from a stream; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport failure, a torn, oversized or corrupt
    /// envelope, an unknown kind, a version mismatch, or an unparseable
    /// payload.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
        let Some((tag, payload)) = read_frame(r, MAX_FRAME_PAYLOAD)? else {
            return Ok(None);
        };
        let span = syno_telemetry::span!("frame_decode");
        let frame = Frame::from_envelope(tag, &payload);
        syno_telemetry::histogram!("syno_serve_frame_decode_seconds")
            .observe_duration(span.elapsed());
        frame.map(Some)
    }
}

/// Converts a [`SearchEvent`](syno_search::SearchEvent) into its wire
/// shape (graphs re-encoded with the graph codec, errors tagged by kind).
///
/// Returns `None` for event variants this protocol revision has no wire
/// shape for — `SearchEvent` is `#[non_exhaustive]`, and a daemon built
/// against a newer search crate must drop unknown events rather than
/// corrupt the stream.
pub fn wire_event(event: &syno_search::SearchEvent) -> Option<WireEvent> {
    use syno_core::codec::encode_graph;
    use syno_search::SearchEvent as E;
    let wire_candidate = |c: &syno_search::Candidate| WireCandidate {
        graph: encode_graph(&c.graph),
        accuracy: c.accuracy,
        flops: c.flops,
        params: c.params,
        latencies: c.latencies.clone(),
    };
    Some(match event {
        E::CandidateFound { scenario, id, .. } => WireEvent::CandidateFound {
            scenario: *scenario as u32,
            id: *id,
        },
        E::ProxyScored {
            scenario,
            id,
            accuracy,
        } => WireEvent::ProxyScored {
            scenario: *scenario as u32,
            id: *id,
            accuracy: *accuracy,
        },
        E::CacheHit {
            scenario,
            id,
            candidate,
        } => WireEvent::CacheHit {
            scenario: *scenario as u32,
            id: *id,
            candidate: wire_candidate(candidate),
        },
        E::LatencyTuned {
            scenario,
            id,
            candidate,
        } => WireEvent::LatencyTuned {
            scenario: *scenario as u32,
            id: *id,
            candidate: wire_candidate(candidate),
        },
        E::CandidateSkipped {
            scenario,
            id,
            error,
        } => {
            use syno_core::error::SynoError;
            let kind = match error {
                SynoError::Eval { .. } => "eval",
                SynoError::Proxy { .. } => "proxy",
                SynoError::Worker { .. } => "worker",
                _ => "other",
            };
            WireEvent::CandidateSkipped {
                scenario: *scenario as u32,
                id: *id,
                kind: kind.to_owned(),
                message: error.to_string(),
            }
        }
        E::CheckpointWritten {
            scenario,
            iterations,
        } => WireEvent::CheckpointWritten {
            scenario: *scenario as u32,
            iterations: *iterations,
        },
        E::Progress {
            scenario,
            iterations,
            total_iterations,
            discovered,
        } => WireEvent::Progress {
            scenario: *scenario as u32,
            iterations: *iterations,
            total_iterations: *total_iterations,
            discovered: *discovered,
        },
        E::ScenarioFinished {
            scenario,
            candidates,
        } => WireEvent::ScenarioFinished {
            scenario: *scenario as u32,
            candidates: *candidates as u64,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_payload_codec() {
        let frames = vec![
            Frame::Hello {
                protocol: PROTOCOL_VERSION,
                tenant: "vision-team".into(),
            },
            Frame::Status,
            Frame::Shutdown,
            Frame::Event {
                session: 7,
                event: WireEvent::CandidateSkipped {
                    scenario: 0,
                    id: 0xdead_beef,
                    kind: "eval".into(),
                    message: "evaluation failed: pool shut down".into(),
                },
            },
            Frame::Attach {
                session: 7,
                from_seq: 42,
            },
            Frame::AttachReply {
                session: 7,
                from_seq: 42,
                retained: 99,
            },
        ];
        for frame in frames {
            let decoded = Frame::decode(frame.kind(), &frame.encode()).unwrap();
            assert_eq!(frame, decoded);
        }
    }

    #[test]
    fn frame_kind_tags_are_stable() {
        for (index, kind) in FrameKind::ALL.iter().enumerate() {
            assert_eq!(kind.tag() as usize, index);
            assert_eq!(FrameKind::from_tag(kind.tag()), Some(*kind));
        }
        let unknown = FrameKind::ALL.len() as u8;
        assert_eq!(FrameKind::from_tag(unknown), None);
        // An envelope is indifferent to its tag; the protocol is not.
        let mut wire = Vec::new();
        write_frame(&mut wire, unknown, &Frame::Status.encode()).unwrap();
        let err = Frame::read_from(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err}");
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut e = Encoder::new();
        e.put_u32(PROTOCOL_VERSION + 1);
        let err = Frame::decode(FrameKind::Status, &e.into_bytes()).unwrap_err();
        assert!(matches!(err, ProtocolError::Version { got } if got == PROTOCOL_VERSION + 1));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Frame::Status.encode();
        payload.push(0xff);
        let err = Frame::decode(FrameKind::Status, &payload).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err}");
    }
}
