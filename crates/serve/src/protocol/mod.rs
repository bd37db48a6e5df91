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

//!
//! [`FrameKind`], [`Frame`] and the envelope live here; the structs a frame
//! carries and their field layouts in `payload`; the conversion from a
//! `syno_search::SearchEvent` in `event`.

mod event;
mod payload;

pub use self::{
    event::wire_event,
    payload::{
        DaemonStatus, SearchRequest, SessionStatus, WireCandidate, WireCandidateSet, WireEvent,
        WireStoreStats,
    },
};
use payload::{
    get_candidate_set, get_event, get_request, get_status, put_candidate_set, put_event,
    put_request, put_status,
};
use std::fmt;
use std::io::{Read, Write};
use syno_core::codec::{read_frame, write_frame, CodecError, Decoder, Encoder, FrameError};

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
            Frame::HelloAck { protocol } => e.put_u32(*protocol),
            Frame::SubmitSearch(req) => put_request(&mut e, req),
            Frame::Accepted { session } | Frame::Cancel { session } => e.put_u64(*session),
            Frame::Rejected { reason } => e.put_str(reason),
            Frame::Event { session, event } => {
                e.put_u64(*session);
                put_event(&mut e, event);
            }
            Frame::Status | Frame::Shutdown | Frame::Metrics => {}
            Frame::MetricsReply { dump } => e.put_str(dump),
            Frame::StatusReply(status) => put_status(&mut e, status),
            Frame::ShuttingDown { checkpointed } => e.put_u64(*checkpointed),
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
            Frame::DeriveReply { set } => put_candidate_set(&mut e, set),
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
            FrameKind::SubmitSearch => Frame::SubmitSearch(get_request(&mut d)?),
            FrameKind::Accepted => Frame::Accepted {
                session: d.get_u64()?,
            },
            FrameKind::Rejected => Frame::Rejected {
                reason: d.get_str()?,
            },
            FrameKind::Event => Frame::Event {
                session: d.get_u64()?,
                event: get_event(&mut d)?,
            },
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
            FrameKind::DeriveReply => Frame::DeriveReply {
                set: get_candidate_set(&mut d)?,
            },
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
