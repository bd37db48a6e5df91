//! Property tests for the serving wire protocol: for **every**
//! [`FrameKind`], randomized frames must survive `encode → decode`
//! exactly, must survive the full stream envelope
//! (`write_to → read_from`) exactly — including back-to-back frames on
//! one stream — and no truncated payload may decode.

use proptest::prelude::*;
use std::io::Cursor;
use syno_serve::protocol::FrameKind;
use syno_serve::{
    DaemonStatus, Frame, SearchRequest, SessionStatus, WireCandidate, WireCandidateSet, WireEvent,
    WireStoreStats,
};

/// Tiny deterministic value mixer so one `(kind, seed)` strategy sample
/// expands into a fully randomized frame of that kind.
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix(seed | 1)
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn small(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn real(&mut self) -> f64 {
        (self.small(2_000_001) as f64 - 1_000_000.0) / 1000.0
    }

    fn wide(&mut self) -> u128 {
        ((self.next() as u128) << 64) | self.next() as u128
    }

    fn text(&mut self, max: usize) -> String {
        let len = self.small(max as u64 + 1) as usize;
        (0..len)
            .map(|_| char::from(b'a' + (self.small(26) as u8)))
            .collect()
    }

    fn blob(&mut self, max: usize) -> Vec<u8> {
        let len = self.small(max as u64 + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn sample_candidate(mix: &mut Mix) -> WireCandidate {
    WireCandidate {
        graph: mix.blob(48),
        accuracy: mix.real().abs() % 1.0,
        flops: mix.wide(),
        params: mix.wide(),
        latencies: (0..mix.small(4)).map(|_| mix.real().abs()).collect(),
    }
}

fn sample_event(mix: &mut Mix) -> WireEvent {
    let scenario = mix.small(8) as u32;
    match mix.small(8) {
        0 => WireEvent::CandidateFound {
            scenario,
            id: mix.next(),
        },
        1 => WireEvent::ProxyScored {
            scenario,
            id: mix.next(),
            accuracy: mix.real().abs() % 1.0,
        },
        2 => WireEvent::CacheHit {
            scenario,
            id: mix.next(),
            candidate: sample_candidate(mix),
        },
        3 => WireEvent::LatencyTuned {
            scenario,
            id: mix.next(),
            candidate: sample_candidate(mix),
        },
        4 => WireEvent::CandidateSkipped {
            scenario,
            id: mix.next(),
            kind: ["eval", "proxy", "worker", "other"][mix.small(4) as usize].to_owned(),
            message: mix.text(40),
        },
        5 => WireEvent::CheckpointWritten {
            scenario,
            iterations: mix.next(),
        },
        6 => WireEvent::Progress {
            scenario,
            iterations: mix.next(),
            total_iterations: mix.next(),
            discovered: mix.next(),
        },
        _ => WireEvent::ScenarioFinished {
            scenario,
            candidates: mix.next(),
        },
    }
}

fn sample_status(mix: &mut Mix) -> DaemonStatus {
    let sessions = (0..mix.small(4))
        .map(|i| SessionStatus {
            session: i + 1,
            tenant: mix.text(12),
            label: mix.text(12),
            iterations: mix.next(),
            total_iterations: mix.next(),
            discovered: mix.next(),
            candidates: mix.next(),
            synth_ns: mix.next(),
            eval_ns: mix.next(),
            store_ns: mix.next(),
            tune_ns: mix.next(),
        })
        .collect();
    let store = if mix.small(2) == 0 {
        None
    } else {
        Some(WireStoreStats {
            candidates: mix.next(),
            scored: mix.next(),
            scores_by_family: (0..mix.small(3))
                .map(|_| (mix.text(10), mix.next()))
                .collect(),
            latency_measurements: mix.next(),
            checkpoints: mix.next(),
            cache_hits: mix.next(),
            lookups: mix.next(),
        })
    };
    let tenants = (0..mix.small(4))
        .map(|_| (mix.text(12), mix.next()))
        .collect();
    DaemonStatus {
        active_sessions: mix.small(100) as u32,
        total_admitted: mix.next(),
        shutting_down: mix.small(2) == 0,
        sessions,
        store,
        tenants,
    }
}

/// A randomized frame of exactly the requested kind.
fn sample_frame(kind: FrameKind, seed: u64) -> Frame {
    let mut mix = Mix::new(seed);
    match kind {
        FrameKind::Hello => Frame::Hello {
            protocol: mix.small(10) as u32,
            tenant: mix.text(24),
        },
        FrameKind::HelloAck => Frame::HelloAck {
            protocol: mix.small(10) as u32,
        },
        FrameKind::SubmitSearch => Frame::SubmitSearch(SearchRequest {
            label: mix.text(24),
            spec: mix.blob(64),
            family: ["", "vision", "sequence"][mix.small(3) as usize].to_owned(),
            iterations: mix.small(1000) as u32,
            seed: mix.next(),
            progress_every: mix.small(100),
            max_steps: mix.next(),
            train_steps: mix.small(100) as u32,
            train_batch: mix.small(64) as u32,
            eval_batches: mix.small(8) as u32,
            resume: mix.small(2) == 0,
        }),
        FrameKind::Accepted => Frame::Accepted { session: mix.next() },
        FrameKind::Rejected => Frame::Rejected {
            reason: mix.text(60),
        },
        FrameKind::Event => Frame::Event {
            session: mix.next(),
            event: sample_event(&mut mix),
        },
        FrameKind::Cancel => Frame::Cancel { session: mix.next() },
        FrameKind::Status => Frame::Status,
        FrameKind::StatusReply => Frame::StatusReply(sample_status(&mut mix)),
        FrameKind::Shutdown => Frame::Shutdown,
        FrameKind::ShuttingDown => Frame::ShuttingDown {
            checkpointed: mix.next(),
        },
        FrameKind::SearchDone => Frame::SearchDone {
            session: mix.next(),
            stopped: mix.text(16),
            steps: mix.next(),
            candidates: mix.next(),
        },
        FrameKind::Error => Frame::Error {
            session: mix.next(),
            message: mix.text(60),
        },
        FrameKind::Metrics => Frame::Metrics,
        FrameKind::MetricsReply => Frame::MetricsReply {
            dump: mix.text(200),
        },
        FrameKind::Derive => Frame::Derive {
            op: ["get", "union", "intersection", "difference"][mix.small(4) as usize].to_owned(),
            name: mix.text(24),
            left: mix.text(24),
            right: mix.text(24),
        },
        FrameKind::DeriveReply => {
            // Wire sets travel in canonical order (sorted + deduped).
            let mut hashes: Vec<u64> = (0..mix.small(8)).map(|_| mix.next()).collect();
            hashes.sort_unstable();
            hashes.dedup();
            Frame::DeriveReply {
                set: WireCandidateSet {
                    name: mix.text(24),
                    lineage: mix.text(40),
                    hashes,
                },
            }
        }
        FrameKind::Attach => Frame::Attach {
            session: mix.next(),
            from_seq: mix.next(),
        },
        FrameKind::AttachReply => Frame::AttachReply {
            session: mix.next(),
            from_seq: mix.next(),
            retained: mix.next(),
        },
    }
}

proptest! {
    /// decode(encode(f)) == f for a random frame of a random kind.
    #[test]
    fn payload_codec_round_trips((pick, seed) in (0usize..64, 0u64..u64::MAX)) {
        let kind = FrameKind::ALL[pick % FrameKind::ALL.len()];
        let frame = sample_frame(kind, seed);
        prop_assert_eq!(frame.kind(), kind);
        let decoded = Frame::decode(kind, &frame.encode())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(decoded, frame);
    }

    /// A whole conversation of random frames survives one stream: each
    /// `write_to` is read back by `read_from` in order, ending with a
    /// clean EOF.
    #[test]
    fn stream_envelope_round_trips_conversations(
        (count, seed) in (1usize..8, 0u64..u64::MAX)
    ) {
        let mut mix = Mix::new(seed);
        let frames: Vec<Frame> = (0..count)
            .map(|_| {
                let kind = FrameKind::ALL[mix.small(FrameKind::ALL.len() as u64) as usize];
                sample_frame(kind, mix.next())
            })
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            frame
                .write_to(&mut wire)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let mut cursor = Cursor::new(wire);
        for frame in &frames {
            let read = Frame::read_from(&mut cursor)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(read.as_ref(), Some(frame));
        }
        let eof = Frame::read_from(&mut cursor)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(eof, None);
    }

    /// No strict prefix of a payload decodes: truncation is always a
    /// typed error, never a silently different frame.
    #[test]
    fn truncated_payloads_never_decode(
        (pick, seed, frac) in (0usize..64, 0u64..u64::MAX, 0.0f64..1.0)
    ) {
        let kind = FrameKind::ALL[pick % FrameKind::ALL.len()];
        let payload = sample_frame(kind, seed).encode();
        let cut = ((payload.len() - 1) as f64 * frac) as usize;
        prop_assert!(Frame::decode(kind, &payload[..cut]).is_err());
    }
}

/// Exhaustive (non-property) sweep: every frame kind round-trips through
/// payload codec *and* stream envelope for a spread of seeds — no kind
/// can be forgotten by the samplers above.
#[test]
fn every_frame_kind_round_trips() {
    for kind in FrameKind::ALL {
        for seed in 0..16u64 {
            let frame = sample_frame(kind, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + seed);
            assert_eq!(frame.kind(), kind);
            let decoded = Frame::decode(kind, &frame.encode())
                .unwrap_or_else(|e| panic!("{kind} failed payload decode: {e}"));
            assert_eq!(decoded, frame, "{kind} payload round trip");
            let mut wire = Vec::new();
            frame.write_to(&mut wire).expect("write_to");
            let read = Frame::read_from(&mut Cursor::new(wire))
                .unwrap_or_else(|e| panic!("{kind} failed stream decode: {e}"))
                .expect("one frame on the stream");
            assert_eq!(read, frame, "{kind} stream round trip");
        }
    }
}

proptest! {
    /// No mutation of a valid payload of any kind — each 4-byte window
    /// overwritten with all ones, zero and a random word, and every
    /// truncation — panics the decoder or makes it allocate from a count:
    /// `Ok` or a typed `ProtocolError` (a panic or an abort fails the test,
    /// and the binary).
    #[test]
    fn mutated_payloads_decode_or_fail_typed(seed in 0u64..u64::MAX) {
        let mut mix = Mix::new(seed);
        for kind in FrameKind::ALL {
            let payload = sample_frame(kind, mix.next()).encode();
            for at in 0..payload.len().saturating_sub(3) {
                for word in [u32::MAX, 0, mix.next() as u32] {
                    let mut mutated = payload.clone();
                    mutated[at..at + 4].copy_from_slice(&word.to_le_bytes());
                    let _ = Frame::decode(kind, &mutated);
                }
            }
            for cut in 0..payload.len() {
                prop_assert!(Frame::decode(kind, &payload[..cut]).is_err());
            }
        }
    }
}

/// The five sequences of the wire payloads, each at its boundary: a count
/// one above what the remaining bytes could hold at the item's least width
/// is refused *at the count* (`UnexpectedEof` there — nothing reserved, no
/// item read); the largest count that could fit gets past that check, and
/// the exact count decodes.
#[test]
fn every_sequence_count_is_bounded_by_the_bytes_behind_it() {
    use syno_core::codec::CodecError;
    use syno_serve::ProtocolError;
    let text = |s: &str| s.to_owned();
    let status = Frame::StatusReply(DaemonStatus {
        active_sessions: 1,
        total_admitted: 1,
        shutting_down: false,
        sessions: vec![SessionStatus {
            session: 1,
            tenant: text("t"),
            label: text("l"),
            iterations: 2,
            total_iterations: 3,
            discovered: 4,
            candidates: 5,
            synth_ns: 6,
            eval_ns: 7,
            store_ns: 8,
            tune_ns: 9,
        }],
        store: Some(WireStoreStats {
            scores_by_family: vec![(text("vision"), 1)],
            ..WireStoreStats::default()
        }),
        tenants: vec![(text("t"), 2)],
    });
    let event = Frame::Event {
        session: 1,
        event: WireEvent::LatencyTuned {
            scenario: 0,
            id: 7,
            candidate: WireCandidate {
                graph: vec![1, 2, 3],
                accuracy: 0.5,
                flops: 10,
                params: 20,
                latencies: vec![1.0, 2.0],
            },
        },
    };
    let derive = Frame::DeriveReply {
        set: WireCandidateSet {
            name: text("s"),
            lineage: text("run:s"),
            hashes: vec![3, 5],
        },
    };
    let session_row = 9 * 8 + (4 + 1) + (4 + 1);
    // (frame, offset of the count after the version word, least item bytes)
    let sites = [
        (&event, 8 + 1 + 4 + 8 + (4 + 3) + 8 + 16 + 16, 8), // latencies
        (&status, 4 + 8 + 1, 80),                           // sessions
        (&status, 4 + 8 + 1 + 4 + session_row + 1 + 16, 12), // scores_by_family
        (&status, 4 + 8 + 1 + 4 + session_row + 1 + 16 + 4 + (4 + 6 + 8) + 32, 12), // tenants
        (&derive, (4 + 1) + (4 + 5), 8),                    // derive hashes
    ];
    for (frame, offset, min_item_bytes) in sites {
        let (kind, payload, at) = (frame.kind(), frame.encode(), 4 + offset);
        assert_eq!(&Frame::decode(kind, &payload).unwrap(), frame, "exact counts decode");
        let fits = (payload.len() - (at + 4)) / min_item_bytes;
        let refused_at_count = |count: usize| {
            let mut patched = payload.clone();
            patched[at..at + 4].copy_from_slice(&(count as u32).to_le_bytes());
            matches!(
                Frame::decode(kind, &patched),
                Err(ProtocolError::Codec(CodecError::UnexpectedEof { at: eof })) if eof == at
            )
        };
        assert!(refused_at_count(fits + 1), "{kind} site {at}");
        assert!(!refused_at_count(fits), "{kind} site {at}");
    }
}
