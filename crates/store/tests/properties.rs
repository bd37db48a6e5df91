//! Property tests for the persistence layer: arbitrary small operators
//! produced by the real `Synthesis` driver must survive the encode → decode
//! round trip exactly — same rendering, same stable hashes — and must do so
//! through the journal as well as through the raw codec.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use syno_core::codec::{decode_graph, encode_graph};
use syno_core::prelude::*;
use syno_store::{CandidateSet, Record, RecordKind, StoreBuilder};

/// Deterministic fresh temp dir per call.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "syno-store-prop-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny deterministic value mixer: one sampled `u64` seed expands into the
/// strings/hashes of a full record (the vendored proptest shim has no
/// string strategies).
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

    fn text(&mut self, max: u64) -> String {
        let len = self.next() % (max + 1);
        (0..len)
            .map(|_| char::from(b'a' + (self.next() % 26) as u8))
            .collect()
    }
}

/// `[H] -> [H/s]` pooling-like scenario.
fn pool_space() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 16), (s, 2)]);
    vars.push_valuation(vec![(h, 32), (s, 2)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
    );
    (vars, spec)
}

/// `[N, C, H] -> [N, C, H]` identity-shaped scenario with two coefficients,
/// which exercises Unfold/Share/MatchWeight-heavy operators.
fn conv_space() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let c = vars.declare("C", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 2), (c, 4), (h, 12), (k, 3)]);
    let vars = vars.into_shared();
    let shape = TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h)]);
    let spec = OperatorSpec::new(shape.clone(), shape);
    (vars, spec)
}

/// All operators of the given space up to `max_steps` primitives.
fn operators(space: usize, max_steps: usize) -> Vec<PGraph> {
    let (vars, spec) = if space == 0 { pool_space() } else { conv_space() };
    Enumerator::new(SynthConfig::auto(&vars, max_steps))
        .synthesis(&vars, &spec)
        .take(64)
        .map(|r| r.expect("space is enumerable"))
        .collect()
}

proptest! {
    /// decode(encode(g)) reproduces the graph exactly: structure (render),
    /// semantic identity (state hash), and persisted key (content hash).
    #[test]
    fn codec_round_trips_synthesized_operators(
        (space, steps, pick) in (0usize..2, 2usize..4, 0usize..64)
    ) {
        let ops = operators(space, steps);
        prop_assert!(!ops.is_empty());
        let graph = &ops[pick % ops.len()];
        let bytes = encode_graph(graph);
        let back = decode_graph(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.render(), graph.render());
        prop_assert_eq!(back.state_hash(), graph.state_hash());
        prop_assert_eq!(back.content_hash(), graph.content_hash());
        prop_assert_eq!(back.len(), graph.len());
        prop_assert_eq!(back.weight_count(), graph.weight_count());
        prop_assert_eq!(back.is_complete(), graph.is_complete());
    }

    /// Every truncation of an encoding fails to decode — no prefix is
    /// silently accepted as a different graph.
    #[test]
    fn truncated_encodings_never_decode(
        (space, pick, frac) in (0usize..2, 0usize..64, 0.0f64..1.0)
    ) {
        let ops = operators(space, 3);
        let graph = &ops[pick % ops.len()];
        let bytes = encode_graph(graph);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_graph(&bytes[..cut]).is_err());
    }

    /// The journal preserves the same round-trip guarantee across a real
    /// write → reopen → read cycle.
    #[test]
    fn journal_round_trips_operators((steps, pick) in (2usize..4, 0usize..64)) {
        let ops = operators(0, steps);
        let graph = &ops[pick % ops.len()];
        let hash = graph.content_hash();
        let dir = temp_dir("roundtrip");
        {
            let store = StoreBuilder::new(&dir)
                .open()
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            store
                .put_candidate(hash, graph)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let store = StoreBuilder::new(&dir)
            .open()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back = store
            .graph(hash)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.render(), graph.render());
        prop_assert_eq!(back.content_hash(), hash);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `CandidateSet` records (codec v4) round-trip exactly — and because
    /// construction canonicalizes (sorts + dedups) the members, the same
    /// collection encodes to identical bytes regardless of input order.
    #[test]
    fn candidate_set_records_round_trip((seed, count) in (0u64..u64::MAX, 0usize..32)) {
        let mut mix = Mix::new(seed);
        let name = format!("set-{}", mix.text(20));
        let lineage = mix.text(40);
        // Bias toward collisions so dedup is actually exercised.
        let mut hashes: Vec<u64> = (0..count).map(|_| mix.next() % 97).collect();
        let set = CandidateSet::new(name.clone(), lineage.clone(), hashes.clone());
        let record = Record::CandidateSet(set.clone());
        let payload = record.encode_payload();
        let back = Record::decode_payload(RecordKind::CandidateSet, &payload)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let Record::CandidateSet(decoded) = &back else {
            return Err(TestCaseError::fail("decoded to a different record kind"));
        };
        prop_assert_eq!(decoded.name(), set.name());
        prop_assert_eq!(decoded.lineage(), set.lineage());
        prop_assert_eq!(decoded.hashes(), set.hashes());
        prop_assert_eq!(decoded.digest(), set.digest());
        prop_assert_eq!(back.encode_payload(), payload.clone());
        // Canonicalization: any permutation of the members encodes to the
        // same bytes (reverse is the worst-case permutation here).
        hashes.reverse();
        let permuted = CandidateSet::new(name, lineage, hashes);
        prop_assert_eq!(Record::CandidateSet(permuted).encode_payload(), payload);
    }
}

/// Exhaustive (non-property) sweep: *every* operator in the 3-step pooling
/// space round-trips, not just sampled ones.
#[test]
fn whole_pool_space_round_trips() {
    for graph in operators(0, 3) {
        let back = decode_graph(&encode_graph(&graph)).expect("decodes");
        assert_eq!(back.render(), graph.render());
        assert_eq!(back.content_hash(), graph.content_hash());
    }
}

/// One valid record of every kind, its strings and numbers drawn from `mix`.
fn sample_records(mix: &mut Mix) -> Vec<Record> {
    let graph = &operators(0, 3)[(mix.next() % 8) as usize];
    vec![
        Record::Candidate {
            hash: graph.content_hash(),
            graph: encode_graph(graph),
        },
        Record::ProxyScore {
            hash: mix.next(),
            accuracy: 0.5,
            contract: syno_store::ScoreContract::new(mix.text(12), 4),
        },
        Record::LatencyMeasurement {
            hash: mix.next(),
            device: mix.text(16),
            compiler: mix.text(8),
            latency: 1e-3,
        },
        Record::Checkpoint(syno_store::Checkpoint {
            label: mix.text(24),
            spec_fingerprint: mix.next(),
            seed: mix.next(),
            iterations: mix.next(),
        }),
        Record::CandidateSet(CandidateSet::new(
            mix.text(20),
            mix.text(40),
            (0..mix.next() % 8).map(|_| mix.next()).collect(),
        )),
    ]
}

proptest! {
    /// No mutation of a valid record payload — each 4-byte window overwritten
    /// with all ones, zero and a random word, and every truncation — panics
    /// the decoder or makes it allocate from a count: `Ok` or a typed
    /// `CodecError` (a panic or an abort fails the test, and the binary). A
    /// candidate's graph bytes, mutated the same way, go through
    /// `decode_graph` as `Store::graph` would send them.
    #[test]
    fn mutated_record_payloads_decode_or_fail_typed(seed in 0u64..u64::MAX) {
        let mut mix = Mix::new(seed);
        for record in sample_records(&mut mix) {
            let payload = record.encode_payload();
            let mut mutated = Vec::new();
            for at in 0..payload.len().saturating_sub(3) {
                for word in [u32::MAX, 0, mix.next() as u32] {
                    let mut bytes = payload.clone();
                    bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
                    mutated.push(bytes);
                }
            }
            mutated.extend((0..payload.len()).map(|cut| payload[..cut].to_vec()));
            for bytes in mutated {
                if let Ok(Record::Candidate { graph, .. }) =
                    Record::decode_payload(record.kind(), &bytes)
                {
                    let _ = decode_graph(&graph);
                }
            }
        }
    }
}

/// The set-hash sequence at its boundary: a count one above what the
/// remaining bytes hold at 8 bytes a hash is refused at the count, before
/// anything is reserved; the exact count decodes.
#[test]
fn set_hash_count_is_bounded_by_the_bytes_behind_it() {
    use syno_core::codec::CodecError;
    let set = CandidateSet::new("s".to_owned(), "run:s".to_owned(), vec![3, 5, 8]);
    let payload = Record::CandidateSet(set.clone()).encode_payload();
    let at = 4 + 1 + 4 + 5; // two length-prefixed strings
    let with_count = |count: u32| {
        let mut patched = payload.clone();
        patched[at..at + 4].copy_from_slice(&count.to_le_bytes());
        Record::decode_payload(RecordKind::CandidateSet, &patched)
    };
    assert_eq!(with_count(3), Ok(Record::CandidateSet(set)));
    assert_eq!(with_count(4), Err(CodecError::UnexpectedEof { at }));
    assert_eq!(with_count(u32::MAX), Err(CodecError::UnexpectedEof { at }));
}
