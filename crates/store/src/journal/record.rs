//! Journal records and their payload codec.

use super::sets::CandidateSet;
use syno_core::codec::{CodecError, Decoder, Encoder};

/// The journaled record kinds; the discriminant is the envelope tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum RecordKind {
    /// A candidate operator (content hash + encoded graph recipe).
    Candidate = 1,
    /// A proxy-training result for a candidate.
    ProxyScore = 2,
    /// One tuned latency for a candidate on one device/compiler pair.
    LatencyMeasurement = 3,
    /// A search scenario's journaled position.
    Checkpoint = 4,
    /// A named candidate collection.
    CandidateSet = 6,
}

impl RecordKind {
    const ALL: [RecordKind; 5] = [
        RecordKind::Candidate,
        RecordKind::ProxyScore,
        RecordKind::LatencyMeasurement,
        RecordKind::Checkpoint,
        RecordKind::CandidateSet,
    ];

    /// The wire tag byte of this kind.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<RecordKind> {
        RecordKind::ALL.into_iter().find(|kind| kind.tag() == tag)
    }
}

/// A search scenario's journaled position, written periodically by
/// `syno-search` and consumed by `SearchBuilder::resume_from`.
///
/// The `(label, spec_fingerprint)` pair identifies the scenario; `seed` pins
/// the MCTS rollout stream so a resumed run replays the same deterministic
/// candidate sequence (with evaluations recalled from the store instead of
/// recomputed).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The scenario label the checkpoint belongs to.
    pub label: String,
    /// [`OperatorSpec::fingerprint`](syno_core::spec::OperatorSpec::fingerprint)
    /// of the scenario's spec under its variable table.
    pub spec_fingerprint: u64,
    /// The MCTS seed the scenario ran with.
    pub seed: u64,
    /// Iterations completed when the checkpoint was written.
    pub iterations: u64,
}

/// The typed identity of a proxy score: which task family's proxy produced
/// it, and under which deterministic reduction-tree width.
///
/// A stored accuracy is only meaningful — and only recallable — under the
/// exact `(family, reduce_width)` pair that produced it: the family picks
/// the proxy task, and the width reshapes the deterministic FP summation
/// order, so either mismatch is a different value, not a cache hit. The
/// contract travels as one value (`put_score(hash, acc, &contract)` /
/// `score_for_contract(hash, &contract)`) so growing it later does not
/// break every call site again.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScoreContract {
    /// Task family whose proxy produced the score (e.g. `"vision"`,
    /// `"sequence"`).
    pub family: String,
    /// Reduction-tree width of the execution policy the score was computed
    /// under (`1` = serial accumulation).
    pub reduce_width: u32,
}

impl ScoreContract {
    /// A contract for `family` at `reduce_width`.
    pub fn new(family: impl Into<String>, reduce_width: u32) -> Self {
        ScoreContract {
            family: family.into(),
            reduce_width,
        }
    }
}

/// One decoded journal record (exposed for tooling and tests; the search
/// pipeline uses the typed `put_*`/lookup methods instead).
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A candidate operator.
    Candidate {
        /// Content hash (the store key).
        hash: u64,
        /// [`encode_graph`](syno_core::codec::encode_graph) bytes.
        graph: Vec<u8>,
    },
    /// A proxy accuracy for `hash`, with the contract it holds under.
    ProxyScore {
        /// Content hash of the scored candidate.
        hash: u64,
        /// Proxy accuracy in `[0, 1]` (`NaN` marks a journaled failure).
        accuracy: f64,
        /// The family and reduction width that produced the score; it is
        /// comparable, and recallable, under that contract only.
        contract: ScoreContract,
    },
    /// A tuned latency for `hash` on one device/compiler pair.
    LatencyMeasurement {
        /// Content hash of the tuned candidate.
        hash: u64,
        /// Device display name.
        device: String,
        /// Compiler display name.
        compiler: String,
        /// Latency in seconds.
        latency: f64,
    },
    /// A search checkpoint.
    Checkpoint(Checkpoint),
    /// A named candidate collection (latest per name wins).
    CandidateSet(CandidateSet),
}

impl Record {
    /// The kind tag of this record.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::Candidate { .. } => RecordKind::Candidate,
            Record::ProxyScore { .. } => RecordKind::ProxyScore,
            Record::LatencyMeasurement { .. } => RecordKind::LatencyMeasurement,
            Record::Checkpoint(_) => RecordKind::Checkpoint,
            Record::CandidateSet(_) => RecordKind::CandidateSet,
        }
    }

    /// Encodes the record's payload bytes (everything between the frame's
    /// length prefix and its checksum). Public so codec round-trip tests
    /// and tooling can frame records without a live store.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Record::Candidate { hash, graph } => {
                e.put_u64(*hash);
                e.put_bytes(graph);
            }
            Record::ProxyScore {
                hash,
                accuracy,
                contract,
            } => {
                e.put_u64(*hash);
                e.put_f64(*accuracy);
                e.put_str(&contract.family);
                e.put_u32(contract.reduce_width);
            }
            Record::LatencyMeasurement {
                hash,
                device,
                compiler,
                latency,
            } => {
                e.put_u64(*hash);
                e.put_str(device);
                e.put_str(compiler);
                e.put_f64(*latency);
            }
            Record::Checkpoint(cp) => {
                e.put_str(&cp.label);
                e.put_u64(cp.spec_fingerprint);
                e.put_u64(cp.seed);
                e.put_u64(cp.iterations);
            }
            Record::CandidateSet(set) => {
                e.put_str(set.name());
                e.put_str(set.lineage());
                e.put_seq(set.hashes(), |e, hash| e.put_u64(*hash));
            }
        }
        e.into_bytes()
    }

    /// Decodes one record payload of the given `kind`; the inverse of
    /// [`Record::encode_payload`]. Missing fields and trailing bytes are
    /// both rejected: no field is defaulted from a payload's length.
    pub fn decode_payload(kind: RecordKind, payload: &[u8]) -> Result<Record, CodecError> {
        let mut d = Decoder::new(payload);
        let record = match kind {
            RecordKind::Candidate => Record::Candidate {
                hash: d.get_u64()?,
                graph: d.get_bytes()?.to_vec(),
            },
            RecordKind::ProxyScore => Record::ProxyScore {
                hash: d.get_u64()?,
                accuracy: d.get_f64()?,
                contract: ScoreContract {
                    family: d.get_str()?,
                    reduce_width: d.get_u32()?,
                },
            },
            RecordKind::LatencyMeasurement => Record::LatencyMeasurement {
                hash: d.get_u64()?,
                device: d.get_str()?,
                compiler: d.get_str()?,
                latency: d.get_f64()?,
            },
            RecordKind::Checkpoint => Record::Checkpoint(Checkpoint {
                label: d.get_str()?,
                spec_fingerprint: d.get_u64()?,
                seed: d.get_u64()?,
                iterations: d.get_u64()?,
            }),
            RecordKind::CandidateSet => {
                let name = d.get_str()?;
                let lineage = d.get_str()?;
                let hashes = d.get_seq(8, Decoder::get_u64)?;
                // `new` re-normalizes (sort + dedup), so even a hand-built
                // record decodes into a canonical collection.
                Record::CandidateSet(CandidateSet::new(name, lineage, hashes))
            }
        };
        if d.remaining() != 0 {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after record payload",
                d.remaining()
            )));
        }
        Ok(record)
    }
}

