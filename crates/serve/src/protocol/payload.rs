//! The wire structs that travel inside frames, each with the `put_*` /
//! `get_*` pair that lays it out. Every sequence goes through
//! [`Encoder::put_seq`] / [`Decoder::get_seq`], so no count read off a
//! socket sizes anything the bytes that follow it could not fill.

use super::ProtocolError;
use syno_core::codec::{CodecError, Decoder, Encoder};
use syno_store::StoreStats;

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
    /// Proxy training steps (0 = daemon default). At most the daemon's
    /// value: a larger one is `Rejected`.
    pub train_steps: u32,
    /// Proxy training batch size (0 = daemon default). At most the daemon's
    /// value: a larger one is `Rejected`.
    pub train_batch: u32,
    /// Proxy evaluation batches (0 = daemon default). At most the daemon's
    /// value: a larger one is `Rejected`.
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
/// [`Frame::Event`](super::Frame::Event) frame. Scenario indices are per session; errors carry
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

/// A named candidate collection as it travels in a
/// [`Frame::DeriveReply`](super::Frame::DeriveReply) — the wire shape of [`syno_store::CandidateSet`]. Hashes are in the
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

/// Store statistics as they travel in a
/// [`Frame::StatusReply`](super::Frame::StatusReply) — the wire shape of [`StoreStats`], per-family breakdown and hit ratio included.
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

/// The daemon's answer to a [`Frame::Status`](super::Frame::Status) request.
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

pub(super) fn put_request(e: &mut Encoder, req: &SearchRequest) {
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

pub(super) fn get_request(d: &mut Decoder<'_>) -> Result<SearchRequest, CodecError> {
    Ok(SearchRequest {
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
    })
}

pub(super) fn put_candidate_set(e: &mut Encoder, set: &WireCandidateSet) {
    e.put_str(&set.name);
    e.put_str(&set.lineage);
    e.put_seq(&set.hashes, |e, hash| e.put_u64(*hash));
}

pub(super) fn get_candidate_set(d: &mut Decoder<'_>) -> Result<WireCandidateSet, CodecError> {
    Ok(WireCandidateSet {
        name: d.get_str()?,
        lineage: d.get_str()?,
        hashes: d.get_seq(8, Decoder::get_u64)?,
    })
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
    e.put_seq(&c.latencies, |e, latency| e.put_f64(*latency));
}

fn get_candidate(d: &mut Decoder<'_>) -> Result<WireCandidate, CodecError> {
    Ok(WireCandidate {
        graph: d.get_bytes()?.to_vec(),
        accuracy: d.get_f64()?,
        flops: get_u128(d)?,
        params: get_u128(d)?,
        latencies: d.get_seq(8, Decoder::get_f64)?,
    })
}

pub(super) fn put_event(e: &mut Encoder, event: &WireEvent) {
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

pub(super) fn get_event(d: &mut Decoder<'_>) -> Result<WireEvent, ProtocolError> {
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
        2 => WireEvent::CacheHit {
            scenario,
            id: d.get_u64()?,
            candidate: get_candidate(d)?,
        },
        3 => WireEvent::LatencyTuned {
            scenario,
            id: d.get_u64()?,
            candidate: get_candidate(d)?,
        },
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

/// A `(name, count)` table: scores per family, steps per tenant.
fn put_counts(e: &mut Encoder, counts: &[(String, u64)]) {
    e.put_seq(counts, |e, (name, count)| {
        e.put_str(name);
        e.put_u64(*count);
    });
}

fn get_counts(d: &mut Decoder<'_>) -> Result<Vec<(String, u64)>, CodecError> {
    d.get_seq(4 + 8, |d| Ok((d.get_str()?, d.get_u64()?)))
}

pub(super) fn put_status(e: &mut Encoder, status: &DaemonStatus) {
    e.put_u32(status.active_sessions);
    e.put_u64(status.total_admitted);
    e.put_u8(u8::from(status.shutting_down));
    e.put_seq(&status.sessions, |e, s| {
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
    });
    match &status.store {
        None => e.put_u8(0),
        Some(store) => {
            e.put_u8(1);
            e.put_u64(store.candidates);
            e.put_u64(store.scored);
            put_counts(e, &store.scores_by_family);
            e.put_u64(store.latency_measurements);
            e.put_u64(store.checkpoints);
            e.put_u64(store.cache_hits);
            e.put_u64(store.lookups);
        }
    }
    put_counts(e, &status.tenants);
}

pub(super) fn get_status(d: &mut Decoder<'_>) -> Result<DaemonStatus, ProtocolError> {
    let active_sessions = d.get_u32()?;
    let total_admitted = d.get_u64()?;
    let shutting_down = d.get_u8()? != 0;
    // A session row is nine `u64`s and two (possibly empty) strings.
    let sessions = d.get_seq(9 * 8 + 2 * 4, |d| {
        Ok::<_, CodecError>(SessionStatus {
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
        })
    })?;
    let store = match d.get_u8()? {
        0 => None,
        1 => {
            let candidates = d.get_u64()?;
            let scored = d.get_u64()?;
            Some(WireStoreStats {
                candidates,
                scored,
                scores_by_family: get_counts(d)?,
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
    Ok(DaemonStatus {
        active_sessions,
        total_admitted,
        shutting_down,
        sessions,
        store,
        tenants: get_counts(d)?,
    })
}
