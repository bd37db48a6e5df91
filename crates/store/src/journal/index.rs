//! The merged in-memory view every replayed record builds, and the
//! counters read off it.

use super::record::{Checkpoint, Record, ScoreContract};
use super::sets::CandidateSet;
use std::collections::{BTreeMap, HashMap};

/// Aggregate store counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct candidates journaled.
    pub candidates: u64,
    /// Candidates with a successful proxy score (NaN failure markers are
    /// excluded).
    pub scored: u64,
    /// Successful proxy scores per task family, sorted by family name
    /// (NaN failure markers are excluded) — the per-family breakdown the
    /// serving layer's `Status` reply reports to tenants.
    pub scores_by_family: Vec<(String, u64)>,
    /// Latency measurements journaled (device/compiler pairs).
    pub latency_measurements: u64,
    /// Live checkpoints (latest per scenario).
    pub checkpoints: u64,
    /// Named candidate sets (latest per name).
    pub candidate_sets: u64,
    /// Journal segments in the repository when this handle opened (own
    /// shard + canonical + other writers' shards); fan-in compaction
    /// brings it back toward 1.
    pub segments: u64,
    /// Repository size on disk, bytes: this writer's segment plus every
    /// other segment as of open.
    pub file_bytes: u64,
    /// Bytes discarded by torn-tail recovery when the store was opened.
    pub recovered_bytes: u64,
    /// Evaluations served from the store instead of recomputed, this
    /// process (not persisted).
    pub cache_hits: u64,
    /// Recall probes answered this process, hit or miss (not persisted);
    /// `cache_hits / lookups` is the warm-store hit ratio.
    pub lookups: u64,
}

/// Everything known about one candidate.
#[derive(Clone, Debug, Default)]
pub(super) struct CandidateEntry {
    /// [`encode_graph`](syno_core::codec::encode_graph) bytes; empty until
    /// the `Candidate` record is seen (a score may be replayed first).
    pub(super) graph: Vec<u8>,
    /// The latest journaled accuracy with the contract it holds under.
    pub(super) score: Option<(ScoreContract, f64)>,
    /// `(device, compiler) → latency seconds`, latest record wins.
    pub(super) latencies: HashMap<(String, String), f64>,
}

/// The merged in-memory view of every replayed segment. Its own type so
/// that fan-in compaction can rebuild a fresh view from disk and swap it in
/// atomically.
#[derive(Default)]
pub(super) struct ReplayState {
    /// Content hash → everything known about the candidate.
    pub(super) index: HashMap<u64, CandidateEntry>,
    /// First-journaled order of candidate hashes in repository order
    /// (compaction preserves it).
    pub(super) order: Vec<u64>,
    /// `(label, spec fingerprint) → latest checkpoint`.
    pub(super) checkpoints: HashMap<(String, u64), Checkpoint>,
    /// Named candidate sets, latest record per name; `BTreeMap` so
    /// compaction writes them in deterministic name order.
    pub(super) sets: BTreeMap<String, CandidateSet>,
}

impl ReplayState {
    /// The index entry for `hash`, created (and ordered) on first sight.
    fn entry(&mut self, hash: u64) -> &mut CandidateEntry {
        self.index.entry(hash).or_insert_with(|| {
            self.order.push(hash);
            CandidateEntry::default()
        })
    }

    /// Folds one record into the view; the latest record per key wins.
    pub(super) fn apply(&mut self, record: Record) {
        match record {
            Record::Candidate { hash, graph } => {
                let entry = self.entry(hash);
                if entry.graph.is_empty() {
                    entry.graph = graph;
                }
            }
            Record::ProxyScore {
                hash,
                accuracy,
                contract,
            } => self.entry(hash).score = Some((contract, accuracy)),
            Record::LatencyMeasurement {
                hash,
                device,
                compiler,
                latency,
            } => {
                self.entry(hash).latencies.insert((device, compiler), latency);
            }
            Record::Checkpoint(cp) => {
                self.checkpoints
                    .insert((cp.label.clone(), cp.spec_fingerprint), cp);
            }
            Record::CandidateSet(set) => {
                self.sets.insert(set.name().to_owned(), set);
            }
        }
    }

    /// The journaled accuracy for `hash` iff it was journaled under exactly
    /// `contract` — the one score lookup.
    pub(super) fn contract_score(&self, hash: u64, contract: &ScoreContract) -> Option<f64> {
        match &self.index.get(&hash)?.score {
            Some((journaled, accuracy)) if journaled == contract => Some(*accuracy),
            _ => None,
        }
    }

    /// Calls `emit` with every record of the live state, in the canonical
    /// order compaction writes: per candidate (first-seen order) its graph,
    /// score and latencies sorted by device/compiler; then checkpoints
    /// sorted by scenario; the sets by name. Equal histories therefore
    /// compact to equal bytes, and so does the compacted state itself.
    pub(super) fn for_each_live(&self, mut emit: impl FnMut(&Record)) {
        for &hash in &self.order {
            let entry = &self.index[&hash];
            if !entry.graph.is_empty() {
                emit(&Record::Candidate {
                    hash,
                    graph: entry.graph.clone(),
                });
            }
            if let Some((contract, accuracy)) = &entry.score {
                emit(&Record::ProxyScore {
                    hash,
                    accuracy: *accuracy,
                    contract: contract.clone(),
                });
            }
            let mut pairs: Vec<_> = entry.latencies.iter().collect();
            pairs.sort_by(|a, b| a.0.cmp(b.0));
            for ((device, compiler), &latency) in pairs {
                emit(&Record::LatencyMeasurement {
                    hash,
                    device: device.clone(),
                    compiler: compiler.clone(),
                    latency,
                });
            }
        }
        let mut checkpoints: Vec<_> = self.checkpoints.values().collect();
        checkpoints
            .sort_by(|a, b| (&a.label, a.spec_fingerprint).cmp(&(&b.label, b.spec_fingerprint)));
        for cp in checkpoints {
            emit(&Record::Checkpoint(cp.clone()));
        }
        for set in self.sets.values() {
            emit(&Record::CandidateSet(set.clone()));
        }
    }

    /// The counters this view determines; the per-handle ones (segments,
    /// bytes, hits) are left at zero for the store to fill in.
    pub(super) fn stats(&self) -> StoreStats {
        let mut by_family: BTreeMap<&str, u64> = BTreeMap::new();
        for entry in self.index.values() {
            if let Some((contract, accuracy)) = &entry.score {
                if !accuracy.is_nan() {
                    *by_family.entry(&contract.family).or_insert(0) += 1;
                }
            }
        }
        StoreStats {
            candidates: self.order.len() as u64,
            scored: by_family.values().sum(),
            scores_by_family: by_family
                .into_iter()
                .map(|(name, count)| (name.to_owned(), count))
                .collect(),
            latency_measurements: self
                .index
                .values()
                .map(|e| e.latencies.len() as u64)
                .sum(),
            checkpoints: self.checkpoints.len() as u64,
            candidate_sets: self.sets.len() as u64,
            ..StoreStats::default()
        }
    }
}
