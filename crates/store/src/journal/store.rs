//! [`Store`] and [`StoreBuilder`]: opening a repository, the single write
//! path, the lookups, and fan-in compaction.

use super::index::{ReplayState, StoreStats};
use super::record::{Checkpoint, Record, ScoreContract};
use super::segment::{self, Segment};
use super::sets::{CandidateSet, DeriveOp};
use super::{io_err, StoreError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::Mutex;
use syno_core::codec;
use syno_core::graph::PGraph;

struct Inner {
    /// This writer's own, locked segment.
    segment: Segment,
    /// The repository directory holding every segment.
    dir: PathBuf,
    /// Shard writer name, or `None` for the canonical segment's writer.
    writer: Option<String>,
    /// Bytes of *other* segments replayed at open (or left by a fan-in
    /// compaction); together with the own segment's length this is the
    /// repository size.
    foreign_bytes: u64,
    /// Segment files seen at open.
    segments: u64,
    recovered_bytes: u64,
    cache_hits: u64,
    lookups: u64,
    state: ReplayState,
}

impl Inner {
    /// The one write path: append the record to this writer's segment, then
    /// fold it into the in-memory view — in that order, so the view never
    /// holds what the journal does not.
    fn commit(&mut self, record: Record) -> Result<(), StoreError> {
        self.segment.append(&record)?;
        self.state.apply(record);
        Ok(())
    }
}

/// Opens or creates a [`Store`].
///
/// The builder is inert until [`open`](StoreBuilder::open) is called, hence
/// the `#[must_use]`.
#[must_use = "a StoreBuilder does nothing until .open() is called"]
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    path: PathBuf,
    create: bool,
    sync_on_append: bool,
    writer: Option<String>,
}

impl StoreBuilder {
    /// Targets the repository directory `path` (the canonical journal
    /// segment lives at `path/journal.syno`; writer shards — see
    /// [`StoreBuilder::writer`] — at `path/journal-<writer>.syno`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        StoreBuilder {
            path: path.into(),
            create: true,
            sync_on_append: false,
            writer: None,
        }
    }

    /// Opens the repository as the named shard writer: appends go to
    /// `journal-<name>.syno` and only *that* segment is exclusively
    /// locked, so any number of differently-named writers (across
    /// processes) share one repository directory concurrently. Without a
    /// writer name the store is the canonical segment's single writer.
    ///
    /// Names are restricted to 1–64 characters of `[A-Za-z0-9_-]` so
    /// every shard file name parses back unambiguously.
    pub fn writer(mut self, name: impl Into<String>) -> Self {
        self.writer = Some(name.into());
        self
    }

    /// Whether to create the directory and journal when missing (default
    /// `true`); with `false`, opening a missing store fails.
    pub fn create(mut self, yes: bool) -> Self {
        self.create = yes;
        self
    }

    /// `fsync` the journal after every append (default `false`: appends are
    /// flushed to the OS but not forced to disk, so a *power* failure may
    /// tear the tail — which recovery handles — while a process crash loses
    /// nothing).
    pub fn sync_on_append(mut self, yes: bool) -> Self {
        self.sync_on_append = yes;
        self
    }

    /// Opens the repository, replaying **every** segment into the
    /// in-memory index in deterministic repository order (canonical
    /// segment first, then shards sorted by file name) and truncating a
    /// torn tail record of this writer's own segment if its last session
    /// crashed mid-append. Torn tails of *other* writers' shards are
    /// skipped without truncation — only their owner may rewrite them.
    ///
    /// Each segment is **single-writer**: opening takes an exclusive OS
    /// advisory lock on this writer's own segment, held until the
    /// [`Store`] is dropped, so a second open under the same writer name
    /// (or of the canonical segment without a name) — from this process
    /// or another — fails instead of silently interleaving appends.
    /// Differently-named writers lock different shard files and coexist.
    /// The lock is released by the kernel even on crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidWriter`] for a malformed writer name;
    /// [`StoreError::Io`] when the directory or file cannot be
    /// created/opened, or when another live `Store` holds this segment's
    /// lock; [`StoreError::BadMagic`] / [`StoreError::Version`] for a
    /// foreign or incompatible file; [`StoreError::Corrupt`] when a
    /// well-framed record fails to decode (which truncation must *not*
    /// paper over).
    pub fn open(self) -> Result<Store, StoreError> {
        let dir = self.path;
        let own_path = match &self.writer {
            None => segment::journal_path(&dir),
            Some(name) if segment::valid_writer_name(name) => segment::shard_path(&dir, name),
            Some(name) => return Err(StoreError::InvalidWriter { name: name.clone() }),
        };
        if !dir.exists() {
            if !self.create {
                return Err(StoreError::Io {
                    op: "open",
                    reason: format!("{} does not exist", dir.display()),
                });
            }
            std::fs::create_dir_all(&dir).map_err(io_err("create dir"))?;
        }
        let (segment, own_bytes, recovered_bytes) =
            Segment::open(own_path, self.create, self.sync_on_append)?;
        let mut inner = Inner {
            segment,
            dir,
            writer: self.writer,
            foreign_bytes: 0,
            segments: 0,
            recovered_bytes,
            cache_hits: 0,
            lookups: 0,
            state: ReplayState::default(),
        };

        // Replay every segment in repository order: the own one from the
        // bytes just read (its torn tail, if any, is cut off on disk), the
        // other writers' read-only.
        for path in segment::segment_paths(&inner.dir)? {
            if path == inner.segment.path() {
                let good = segment::replay(&mut inner.state, &own_bytes, &path)?
                    .expect("the own segment was given a header") as u64;
                if good < inner.segment.len() {
                    inner.recovered_bytes += inner.segment.len() - good;
                    inner.segment.truncate(good)?;
                }
            } else {
                // A concurrent compaction may have just removed the file,
                // and a concurrent writer may not have written its header
                // yet; both read as "no records".
                let Ok(bytes) = std::fs::read(&path) else {
                    continue;
                };
                if segment::replay(&mut inner.state, &bytes, &path)?.is_some() {
                    inner.foreign_bytes += bytes.len() as u64;
                }
            }
            inner.segments += 1;
        }
        Ok(Store {
            inner: Mutex::new(inner),
        })
    }
}

/// The persistent candidate store: an append-only journal plus an in-memory
/// index keyed by content hash.
///
/// All methods take `&self`; the store is internally synchronized and is
/// shared across search workers behind an [`Arc`](std::sync::Arc).
pub struct Store {
    inner: Mutex<Inner>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // (Two statements: `stats` takes the lock again.)
        let segment = self.lock().segment.path().to_owned();
        f.debug_struct("Store")
            .field("segment", &segment)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Store {
    /// Shorthand for `StoreBuilder::new(path).open()`.
    ///
    /// # Errors
    ///
    /// See [`StoreBuilder::open`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Store, StoreError> {
        StoreBuilder::new(path).open()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock")
    }

    /// Runs `read` on the merged in-memory view, under the store's lock.
    pub(super) fn with_state<T>(&self, read: impl FnOnce(&ReplayState) -> T) -> T {
        read(&self.lock().state)
    }

    /// Journals a candidate operator under its content hash. Returns `false`
    /// without writing when the hash is already present (cross-run dedup).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails.
    pub fn put_candidate(&self, hash: u64, graph: &PGraph) -> Result<bool, StoreError> {
        let mut inner = self.lock();
        if inner
            .state
            .index
            .get(&hash)
            .is_some_and(|e| !e.graph.is_empty())
        {
            return Ok(false);
        }
        inner.commit(Record::Candidate {
            hash,
            graph: codec::encode_graph(graph),
        })?;
        Ok(true)
    }

    /// Journals a proxy score for `hash` under its typed
    /// [`ScoreContract`] — the task family whose proxy produced it and the
    /// reduce width of the execution policy it was computed under (the
    /// width determines the deterministic FP summation order, so it is
    /// part of the score's identity — see [`Store::score_for_contract`]).
    /// The latest score journaled for a hash replaces any earlier one,
    /// whatever its contract.
    ///
    /// By convention `NaN` marks a *journaled failure*: the candidate's
    /// proxy training failed deterministically, and consumers (the search
    /// pipeline) skip it on recall instead of re-training. NaN scores are
    /// excluded from [`StoreStats::scored`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails.
    pub fn put_score(
        &self,
        hash: u64,
        accuracy: f64,
        contract: &ScoreContract,
    ) -> Result<(), StoreError> {
        self.lock().commit(Record::ProxyScore {
            hash,
            accuracy,
            contract: contract.clone(),
        })
    }

    /// Journals a tuned latency for `hash` on one device/compiler pair.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails.
    pub fn put_latency(
        &self,
        hash: u64,
        device: &str,
        compiler: &str,
        latency: f64,
    ) -> Result<(), StoreError> {
        self.lock().commit(Record::LatencyMeasurement {
            hash,
            device: device.to_owned(),
            compiler: compiler.to_owned(),
            latency,
        })
    }

    /// Journals a checkpoint (latest per `(label, spec_fingerprint)` wins).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails.
    pub fn put_checkpoint(&self, checkpoint: &Checkpoint) -> Result<(), StoreError> {
        self.lock().commit(Record::Checkpoint(checkpoint.clone()))
    }

    /// Journals a named candidate set (latest record per name wins, like
    /// checkpoints).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails.
    pub fn put_set(&self, set: &CandidateSet) -> Result<(), StoreError> {
        self.lock().commit(Record::CandidateSet(set.clone()))
    }

    /// The latest journaled candidate set under `name`, if any.
    pub fn candidate_set(&self, name: &str) -> Option<CandidateSet> {
        self.lock().state.sets.get(name).cloned()
    }

    /// Derives a new named candidate set as `op` over the sets named
    /// `left` and `right` and journals it as one `CandidateSet` record,
    /// whose [`lineage`](CandidateSet::lineage) (e.g. `union(a,b)`) names
    /// its inputs. The result is canonical (sorted, deduplicated), so
    /// repeat derivations over equal inputs are byte-identical — the
    /// determinism the multi-writer CI smoke asserts.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownSet`] when either input set is missing;
    /// [`StoreError::Io`] when the append fails.
    pub fn derive(
        &self,
        op: DeriveOp,
        name: &str,
        left: &str,
        right: &str,
    ) -> Result<CandidateSet, StoreError> {
        let mut inner = self.lock();
        let input = |name: &str| {
            inner.state.sets.get(name).ok_or_else(|| StoreError::UnknownSet {
                name: name.to_owned(),
            })
        };
        let set = CandidateSet::derive(op, name, input(left)?, input(right)?);
        inner.commit(Record::CandidateSet(set.clone()))?;
        drop(inner);
        syno_telemetry::counter!("syno_store_derives_total").inc();
        Ok(set)
    }

    /// Counts one served recall toward [`StoreStats::cache_hits`]. A probe
    /// with [`Store::score_for_contract`] counts a lookup only: the caller
    /// may still fall through to recomputation, and records the hit once
    /// the recall was actually served.
    pub fn record_hit(&self) {
        self.lock().cache_hits += 1;
    }

    /// The cached proxy accuracy for `hash` *if* it was journaled under
    /// exactly this [`ScoreContract`] — the one score lookup, and the
    /// search pipeline's recall probe. The reduction-tree width reshapes
    /// the deterministic FP summation order, so a score computed at another
    /// width (or by another family's proxy) is a different value, not a
    /// cache hit; the mismatch reads as a miss and the caller re-evaluates
    /// (and re-journals under its own contract). `Some(NaN)` is the
    /// journaled-failure marker (see [`Store::put_score`]).
    pub fn score_for_contract(&self, hash: u64, contract: &ScoreContract) -> Option<f64> {
        let mut inner = self.lock();
        inner.lookups += 1;
        inner.state.contract_score(hash, contract)
    }

    /// Cached latencies for every requested device under one compiler, in
    /// request order; `None` unless **all** are present.
    pub fn latencies(&self, hash: u64, devices: &[&str], compiler: &str) -> Option<Vec<f64>> {
        let inner = self.lock();
        let entry = inner.state.index.get(&hash)?;
        devices
            .iter()
            .map(|d| {
                entry
                    .latencies
                    .get(&((*d).to_owned(), compiler.to_owned()))
                    .copied()
            })
            .collect()
    }

    /// Decodes the journaled graph for `hash`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownHash`] when nothing is journaled under `hash`;
    /// [`StoreError::Codec`] when the stored bytes no longer decode.
    pub fn graph(&self, hash: u64) -> Result<PGraph, StoreError> {
        let bytes = {
            let inner = self.lock();
            let entry = inner
                .state
                .index
                .get(&hash)
                .filter(|e| !e.graph.is_empty())
                .ok_or(StoreError::UnknownHash { hash })?;
            entry.graph.clone()
        };
        Ok(codec::decode_graph(&bytes)?)
    }

    /// Content hashes of every journaled candidate, in repository
    /// first-seen order.
    pub fn hashes(&self) -> Vec<u64> {
        self.lock().state.order.clone()
    }

    /// The latest checkpoint for a scenario, if any.
    pub fn checkpoint(&self, label: &str, spec_fingerprint: u64) -> Option<Checkpoint> {
        self.lock()
            .state
            .checkpoints
            .get(&(label.to_owned(), spec_fingerprint))
            .cloned()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            segments: inner.segments,
            file_bytes: inner.segment.len() + inner.foreign_bytes,
            recovered_bytes: inner.recovered_bytes,
            cache_hits: inner.cache_hits,
            lookups: inner.lookups,
            ..inner.state.stats()
        }
    }

    /// Fan-in compaction: merges **every** segment of the repository into
    /// a fresh canonical segment keeping only the live state — one
    /// `Candidate`, at most one `ProxyScore`, and the latest latency per
    /// device/compiler pair for each hash (in repository first-seen
    /// order), the latest checkpoint per scenario, and the latest candidate
    /// set per name. Superseded duplicates are dropped, merged-away shards
    /// are removed, and this writer's own shard (when named) is reset to
    /// header-only. Returns the stats after compaction. The live state is a
    /// fixed point: compacting a compacted repository rewrites the same
    /// bytes.
    ///
    /// Every *other* segment's writer lock is taken for the duration, so
    /// a live writer makes the compaction fail loudly instead of losing
    /// its in-flight appends. The rewrite goes through a temporary file
    /// and an atomic rename, so a crash mid-compaction leaves either the
    /// old or the new canonical segment intact (and shards are only
    /// removed after the rename lands).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a segment is still locked by a live
    /// writer, or when writing or renaming fails; the errors of
    /// [`StoreBuilder::open`] for a segment that is not a journal of this
    /// build or holds a corrupt record — nothing is merged or removed then.
    pub fn compact(&self) -> Result<StoreStats, StoreError> {
        let compact_span = syno_telemetry::span!("journal_compact");
        let mut inner = self.lock();
        let canonical = segment::journal_path(&inner.dir);

        // Fan-in guard: hold every other segment's writer lock so no live
        // writer can append while its shard is merged away.
        let segments = segment::segment_paths(&inner.dir)?;
        let mut guards: Vec<(&PathBuf, File)> = Vec::new();
        for path in &segments {
            if path == inner.segment.path() {
                continue;
            }
            // A segment vanishing here means a concurrent compaction
            // already merged it; skip it and merge what remains.
            let Ok(guard) = OpenOptions::new().read(true).write(true).open(path) else {
                continue;
            };
            guard.try_lock().map_err(|e| StoreError::Io {
                op: "lock segment for compaction (live writer?)",
                reason: format!("{}: {e}", path.display()),
            })?;
            guards.push((path, guard));
        }

        // Rebuild the merged view fresh from disk in repository order:
        // foreign shards may have grown since this handle opened, and the
        // own segment's bytes on disk are exactly its in-memory state.
        let mut merged = ReplayState::default();
        for path in &segments {
            if let Ok(bytes) = std::fs::read(path) {
                segment::replay(&mut merged, &bytes, path)?;
            }
        }
        let mut bytes = segment::empty_segment();
        merged.for_each_live(|record| segment::put_record(&mut bytes, record));

        let tmp = match &inner.writer {
            None => canonical.with_extension("syno.tmp"),
            Some(writer) => inner.dir.join(format!("compact-{writer}.tmp")),
        };
        let replacement = inner.segment.replacement(&tmp, canonical.clone(), &bytes)?;
        if inner.writer.is_none() {
            // The old handle's lock dies with it here.
            inner.segment = replacement;
            inner.foreign_bytes = 0;
            inner.segments = 1;
        } else {
            // The canonical segment belongs to whichever unnamed writer
            // opens the repository next; release the replacement's lock.
            drop(replacement);
            // This shard's records were folded into the canonical segment;
            // reset it to header-only and keep appending here.
            inner.segment.truncate(segment::HEADER_LEN as u64)?;
            inner.foreign_bytes = bytes.len() as u64;
            inner.segments = 2;
        }
        // Remove merged-away shards; their (now moot) locks are still held
        // in `guards`, so no writer raced an append into them.
        for (path, guard) in guards {
            if *path != canonical {
                let _ = std::fs::remove_file(path);
            }
            drop(guard);
        }
        inner.state = merged;
        drop(inner);
        syno_telemetry::counter!("syno_store_compactions_total").inc();
        syno_telemetry::counter!("syno_store_bytes_written_total").add(bytes.len() as u64);
        syno_telemetry::histogram!("syno_store_compact_seconds")
            .observe_duration(compact_span.elapsed());
        Ok(self.stats())
    }
}
