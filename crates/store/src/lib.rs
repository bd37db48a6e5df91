//! # syno-store — the persistent, content-addressed candidate store
//!
//! Syno's search loop (Algorithm 1) spends nearly all of its wall-clock on
//! candidate evaluation: proxy training and latency tuning dominate, and the
//! paper leans on canonical-form deduplication to avoid redundant work
//! *within* one run. This crate extends that amortization *across* runs: an
//! append-only on-disk journal of candidate operators and their evaluation
//! results, keyed by the stable content hash
//! ([`PGraph::content_hash`](syno_core::graph::PGraph::content_hash)), plus
//! search checkpoints that let an interrupted run resume without repeating
//! completed evaluations.
//!
//! The store is a **versioned candidate repository**: a directory of
//! journal *segments* — one canonical `journal.syno` plus one
//! `journal-<writer>.syno` shard per named writer — so many processes can
//! append to one repository concurrently, each holding only its own shard's
//! lock. Fan-in [`Store::compact`] merges every segment back into the
//! canonical one. An operation log ([`Operation`]/[`OpKind`]) gives runs and
//! derived collections lineage, and [`CandidateSet`] adds named,
//! deterministic set algebra ([`Store::derive`] with a [`DeriveOp`]) plus
//! `top_k` selection over candidate collections.
//!
//! * [`Store`] — the repository: [`Record`]s (`Candidate`, `ProxyScore`,
//!   `LatencyMeasurement`, `Checkpoint`, `Operation`, `CandidateSet`), each
//!   in one frame of the envelope `syno_core::codec` owns, loaded through
//!   crash-safe recovery that truncates a torn tail record on the writer's
//!   own segment, indexed in memory by content hash, and compactable
//!   fan-in. Every write is one append-then-apply; there is one score
//!   lookup, [`Store::score_for_contract`].
//! * [`StoreBuilder`] — open/create configuration, including
//!   [`StoreBuilder::writer`] for shard-per-writer mode.
//! * [`ScoreContract`] — the typed identity of a proxy score (family +
//!   reduction-tree width), taken by `put_score` / `score_for_contract` and
//!   journaled in full with every score: a record without it is corrupt,
//!   never defaulted.
//! * [`StoreStats`] — counters for dashboards and tests.
//! * [`Checkpoint`] — a search scenario's journaled position (label, spec
//!   fingerprint, seed, iterations, discoveries), consumed by
//!   `SearchBuilder::resume_from` in `syno-search`.
//! * [`CandidateSet`] / [`DeriveOp`] — named content-hash collections and
//!   the derive algebra over them.
//!
//! Serialization is `syno-core`'s hand-rolled versioned binary codec
//! ([`syno_core::codec`]), framing included; this crate adds the segment
//! header and the record payloads. One format is read: the current one. A
//! journal of any other version is refused with a typed error
//! ([`StoreError::Version`], `CodecError::Version`, or
//! [`StoreError::Corrupt`] for a record of another layout) and left
//! untouched. There are no dependencies beyond `syno-core`,
//! `syno-telemetry` and `std`.
//!
//! ## Example
//!
//! ```no_run
//! use syno_store::StoreBuilder;
//!
//! let store = StoreBuilder::new("/tmp/syno-store").create(true).open().unwrap();
//! println!("{:?}", store.stats());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod journal;

pub use journal::{
    CandidateSet, Checkpoint, DeriveOp, OpKind, Operation, Record, RecordKind, ScoreContract,
    Store, StoreBuilder, StoreError, StoreStats,
};
