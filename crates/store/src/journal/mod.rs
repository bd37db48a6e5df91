//! The versioned candidate repository: segment-per-writer journal shards
//! and named candidate collections, over one in-memory index.
//!
//! ## On-disk layout
//!
//! A repository is a directory of journal **segments**:
//!
//! ```text
//! repo/
//! ├── journal.syno        canonical segment (fan-in compaction target)
//! ├── journal-<w1>.syno   writer w1's shard
//! └── journal-<w2>.syno   writer w2's shard
//! ```
//!
//! Each segment is the same append-only file format — a header, then
//! records in the one envelope of [`syno_core::codec`]
//! ([`put_frame`](syno_core::codec::put_frame) writes it,
//! [`split_frame`](syno_core::codec::split_frame) takes it apart and owns
//! the length cap and the checksum):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "SYNOSTOR" (8 bytes) | journal version (u32 LE)        |  header
//! +--------------------------------------------------------------+
//! | kind (u8) | payload len (u32 LE) | payload | checksum (u32)  |  record 0
//! +--------------------------------------------------------------+
//! | ...                                                          |  record 1…
//! ```
//!
//! A writer opens the repository with [`StoreBuilder::writer`] and takes an
//! exclusive OS advisory lock on **its own shard only**, so any number of
//! processes can share one repository directory while each segment keeps a
//! single appender. Opening replays every segment in deterministic
//! *repository order* — the canonical segment first, then shards sorted by
//! file name — so every opener converges on the same merged view.
//! [`Store::compact`] is the fan-in: it locks out every other segment's
//! writer, merges all segments into a fresh canonical segment, and removes
//! the merged-away shards.
//!
//! Records are only ever appended; a crash can therefore corrupt at most
//! the **tail** of a segment. Loading walks the records in order and, at
//! the first frame that is incomplete, oversized or fails its checksum in
//! the writer's own segment, truncates that segment back to the last good
//! record boundary — the recovery strategy of every write-ahead log. A torn
//! tail in *another writer's* shard is skipped without truncation (only its
//! owner may rewrite it; it recovers the tail on its own next open). A
//! record that frames and checksums correctly but fails to decode indicates
//! real corruption (or a writer of another format version) and is reported
//! as [`StoreError::Corrupt`] rather than silently dropped.
//!
//! ## Modules
//!
//! * `segment` — segment files: naming and repository order, the header,
//!   the locked appender, and the one replay loop (open and compaction
//!   both read segments through it).
//! * `record` — [`Record`] and the types inside it, with their payload
//!   codec over [`syno_core::codec`] primitives. `Candidate` embeds the
//!   graph's own versioned encoding, so the codec's `FORMAT_VERSION` is
//!   checked again when a graph is decoded.
//! * `index` — the merged in-memory view the records build, and
//!   [`StoreStats`].
//! * `sets` — [`CandidateSet`] and the derive algebra.
//! * `store` — [`Store`] and [`StoreBuilder`]: every write is one
//!   `commit(record)` = append, then apply.

mod index;
mod record;
mod segment;
mod sets;
mod store;
#[cfg(test)]
mod tests;

pub use index::StoreStats;
pub use record::{Checkpoint, Record, RecordKind, ScoreContract};
pub use sets::{CandidateSet, DeriveOp};
pub use store::{Store, StoreBuilder};

use std::fmt;
use syno_core::codec::CodecError;

/// Errors surfaced by store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure, tagged with the operation that failed.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// Rendered `std::io::Error`.
        reason: String,
    },
    /// The file exists but does not start with the journal magic.
    BadMagic,
    /// The journal framing version is not supported by this build.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// A record framed and checksummed correctly but its payload is
    /// malformed — not a torn tail, real corruption.
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What went wrong.
        reason: String,
    },
    /// A value-level decode failure (from [`syno_core::codec`]).
    Codec(CodecError),
    /// The store has no journaled graph under the requested content hash.
    UnknownHash {
        /// The missing key.
        hash: u64,
    },
    /// A writer name passed to [`StoreBuilder::writer`] is not a valid
    /// shard name (`[A-Za-z0-9_-]`, 1–64 characters).
    InvalidWriter {
        /// The offending name.
        name: String,
    },
    /// A derive operation referenced a candidate set the repository does
    /// not hold.
    UnknownSet {
        /// The missing set name.
        name: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, reason } => write!(f, "store {op} failed: {reason}"),
            StoreError::BadMagic => write!(f, "not a syno-store journal (bad magic)"),
            StoreError::Version { found } => write!(
                f,
                "unsupported journal version {found} (this build reads {})",
                segment::JOURNAL_VERSION
            ),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt record at byte {offset}: {reason}")
            }
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::UnknownHash { hash } => {
                write!(f, "no candidate journaled under {hash:#018x}")
            }
            StoreError::InvalidWriter { name } => write!(
                f,
                "invalid writer name {name:?} (want 1-64 chars of [A-Za-z0-9_-])"
            ),
            StoreError::UnknownSet { name } => {
                write!(f, "no candidate set named {name:?} in the repository")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Tags an `std::io::Error` with the store operation that met it.
fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        op,
        reason: e.to_string(),
    }
}
