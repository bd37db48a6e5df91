//! Segment files: where they live, what their header says, the locked
//! appender, and the one loop that replays their records.

use super::index::ReplayState;
use super::record::{Record, RecordKind};
use super::{io_err, StoreError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use syno_core::codec::{put_frame, split_frame};

/// File magic identifying a syno-store journal.
const MAGIC: [u8; 8] = *b"SYNOSTOR";
/// Version of the segment layout (independent of the value codec's
/// `FORMAT_VERSION`, which is checked per embedded graph).
pub(super) const JOURNAL_VERSION: u32 = 2;
/// Bytes of header before the first record.
pub(super) const HEADER_LEN: usize = 12;
/// Refuse absurd record lengths so a corrupt length prefix cannot force a
/// multi-gigabyte allocation.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// The canonical journal segment inside a repository directory.
pub(super) fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.syno")
}

/// The shard segment a named writer appends to.
pub(super) fn shard_path(dir: &Path, writer: &str) -> PathBuf {
    dir.join(format!("journal-{writer}.syno"))
}

/// `true` when `name` is a legal shard writer name: 1–64 characters of
/// `[A-Za-z0-9_-]`, so shard file names parse back unambiguously.
pub(super) fn valid_writer_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Every journal segment currently in the repository directory, in
/// deterministic *repository order*: the canonical segment first, then
/// writer shards sorted by file name. This is the order segments are
/// replayed in, so every opener converges on the same merged view.
pub(super) fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut canonical = None;
    let mut shards = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err("list repository"))? {
        let entry = entry.map_err(io_err("list repository"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == "journal.syno" {
            canonical = Some(entry.path());
        } else if name
            .strip_prefix("journal-")
            .and_then(|stem| stem.strip_suffix(".syno"))
            .is_some_and(valid_writer_name)
        {
            shards.push((name.to_owned(), entry.path()));
        }
    }
    shards.sort();
    Ok(canonical
        .into_iter()
        .chain(shards.into_iter().map(|(_, path)| path))
        .collect())
}

/// The bytes of a segment that holds no record yet.
pub(super) fn empty_segment() -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    bytes
}

/// Appends `record`, framed, to `buf`.
pub(super) fn put_record(buf: &mut Vec<u8>, record: &Record) {
    put_frame(buf, record.kind().tag(), &record.encode_payload());
}

/// Replays one segment's bytes into `state` — the single reader of segment
/// files, for this writer's own segment, for other writers' shards, and for
/// compaction. Validates the header, applies every intact record, and stops
/// at the first torn one (a frame that is incomplete, claims more than
/// [`MAX_PAYLOAD`], or fails its checksum). Returns the offset just past
/// the last good record — the owner of the segment truncates to it, any
/// other reader just stops there — or `None` for a file too short to hold a
/// header, which is a segment its writer has not initialized yet.
///
/// # Errors
///
/// [`StoreError::BadMagic`] / [`StoreError::Version`] for a file that is
/// not a journal of this build; [`StoreError::Corrupt`] for a record whose
/// frame verifies but whose payload does not decode.
pub(super) fn replay(
    state: &mut ReplayState,
    bytes: &[u8],
    segment: &Path,
) -> Result<Option<usize>, StoreError> {
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Ok(None);
    };
    if header[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(header[8..].try_into().expect("4-byte version"));
    if version != JOURNAL_VERSION {
        return Err(StoreError::Version { found: version });
    }
    let mut offset = HEADER_LEN;
    while let Ok(Some((tag, payload, consumed))) = split_frame(&bytes[offset..], MAX_PAYLOAD) {
        // The frame verified: a failure from here on is corruption, not a
        // torn tail.
        let record = RecordKind::from_tag(tag)
            .ok_or_else(|| format!("unknown record tag {tag:#04x}"))
            .and_then(|kind| Record::decode_payload(kind, payload).map_err(|e| e.to_string()))
            .map_err(|reason| StoreError::Corrupt {
                offset: offset as u64,
                reason: format!("{reason} (segment {})", segment.display()),
            })?;
        state.apply(record);
        offset += consumed;
    }
    Ok(Some(offset))
}

/// This writer's own segment: the open file, exclusively locked for as long
/// as the value lives, and its append offset.
pub(super) struct Segment {
    file: File,
    path: PathBuf,
    len: u64,
    sync_on_append: bool,
}

impl Segment {
    /// Opens (creating it when `create`) and locks the segment at `path`,
    /// and returns it with the bytes it holds and the count of bytes thrown
    /// away: a file too short to hold a header — new, or torn inside it —
    /// is started afresh.
    ///
    /// The lock is the per-segment single-writer guard: two writers of one
    /// segment would append at overlapping offsets and shred each other's
    /// frames. The kernel releases it on crash, so there are no stale locks
    /// to clean.
    pub(super) fn open(
        path: PathBuf,
        create: bool,
        sync_on_append: bool,
    ) -> Result<(Segment, Vec<u8>, u64), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(&path)
            .map_err(io_err("open journal"))?;
        file.try_lock().map_err(|e| StoreError::Io {
            op: "lock journal segment (is another process writing it?)",
            reason: e.to_string(),
        })?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read journal"))?;
        let mut discarded = 0;
        if bytes.len() < HEADER_LEN {
            discarded = bytes.len() as u64;
            bytes = empty_segment();
            file.set_len(0).map_err(io_err("truncate"))?;
            file.seek(SeekFrom::Start(0)).map_err(io_err("seek"))?;
            file.write_all(&bytes).map_err(io_err("write header"))?;
            file.sync_data().map_err(io_err("sync header"))?;
        }
        let segment = Segment {
            file,
            path,
            len: bytes.len() as u64,
            sync_on_append,
        };
        Ok((segment, bytes, discarded))
    }

    /// Writes `bytes` as a whole new segment at `tmp`, locks it, and renames
    /// it over `target`: a crash leaves either the old or the new file, and
    /// no other opener can slip in between the rename and the lock. The new
    /// segment appends as durably as this one.
    pub(super) fn replacement(
        &self,
        tmp: &Path,
        target: PathBuf,
        bytes: &[u8],
    ) -> Result<Segment, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
            .map_err(io_err("create compact file"))?;
        file.write_all(bytes).map_err(io_err("write compact file"))?;
        file.sync_data().map_err(io_err("sync compact file"))?;
        file.try_lock().map_err(|e| StoreError::Io {
            op: "lock compact file",
            reason: e.to_string(),
        })?;
        std::fs::rename(tmp, &target).map_err(io_err("swap compact file"))?;
        Ok(Segment {
            file,
            path: target,
            len: bytes.len() as u64,
            sync_on_append: self.sync_on_append,
        })
    }

    /// Path of the segment file.
    pub(super) fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the segment: the append offset.
    pub(super) fn len(&self) -> u64 {
        self.len
    }

    /// Cuts the segment back to `len` bytes, durably: torn-tail recovery,
    /// and the reset of a shard that compaction folded away.
    pub(super) fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len).map_err(io_err("truncate"))?;
        self.file.sync_data().map_err(io_err("sync truncate"))?;
        self.len = len;
        Ok(())
    }

    /// Appends one framed record (and forces it to disk under
    /// `sync_on_append`).
    pub(super) fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        let append_span = syno_telemetry::span!("journal_append");
        let mut frame = Vec::new();
        put_record(&mut frame, record);
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(io_err("seek"))?;
        self.file.write_all(&frame).map_err(io_err("append"))?;
        self.file.flush().map_err(io_err("flush"))?;
        if self.sync_on_append {
            let fsync_span = syno_telemetry::span!("journal_fsync");
            self.file.sync_data().map_err(io_err("sync"))?;
            syno_telemetry::histogram!("syno_store_fsync_seconds")
                .observe_duration(fsync_span.elapsed());
        }
        self.len += frame.len() as u64;
        syno_telemetry::counter!("syno_store_appends_total").inc();
        syno_telemetry::counter!("syno_store_bytes_written_total").add(frame.len() as u64);
        syno_telemetry::histogram!("syno_store_append_seconds")
            .observe_duration(append_span.elapsed());
        Ok(())
    }
}
