//! What the journal refuses to read: a segment of another journal version,
//! and a record of another layout. Both are typed errors that leave every
//! file as it was — no defaulting, no truncation, no merge.

use std::path::{Path, PathBuf};
use syno_core::codec::{put_frame, Encoder};
use syno_store::{Record, RecordKind, ScoreContract, StoreBuilder, StoreError};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syno-store-format-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_names(dir: &Path) -> Vec<std::ffi::OsString> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    names.sort();
    names
}

/// Compaction reads segments through the same validating path as open: a
/// shard of another journal version (here: one that appeared after this
/// handle opened) is refused, and nothing is merged or deleted.
#[test]
fn compaction_refuses_a_shard_of_another_journal_version() {
    let dir = temp_dir("future-shard");
    let contract = ScoreContract::new("vision", 1);
    let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
    w1.put_score(1, 0.25, &contract).unwrap();

    // Its record reads fine as the current version — which is how it used to
    // be merged into the canonical segment and its file deleted.
    let future = dir.join("journal-w9.syno");
    let mut bytes = b"SYNOSTOR".to_vec();
    bytes.extend_from_slice(&3u32.to_le_bytes());
    let score = Record::ProxyScore {
        hash: 9,
        accuracy: 0.5,
        contract: contract.clone(),
    };
    put_frame(&mut bytes, score.kind().tag(), &score.encode_payload());
    std::fs::write(&future, &bytes).unwrap();

    let before = file_names(&dir);
    assert_eq!(w1.compact().unwrap_err(), StoreError::Version { found: 3 });
    assert_eq!(file_names(&dir), before, "every segment file is still in place");
    assert_eq!(std::fs::read(&future).unwrap(), bytes);
    // The handle is unharmed, and open refuses the shard the same way.
    w1.put_score(2, 0.75, &contract).unwrap();
    assert_eq!(w1.stats().scored, 2);
    assert_eq!(
        StoreBuilder::new(&dir).open().unwrap_err(),
        StoreError::Version { found: 3 }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every segment file of `dir`, by name, with its bytes.
fn snapshot(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    file_names(dir)
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect()
}

/// A journal of version 1 — the layout that still held an operation log
/// under record tag 5 — is a typed `Version { found: 1 }` refusal from
/// compaction and from open alike, not a corrupt record, and every file is
/// left byte-identical.
#[test]
fn version_one_journal_with_an_operation_record_is_refused() {
    let dir = temp_dir("version-one");
    let contract = ScoreContract::new("vision", 1);
    let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
    w1.put_score(1, 0.25, &contract).unwrap();

    // A version-1 canonical segment holding one tag-5 record (kind, writer,
    // label, spec fingerprint, detail), as that layout framed it.
    let mut op = Encoder::new();
    op.put_u8(0);
    op.put_str("journal");
    op.put_str("pool");
    op.put_u64(42);
    op.put_str("seed 7");
    let mut bytes = b"SYNOSTOR".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    put_frame(&mut bytes, 5, &op.into_bytes());
    std::fs::write(dir.join("journal.syno"), &bytes).unwrap();

    let before = snapshot(&dir);
    assert_eq!(w1.compact().unwrap_err(), StoreError::Version { found: 1 });
    assert_eq!(snapshot(&dir), before, "nothing merged, removed or rewritten");
    drop(w1);
    assert_eq!(
        StoreBuilder::new(&dir).open().unwrap_err(),
        StoreError::Version { found: 1 }
    );
    assert_eq!(
        StoreBuilder::new(&dir).writer("w1").open().unwrap_err(),
        StoreError::Version { found: 1 }
    );
    assert_eq!(snapshot(&dir), before, "open truncated nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `ProxyScore` payload that stops before its family and width is not a
/// score under some guessed contract: the frame verifies, so it is
/// `Corrupt` — not defaulted, and not cut off as a torn tail either.
#[test]
fn short_score_record_is_corrupt_not_defaulted() {
    let dir = temp_dir("short-score");
    drop(StoreBuilder::new(&dir).open().unwrap());
    let journal = dir.join("journal.syno");
    let header = std::fs::read(&journal).unwrap();

    // With the family but without the width, and with neither.
    for with_family in [true, false] {
        let mut e = Encoder::new();
        e.put_u64(7);
        e.put_f64(0.8125);
        if with_family {
            e.put_str("vision");
        }
        let mut bytes = header.clone();
        put_frame(&mut bytes, RecordKind::ProxyScore.tag(), &e.into_bytes());
        std::fs::write(&journal, &bytes).unwrap();

        let err = StoreBuilder::new(&dir).open().unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { offset, .. } if offset == header.len() as u64),
            "{err}"
        );
        assert_eq!(std::fs::read(&journal).unwrap(), bytes, "nothing was truncated");
    }
    // The same record with its contract in full is a score.
    let whole = Record::ProxyScore {
        hash: 7,
        accuracy: 0.8125,
        contract: ScoreContract::new("vision", 1),
    };
    let mut bytes = header.clone();
    put_frame(&mut bytes, whole.kind().tag(), &whole.encode_payload());
    std::fs::write(&journal, &bytes).unwrap();
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.score_for_contract(7, &ScoreContract::new("vision", 1)), Some(0.8125));
    assert_eq!(store.stats().recovered_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
