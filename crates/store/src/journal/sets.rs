//! Named candidate collections and the derive algebra over them.

use super::record::ScoreContract;
use super::store::Store;
use std::fmt;
use syno_core::stable::StableHasher;

/// A derive-style set operation over two named [`CandidateSet`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeriveOp {
    /// Hashes in either input set.
    Union,
    /// Hashes in both input sets.
    Intersection,
    /// Hashes in the left set but not the right.
    Difference,
}

impl DeriveOp {
    /// Stable lower-case name (`"union"`, `"intersection"`, `"difference"`).
    pub fn name(self) -> &'static str {
        match self {
            DeriveOp::Union => "union",
            DeriveOp::Intersection => "intersection",
            DeriveOp::Difference => "difference",
        }
    }

    /// Parses [`DeriveOp::name`] output (the serve protocol's op strings).
    pub fn from_name(name: &str) -> Option<DeriveOp> {
        Some(match name {
            "union" => DeriveOp::Union,
            "intersection" => DeriveOp::Intersection,
            "difference" => DeriveOp::Difference,
            _ => return None,
        })
    }
}

impl fmt::Display for DeriveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, content-hash-keyed candidate collection with lineage.
///
/// The member list is **canonical**: sorted ascending and deduplicated, so
/// equal collections have equal bytes — [`Store::derive`] output is byte-stable
/// across repeat runs, which the multi-writer CI smoke asserts end-to-end.
/// Latest journaled set per name wins, like checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSet {
    name: String,
    lineage: String,
    hashes: Vec<u64>,
}

impl CandidateSet {
    /// A set named `name` holding `hashes` (sorted + deduplicated here,
    /// whatever order they arrive in), with a free-form `lineage`
    /// expression saying where the collection came from (e.g. `"run:conv"`
    /// or `"union(conv,pool)"`).
    pub fn new(name: impl Into<String>, lineage: impl Into<String>, mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        CandidateSet {
            name: name.into(),
            lineage: lineage.into(),
            hashes,
        }
    }

    /// `op` over `left` and `right`, named `name`, with the lineage
    /// `"<op>(<left>,<right>)"`.
    pub(super) fn derive(op: DeriveOp, name: &str, left: &CandidateSet, right: &CandidateSet) -> Self {
        let keep = |in_right: bool| -> Vec<u64> {
            let kept = left.hashes.iter().filter(|&&h| right.contains(h) == in_right);
            kept.copied().collect()
        };
        let hashes = match op {
            DeriveOp::Union => [left.hashes(), right.hashes()].concat(),
            DeriveOp::Intersection => keep(true),
            DeriveOp::Difference => keep(false),
        };
        CandidateSet::new(name, format!("{op}({},{})", left.name, right.name), hashes)
    }

    /// The set's repository-wide name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where the collection came from.
    pub fn lineage(&self) -> &str {
        &self.lineage
    }

    /// The member content hashes, sorted ascending.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// `true` when `hash` is a member.
    pub fn contains(&self, hash: u64) -> bool {
        self.hashes.binary_search(&hash).is_ok()
    }

    /// A stable 64-bit digest over name, lineage, and members — two equal
    /// digests mean byte-identical journaled set records, which is how the
    /// CI smoke asserts derive determinism across independent runs.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = StableHasher::new();
        h.write(self.name.as_bytes());
        h.write(&[0]);
        h.write(self.lineage.as_bytes());
        h.write(&[0]);
        h.write(&(self.hashes.len() as u64).to_le_bytes());
        for hash in &self.hashes {
            h.write(&hash.to_le_bytes());
        }
        h.finish()
    }

    /// The top `k` members by journaled proxy score under `contract`,
    /// best first. Members without a score under that exact contract (or
    /// with a NaN journaled-failure marker) are skipped; ties break by
    /// ascending hash so the selection is deterministic.
    pub fn top_k(&self, store: &Store, k: usize, contract: &ScoreContract) -> Vec<(u64, f64)> {
        let mut scored: Vec<(u64, f64)> = store.with_state(|state| {
            self.hashes
                .iter()
                .filter_map(|&hash| {
                    state
                        .contract_score(hash, contract)
                        .filter(|a| !a.is_nan())
                        .map(|a| (hash, a))
                })
                .collect()
        });
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN filtered above")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }
}

