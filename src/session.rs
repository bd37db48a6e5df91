//! The [`Session`] facade: one object that owns the symbolic-shape
//! vocabulary and an optional store, and hands out the workspace's drivers —
//! resumable [`Synthesis`] enumeration and streaming [`SearchBuilder`] runs —
//! without the caller wiring seven crates together. Run settings (devices,
//! MCTS, proxy, evaluator threads, …) live on the [`SearchBuilder`] only.
//!
//! ```
//! use syno::{Session, SearchEvent};
//!
//! let session = Session::builder()
//!     .primary("H", 16)
//!     .coefficient("s", 2)
//!     .build()
//!     .unwrap();
//!
//! // [H] -> [H/s]: enumerate canonical pooling-like operators lazily.
//! let spec = session.spec(&["H"], &["H/s"]).unwrap();
//! let first = session
//!     .synthesis(&spec, 3)
//!     .next()
//!     .expect("space is nonempty")
//!     .unwrap();
//! assert!(first.is_complete());
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use syno_core::error::{SynoError, SynthError};
use syno_core::size::{Size, MAX_VARS};
use syno_core::spec::{OperatorSpec, TensorShape};
use syno_core::synth::{Enumerator, SynthConfig, Synthesis};
use syno_core::var::{VarId, VarKind, VarTable};
use syno_search::SearchBuilder;
use syno_store::{CandidateSet, DeriveOp, Store, StoreBuilder};

/// Declares the symbolic-shape vocabulary and the store of a [`Session`].
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    vars: Vec<(String, VarKind, u64)>,
    store_path: Option<PathBuf>,
}

impl SessionBuilder {
    /// Declares a primary variable (a backbone dimension like `H` or
    /// `C_out`) with its value under the session's base valuation.
    pub fn primary(mut self, name: impl Into<String>, value: u64) -> Self {
        self.vars.push((name.into(), VarKind::Primary, value));
        self
    }

    /// Declares a coefficient variable (a tunable factor like a kernel size
    /// or stride) with its value under the base valuation.
    pub fn coefficient(mut self, name: impl Into<String>, value: u64) -> Self {
        self.vars.push((name.into(), VarKind::Coefficient, value));
        self
    }

    /// Attaches a persistent candidate store at `path` (created if
    /// missing, opened and recovered otherwise).
    ///
    /// With a store attached, every search run started through
    /// [`Session::search`]/[`Session::scenario`] journals its candidates,
    /// proxy scores, latencies, and checkpoints there, and recalls cached
    /// evaluations as [`SearchEvent::CacheHit`](syno_search::SearchEvent)
    /// instead of recomputing them — across sessions and process restarts.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Validates the declarations and builds the session.
    ///
    /// # Errors
    ///
    /// [`SynthError::InvalidConfig`] (as [`SynoError::Synth`]) for duplicate
    /// variable names, an empty vocabulary, or more than [`MAX_VARS`]
    /// variables.
    pub fn build(self) -> Result<Session, SynoError> {
        if self.vars.is_empty() {
            return Err(SynthError::InvalidConfig("no variables declared".into()).into());
        }
        if self.vars.len() > MAX_VARS {
            return Err(SynthError::InvalidConfig(format!(
                "{} variables declared, at most {MAX_VARS} allowed",
                self.vars.len()
            ))
            .into());
        }
        let mut table = VarTable::new();
        let mut ids: HashMap<String, VarId> = HashMap::new();
        for (name, kind, _) in &self.vars {
            if ids.contains_key(name) {
                return Err(SynthError::InvalidConfig(format!(
                    "variable '{name}' declared twice"
                ))
                .into());
            }
            ids.insert(name.clone(), table.declare(name, *kind));
        }
        let base: Vec<(VarId, u64)> = self
            .vars
            .iter()
            .map(|(name, _, value)| (ids[name], *value))
            .collect();
        table.push_valuation(base);
        let store = match &self.store_path {
            Some(path) => Some(Arc::new(
                StoreBuilder::new(path).open().map_err(SynoError::store)?,
            )),
            None => None,
        };
        Ok(Session {
            vars: table.into_shared(),
            ids,
            store,
        })
    }
}

/// The workspace facade: symbolic shapes plus an optional store.
///
/// A `Session` is cheap to clone (the variable table is shared) and hands
/// out both drivers of the reproduction:
///
/// * [`synthesis`](Session::synthesis) — the resumable Algorithm 1
///   enumerator ([`Synthesis`] yields one operator at a time);
/// * [`search`](Session::search) — a [`SearchBuilder`] bound to the
///   session's store, which streams
///   [`SearchEvent`](syno_search::SearchEvent)s and honors a step budget and
///   [`CancelToken`](syno_search::CancelToken)s.
#[derive(Clone, Debug)]
pub struct Session {
    vars: Arc<VarTable>,
    ids: HashMap<String, VarId>,
    store: Option<Arc<Store>>,
}

impl Session {
    /// Starts declaring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The shared variable table.
    pub fn vars(&self) -> &Arc<VarTable> {
        &self.vars
    }

    /// Looks up a declared variable by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.ids.get(name).copied()
    }

    /// A size term by name: `"H"`, or a quotient `"H/s"` (one `/`).
    ///
    /// # Errors
    ///
    /// [`SynthError::InvalidSpec`] for unknown variable names.
    pub fn size(&self, term: &str) -> Result<Size, SynoError> {
        let mk = |name: &str| -> Result<Size, SynoError> {
            self.var(name.trim()).map(Size::var).ok_or_else(|| {
                SynoError::from(SynthError::InvalidSpec(format!(
                    "unknown variable '{}'",
                    name.trim()
                )))
            })
        };
        match term.split_once('/') {
            Some((num, den)) => Ok(mk(num)?.div(&mk(den)?)),
            None => mk(term),
        }
    }

    /// Builds an operator specification from per-dimension size terms, e.g.
    /// `session.spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])`.
    ///
    /// # Errors
    ///
    /// [`SynthError::InvalidSpec`] for unknown variable names.
    pub fn spec(&self, input: &[&str], output: &[&str]) -> Result<OperatorSpec, SynoError> {
        let dims = |terms: &[&str]| -> Result<Vec<Size>, SynoError> {
            terms.iter().map(|t| self.size(t)).collect()
        };
        Ok(OperatorSpec::new(
            TensorShape::new(dims(input)?),
            TensorShape::new(dims(output)?),
        ))
    }

    /// A resumable synthesis driver for `spec` with auto-derived parameter
    /// candidates and at most `max_steps` primitives per operator.
    pub fn synthesis(&self, spec: &OperatorSpec, max_steps: usize) -> Synthesis {
        Enumerator::new(SynthConfig::auto(&self.vars, max_steps)).synthesis(&self.vars, spec)
    }

    /// A [`SearchBuilder`] with default settings; add scenarios with
    /// [`scenario`](Session::scenario) or directly on the returned builder,
    /// and set the run's devices, MCTS, proxy and evaluator threads there.
    /// When the session has a [store](SessionBuilder::store) attached, the
    /// builder journals to (and recalls from) it.
    pub fn search(&self) -> SearchBuilder {
        match &self.store {
            Some(store) => SearchBuilder::new().store(Arc::clone(store)),
            None => SearchBuilder::new(),
        }
    }

    /// Shorthand: a search builder with one scenario added.
    pub fn scenario(&self, label: &str, spec: &OperatorSpec) -> SearchBuilder {
        self.search().scenario(label, &self.vars, spec)
    }

    /// A search builder that *resumes* from the session store's
    /// journaled checkpoints (see
    /// [`SearchBuilder::resume_from`]): interrupted scenarios replay their
    /// completed prefix from the journal as cache hits, then continue.
    ///
    /// # Errors
    ///
    /// [`SynoError::Store`] when the session has no store attached.
    pub fn resume(&self) -> Result<SearchBuilder, SynoError> {
        Ok(SearchBuilder::new().resume_from(Arc::clone(self.repo()?)))
    }

    /// The session's persistent candidate store, if one was attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The named [`CandidateSet`] journaled under `label` in the session's
    /// repository. Every finished search scenario journals its discoveries
    /// as a set named after the scenario label, so
    /// `session.candidates("pool")` is the collection the `"pool"` run
    /// produced — the unit [`derive`](Session::derive) operates on.
    ///
    /// # Errors
    ///
    /// [`SynoError::Store`] when the session has no store attached or no
    /// set is journaled under `label`.
    pub fn candidates(&self, label: &str) -> Result<CandidateSet, SynoError> {
        let store = self.repo()?;
        store.candidate_set(label).ok_or_else(|| {
            SynoError::store(format!("no candidate set named {label:?} in the repository"))
        })
    }

    /// Derives a new named set in the session's repository: `op` applied
    /// to the sets `left` and `right`, journaled as `name` in one record
    /// that carries its lineage (e.g. `intersection(vision,lm)`).
    /// Deterministic — the same inputs derive byte-identical sets, here or
    /// in any other process sharing the repository.
    ///
    /// ```no_run
    /// # use syno::{DeriveOp, Session};
    /// # let session = Session::builder().primary("H", 16).build().unwrap();
    /// // Candidates both the vision and the LM run discovered:
    /// let shared = session.derive(DeriveOp::Intersection, "both", "vision", "lm")?;
    /// # Ok::<(), syno::SynoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SynoError::Store`] when the session has no store attached, an
    /// input set is missing, or the journal append fails.
    pub fn derive(
        &self,
        op: DeriveOp,
        name: &str,
        left: &str,
        right: &str,
    ) -> Result<CandidateSet, SynoError> {
        self.repo()?
            .derive(op, name, left, right)
            .map_err(SynoError::store)
    }

    fn repo(&self) -> Result<&Arc<Store>, SynoError> {
        self.store
            .as_ref()
            .ok_or_else(|| SynoError::store("session has no store attached"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_declares_vars_and_valuations() {
        let session = Session::builder()
            .primary("H", 16)
            .coefficient("s", 2)
            .build()
            .unwrap();
        assert_eq!(session.vars().valuation_count(), 1);
        assert!(session.var("H").is_some());
        assert!(session.var("nope").is_none());
    }

    #[test]
    fn duplicate_variable_is_a_typed_error() {
        let err = Session::builder()
            .primary("H", 16)
            .primary("H", 8)
            .build()
            .expect_err("must fail");
        assert!(matches!(err, SynoError::Synth(SynthError::InvalidConfig(_))));
    }

    #[test]
    fn seventeenth_variable_is_a_typed_error() {
        let declare = |count: usize| {
            (0..count).fold(Session::builder(), |b, i| b.primary(format!("v{i}"), 2))
        };
        assert!(declare(MAX_VARS).build().is_ok());
        let err = declare(MAX_VARS + 1).build().expect_err("must fail");
        assert!(matches!(err, SynoError::Synth(SynthError::InvalidConfig(_))));
    }

    #[test]
    fn spec_parses_quotient_terms() {
        let session = Session::builder()
            .primary("H", 16)
            .coefficient("s", 2)
            .build()
            .unwrap();
        let spec = session.spec(&["H"], &["H/s"]).unwrap();
        assert_eq!(spec.input.eval(session.vars(), 0), Some(vec![16]));
        assert_eq!(spec.output.eval(session.vars(), 0), Some(vec![8]));
        assert!(session.spec(&["Q"], &["H"]).is_err());
    }

    #[test]
    fn store_attaches_and_reports_stats() {
        let dir = std::env::temp_dir().join(format!("syno-session-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::builder()
            .primary("H", 16)
            .coefficient("s", 2)
            .store(dir.clone())
            .build()
            .unwrap();
        let stats = session.store().expect("store attached").stats();
        assert_eq!(stats.candidates, 0);
        assert!(session.resume().is_ok());

        let bare = Session::builder().primary("H", 16).build().unwrap();
        assert!(bare.store().is_none());
        assert!(matches!(
            bare.resume().unwrap_err(),
            SynoError::Store { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthesis_streams_operators() {
        let session = Session::builder()
            .primary("H", 16)
            .coefficient("s", 2)
            .build()
            .unwrap();
        let spec = session.spec(&["H"], &["H/s"]).unwrap();
        let ops: Vec<_> = session
            .synthesis(&spec, 3)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert!(!ops.is_empty());
        assert!(ops.iter().all(|g| g.is_complete()));
    }
}
