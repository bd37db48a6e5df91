//! Feasible children shared by every search of one spec.
//!
//! A partial pGraph is a function of its variable table, its spec and its
//! action path from the root (`apply` is deterministic), so the children
//! guided synthesis keeps at it ([`Enumerator::feasible_children`]:
//! canonicalization, validity, shape distance) are a function of those and
//! the [`SynthConfig`]. A [`SynthMemo`] remembers them across searches:
//! one append-only trie of action lists per key, the bytes of
//! [`encode_spec`]`(vars, spec)` plus the `SynthConfig`, both compared
//! exactly (never a hash alone). Each searcher keeps its own tree
//! statistics, RNG and pending rewards; only the lists are shared, so a
//! search reads the lists it would have filtered itself and makes every
//! decision it would have made alone.
//!
//! ## Filling
//!
//! The filter runs outside the lock. Two searches that reach a new path at
//! once may both filter it; the first list stored stays and the other is
//! dropped (the lists are equal).
//!
//! ## Retention
//!
//! A run without a shared table gets a private one for its scenarios,
//! dropped with the run, so a one-scenario in-process search filters each
//! path once, as it always did.
//! The serving daemon holds one table for all its sessions and calls
//! [`SynthMemo::drop_unused`] whenever its last live session ends: the
//! memo of every spec no session held since the previous idle point is
//! dropped. Memory is so bounded by the specs in use since the previous
//! idle point, and each spec by its feasible tree (the paths of at most
//! `max_steps` actions).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use syno_core::codec::encode_spec;
use syno_core::graph::PGraph;
use syno_core::primitive::Action;
use syno_core::spec::OperatorSpec;
use syno_core::synth::{Enumerator, SynthConfig};
use syno_core::var::VarTable;

/// Feasible children by spec and action path, shared by the searches that
/// hold clones of it. Cheap to clone (an `Arc`); install one per daemon
/// (or per group of runs over the same specs) via
/// `SearchBuilder::synth_memo`. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct SynthMemo {
    specs: Arc<Mutex<Specs>>,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct Key {
    spec: Vec<u8>,
    config: SynthConfig,
}

#[derive(Debug)]
struct Held {
    memo: Arc<PathMemo>,
    /// Held by a search since the last idle point.
    used: bool,
}

#[derive(Debug, Default)]
struct Specs(HashMap<Key, Held>);

impl Drop for Specs {
    fn drop(&mut self) {
        syno_telemetry::gauge!("syno_search_synth_memo_specs").sub(self.0.len() as i64);
    }
}

impl SynthMemo {
    /// An empty table.
    pub fn new() -> SynthMemo {
        SynthMemo::default()
    }

    /// The trie of `spec` over `vars` filtered under `config`, created on
    /// first use; taking it marks it used until the next idle point.
    pub(crate) fn memo(
        &self,
        vars: &VarTable,
        spec: &OperatorSpec,
        config: &SynthConfig,
    ) -> Arc<PathMemo> {
        let key = Key {
            spec: encode_spec(vars, spec),
            config: config.clone(),
        };
        let mut specs = self.lock();
        let held = specs.0.entry(key).or_insert_with(|| {
            syno_telemetry::gauge!("syno_search_synth_memo_specs").add(1);
            Held {
                memo: Arc::default(),
                used: false,
            }
        });
        held.used = true;
        Arc::clone(&held.memo)
    }

    /// An idle point: drops the memo of every spec no search has held
    /// since the previous one. (A search that takes a memo while the idle
    /// point runs holds it past it, so it counts for the next one too.)
    pub fn drop_unused(&self) {
        let mut specs = self.lock();
        let before = specs.0.len();
        specs.0.retain(|_, held| {
            let holding = Arc::strong_count(&held.memo) > 1;
            std::mem::replace(&mut held.used, holding) || holding
        });
        let dropped = before - specs.0.len();
        syno_telemetry::gauge!("syno_search_synth_memo_specs").sub(dropped as i64);
    }

    /// Number of specs whose memo the table holds.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().0.len()
    }

    fn lock(&self) -> MutexGuard<'_, Specs> {
        self.specs.lock().expect("synth memo lock")
    }
}

/// One key's feasible children by action path: a trie whose entry 0 is the
/// root. Entries are only ever added, and a list once stored never
/// changes, so an entry index stays valid for every search holding the
/// trie.
#[derive(Debug)]
pub(crate) struct PathMemo {
    pub(crate) entries: Mutex<Vec<MemoEntry>>,
}

#[derive(Debug, Default)]
pub(crate) struct MemoEntry {
    /// The state's feasible children, once some search asked for them.
    pub(crate) children: Option<Arc<[Action]>>,
    /// `(pick, entry)` for every child a search has taken from here.
    pub(crate) taken: Vec<(usize, usize)>,
}

impl Default for PathMemo {
    fn default() -> Self {
        PathMemo {
            entries: Mutex::new(vec![MemoEntry::default()]),
        }
    }
}

impl PathMemo {
    /// The feasible children of `state`, the state at `entry`'s path, and
    /// whether this call ran the filter: a stored list is returned as is;
    /// otherwise the filter runs, outside the lock, and its list is stored
    /// unless another search stored one first.
    pub(crate) fn children(
        &self,
        entry: usize,
        state: &PGraph,
        enumerator: &Enumerator,
    ) -> (Arc<[Action]>, bool) {
        if let Some(list) = &self.lock()[entry].children {
            syno_telemetry::counter!("syno_search_synth_memo_hits_total").inc();
            return (Arc::clone(list), false);
        }
        let filtered = enumerator.feasible_children(state).into();
        (self.fill(entry, filtered), true)
    }

    /// Stores `list` as `entry`'s children unless a list is there already;
    /// returns the stored one.
    pub(crate) fn fill(&self, entry: usize, list: Arc<[Action]>) -> Arc<[Action]> {
        let mut entries = self.lock();
        let stored = entries[entry].children.get_or_insert_with(|| {
            syno_telemetry::counter!("syno_search_synth_memo_fills_total").inc();
            list
        });
        Arc::clone(stored)
    }

    /// The entry of child `pick` of `entry`, added on first use, and the
    /// child's list if one is stored: a walk takes the next state's
    /// children under the same lock as the step to it.
    pub(crate) fn child(&self, entry: usize, pick: usize) -> (usize, Option<Arc<[Action]>>) {
        let mut entries = self.lock();
        let known = entries[entry].taken.iter().find(|&&(p, _)| p == pick);
        let child = match known {
            Some(&(_, child)) => child,
            None => {
                let child = entries.len();
                entries.push(MemoEntry::default());
                entries[entry].taken.push((pick, child));
                child
            }
        };
        (child, entries[child].children.clone())
    }

    fn lock(&self) -> MutexGuard<'_, Vec<MemoEntry>> {
        self.entries.lock().expect("path memo lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use syno_core::prelude::*;

    /// The pool spec `[H] → [H / s]` over a table whose two variables are
    /// named `names` and declared with `kinds`.
    fn pool(names: [&str; 2], kinds: [VarKind; 2]) -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let h = vars.declare(names[0], kinds[0]);
        let s = vars.declare(names[1], kinds[1]);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        (vars.into_shared(), spec)
    }

    const PRIMARY_COEFF: [VarKind; 2] = [VarKind::Primary, VarKind::Coefficient];

    #[test]
    fn specs_differing_in_a_name_or_a_kind_get_separate_memos() {
        let table = SynthMemo::new();
        let (vars, spec) = pool(["H", "s"], PRIMARY_COEFF);
        let config = SynthConfig::auto(&vars, 3);
        let memo = table.memo(&vars, &spec, &config);
        // An equal table built apart shares the memo.
        let (again, again_spec) = pool(["H", "s"], PRIMARY_COEFF);
        assert!(Arc::ptr_eq(
            &memo,
            &table.memo(&again, &again_spec, &config)
        ));

        let (renamed, renamed_spec) = pool(["G", "s"], PRIMARY_COEFF);
        let (rekinded, rekinded_spec) = pool(["H", "s"], [VarKind::Primary; 2]);
        for (vars, spec) in [(renamed, renamed_spec), (rekinded, rekinded_spec)] {
            assert!(!Arc::ptr_eq(&memo, &table.memo(&vars, &spec, &config)));
        }
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn configs_differing_in_max_steps_or_max_flops_get_separate_memos() {
        let table = SynthMemo::new();
        let (vars, spec) = pool(["H", "s"], PRIMARY_COEFF);
        let config = SynthConfig::auto(&vars, 3);
        let memo = table.memo(&vars, &spec, &config);
        let deeper = SynthConfig {
            max_steps: 4,
            ..config.clone()
        };
        let capped = SynthConfig {
            max_flops: Some(1 << 20),
            ..config.clone()
        };
        for other in [deeper, capped] {
            assert!(!Arc::ptr_eq(&memo, &table.memo(&vars, &spec, &other)));
        }
        assert!(Arc::ptr_eq(&memo, &table.memo(&vars, &spec, &config)));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn a_memo_unused_between_two_idle_points_is_dropped_at_the_second() {
        let table = SynthMemo::new();
        let (vars, spec) = pool(["H", "s"], PRIMARY_COEFF);
        let (coarse, fine) = (SynthConfig::auto(&vars, 3), SynthConfig::auto(&vars, 4));
        // Two searches take a memo each and end before the idle point.
        let kept = Arc::downgrade(&table.memo(&vars, &spec, &coarse));
        let unused = Arc::downgrade(&table.memo(&vars, &spec, &fine));
        table.drop_unused();
        assert_eq!(table.len(), 2, "both were used before that idle point");

        // Only the coarse memo is used before the next one.
        drop(table.memo(&vars, &spec, &coarse));
        table.drop_unused();
        assert_eq!(table.len(), 1);
        assert!(kept.upgrade().is_some());
        assert!(unused.upgrade().is_none(), "the unused memo is dropped");

        // A memo a search holds is in use at every idle point it spans,
        // and at the first one after the search lets it go.
        let held = table.memo(&vars, &spec, &coarse);
        assert!(Arc::ptr_eq(&held, &kept.upgrade().unwrap()));
        for _ in 0..3 {
            table.drop_unused();
        }
        drop(held);
        table.drop_unused();
        assert_eq!(table.len(), 1);
        table.drop_unused();
        assert_eq!(table.len(), 0);
    }

    /// Both threads filter the root and store their list at once: one list
    /// is kept, both get it, and it is the filter's.
    #[test]
    fn racing_fills_keep_one_list() {
        let (vars, spec) = pool(["H", "s"], PRIMARY_COEFF);
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let root = PGraph::new(vars, spec);
        let memo = PathMemo::default();
        let barrier = Barrier::new(2);
        let fill = || {
            let list: Arc<[Action]> = enumerator.feasible_children(&root).into();
            barrier.wait();
            memo.fill(0, list)
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(fill);
            let b = scope.spawn(fill);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "one list is kept");
        assert_eq!(*a, *enumerator.feasible_children(&root));
        let stored = memo.entries.lock().unwrap()[0].children.clone().unwrap();
        assert!(Arc::ptr_eq(&a, &stored));
        // A later ask takes the stored list without filtering.
        let (again, filtered) = memo.children(0, &root, &enumerator);
        assert!(Arc::ptr_eq(&a, &again) && !filtered);
    }
}
