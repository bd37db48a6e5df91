//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (no span is added inside `crates/*`): name, start, end, the span that
//! caused it, and the workload/unit it belongs to. They are kept in memory
//! and written out once, when the traced pass ends. A layer's self time is
//! its span's duration minus the part of that interval its children cover.
//!
//! The program's own `syno-telemetry` spans carry a thread and a nesting
//! depth instead of a parent id; [`link_program_spans`] turns them into the
//! same shape so one self-time rule serves both.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use syno::telemetry::trace::SpanRecord;

/// One finished span. Ids start at 1; `parent` 0 means top level.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. A disabled recorder hands out inert guards, so the
/// untraced repeats pay one branch per call site.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span in flight; recorded on drop.
pub struct Guard<'r> {
    rec: &'r Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    unit: u64,
    start_ns: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Enters a span caused by `parent` (0 = top level).
    pub fn enter(&self, name: &'static str, parent: u64, unit: u64) -> Guard<'_> {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            rec: self,
            id,
            parent,
            name,
            unit,
            start_ns: if self.on { self.now_ns() } else { 0 },
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn within<T>(
        &self,
        name: &'static str,
        parent: u64,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _guard = self.enter(name, parent, unit);
        f()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink lock"))
    }
}

impl Guard<'_> {
    /// The id children name as their parent (0 while recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_owned(),
            unit: self.unit,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
        };
        // A poisoned sink means a recording thread panicked; losing spans
        // is better than a second panic during unwinding.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time per span id: duration minus the union of the children's
/// intervals, each clipped to the parent (children on other threads may
/// overlap each other or outlive the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            let mut kids = children.get(&span.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, span.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Gives the program's drained spans parent ids: on each thread a span's
/// parent is the innermost shallower span still open when it starts. Ids
/// continue from `first_id`.
pub fn link_program_spans(records: &[SpanRecord], first_id: u64, unit: u64) -> Vec<Span> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (records[i].thread, records[i].start_ns, records[i].depth));
    let mut out = Vec::with_capacity(records.len());
    // (thread, depth, end_ns, id) of the spans open on the current thread.
    let mut open: Vec<(u32, u32, u64, u64)> = Vec::new();
    for (n, &i) in order.iter().enumerate() {
        let r = &records[i];
        let end_ns = r.start_ns + r.dur_ns;
        while open.last().is_some_and(|&(thread, depth, end, _)| {
            thread != r.thread || depth >= r.depth || end <= r.start_ns
        }) {
            open.pop();
        }
        let id = first_id + n as u64;
        out.push(Span {
            id,
            parent: open.last().map_or(0, |&(_, _, _, id)| id),
            name: r.name.clone(),
            unit,
            start_ns: r.start_ns,
            end_ns,
        });
        open.push((r.thread, r.depth, end_ns, id));
    }
    out
}

/// Calls, total and self nanoseconds per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let row = table.entry(span.name.clone()).or_default();
        row.0 += 1;
        row.1 += span.dur_ns();
        row.2 += selfs.get(&span.id).copied().unwrap_or(0);
    }
    table
}

/// The trace file: the benchmark's spans in full, the program's spans as a
/// per-name summary (a traced unit emits tens of thousands of them).
pub fn trace_document(workload: &str, own: &[Span], program: &[Span]) -> Json {
    let selfs = self_times(own);
    let summary = |table: BTreeMap<String, (u64, u64, u64)>| {
        Json::Arr(
            table
                .into_iter()
                .map(|(name, (calls, total, own))| {
                    Json::obj([
                        ("name", Json::Str(name)),
                        ("calls", Json::Num(calls as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "spans",
            Json::Arr(
                own.iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("name", Json::Str(s.name.clone())),
                            ("unit", Json::Num(s.unit as f64)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(selfs[&s.id] as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("span_summary", summary(summarize(own))),
        ("program_span_summary", summary(summarize(program))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 1: [0,100) ⊃ 2: [10,40) ⊃ 3: [20,30); 4: [50,60) under 1.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 30),
            span(4, 1, 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Two tenant threads under one unit: [10,60) and [40,90) overlap by
        // 20; a third child outlives the parent and is clipped at 100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 90),
            span(4, 1, 95, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 80 - 5);
        assert_eq!(selfs[&4], 35);
    }

    #[test]
    fn recorder_links_children_to_parents_and_is_inert_when_off() {
        let rec = Recorder::new(true);
        {
            let outer = rec.enter("outer", 0, 3);
            rec.within("inner", outer.id(), 3, || ());
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(
            (inner.name.as_str(), outer.name.as_str()),
            ("inner", "outer")
        );
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.unit, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Recorder::new(false);
        off.within("x", 0, 0, || ());
        assert!(off.take().is_empty());
    }

    #[test]
    fn program_spans_are_linked_by_thread_and_depth() {
        let record = |name: &str, thread, depth, start_ns, dur_ns| SpanRecord {
            name: name.into(),
            attr: None,
            thread,
            depth,
            start_ns,
            dur_ns,
        };
        let records = [
            record("evaluate", 1, 0, 0, 100),
            record("proxy_train", 1, 1, 10, 50),
            record("latency_tune", 1, 1, 70, 20),
            record("synthesis", 2, 0, 5, 30),
            record("evaluate", 1, 0, 200, 10),
        ];
        let spans = link_program_spans(&records, 100, 0);
        let by_name = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let evaluate = by_name("evaluate")[0];
        assert_eq!(by_name("proxy_train")[0].parent, evaluate.id);
        assert_eq!(by_name("latency_tune")[0].parent, evaluate.id);
        assert_eq!(by_name("synthesis")[0].parent, 0);
        assert_eq!(by_name("evaluate")[1].parent, 0);
        let table = summarize(&spans);
        assert_eq!(table["evaluate"], (2, 110, 40));
        assert_eq!(table["proxy_train"], (1, 50, 50));
    }
}
