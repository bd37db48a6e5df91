//! Lightweight tracing spans: per-thread ring buffers, a drained span log,
//! and a flamegraph-style text summary.
//!
//! ## Recording model
//!
//! [`span`]/[`span_with`]/[`span!`](crate::span!) return an RAII
//! [`SpanGuard`]; the span is written to the recording thread's ring
//! buffer when the guard drops, so entering costs one clock read and a
//! thread-local depth bump, and *nothing at all* while telemetry is
//! disabled. Each thread owns a fixed-capacity ring
//! ([`RING_CAPACITY`] spans); when it wraps, the oldest spans are
//! overwritten and counted in [`dropped_total`] — tracing never blocks or
//! allocates unboundedly on the hot path.
//!
//! ## The trace log
//!
//! [`drain`] collects every thread's finished spans into a deterministic
//! order (by start time) as plain [`SpanRecord`]s; a consumer that wants a
//! file writes them in its own format (the benchmark writes JSON).
//!
//! Spans still open when [`drain`] runs are not included — they appear in
//! a later drain once their guards drop.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans retained per thread before the ring wraps and drops the oldest.
pub const RING_CAPACITY: usize = 8192;

/// One finished span, as drained from the ring buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `proxy_train`).
    pub name: String,
    /// Optional single attribute recorded at entry (e.g. `candidate` = hash).
    pub attr: Option<(String, u64)>,
    /// Recording thread, numbered by first-span order within the process.
    pub thread: u32,
    /// Nesting depth at entry (0 = top level) on the recording thread.
    pub depth: u32,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A span in flight, recorded into the thread's ring buffer on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at entry — then drop is free.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    attr_key: Option<&'static str>,
    attr_value: u64,
    depth: u32,
    start: Instant,
    start_ns: u64,
}

impl SpanGuard {
    /// Time elapsed since the span was entered, or [`Duration::ZERO`] for
    /// a guard created while telemetry was disabled (inert guards never
    /// read the clock). Call sites can therefore feed one measurement to
    /// both the trace and their own accounting and pay nothing when off.
    pub fn elapsed(&self) -> Duration {
        match &self.live {
            Some(live) => live.start.elapsed(),
            None => Duration::ZERO,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end_ns = now_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        with_thread_buf(|buf| {
            buf.push(RawSpan {
                name: live.name,
                attr_key: live.attr_key,
                attr_value: live.attr_value,
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns: end_ns.saturating_sub(live.start_ns),
            });
        });
    }
}

/// Enters a span. Free (returns an inert guard) while telemetry is
/// disabled.
pub fn span(name: &'static str) -> SpanGuard {
    enter(name, None, 0)
}

/// Enters a span carrying one `key = value` attribute.
pub fn span_with(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    enter(name, Some(key), value)
}

/// Enters a span: `span!("proxy_train")` or
/// `span!("proxy_train", candidate = hash)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::trace::span_with($name, stringify!($key), $value as u64)
    };
}

fn enter(name: &'static str, attr_key: Option<&'static str>, attr_value: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let start = Instant::now();
    SpanGuard {
        live: Some(LiveSpan {
            name,
            attr_key,
            attr_value,
            depth,
            start,
            start_ns: ns_since_epoch(start),
        }),
    }
}

#[derive(Clone, Copy, Debug)]
struct RawSpan {
    name: &'static str,
    attr_key: Option<&'static str>,
    attr_value: u64,
    depth: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's span ring. `slots` grows up to [`RING_CAPACITY`] and then
/// wraps, overwriting the oldest span.
#[derive(Debug)]
struct ThreadBuf {
    thread: u32,
    slots: Vec<RawSpan>,
    /// Index of the oldest retained span once the ring has wrapped.
    head: usize,
    wrapped: bool,
    dropped: u64,
}

impl ThreadBuf {
    fn push(&mut self, span: RawSpan) {
        if self.slots.len() < RING_CAPACITY {
            self.slots.push(span);
        } else {
            self.slots[self.head] = span;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    fn take(&mut self) -> Vec<RawSpan> {
        let mut out = Vec::with_capacity(self.slots.len());
        if self.wrapped {
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
        } else {
            out.extend_from_slice(&self.slots);
        }
        self.slots.clear();
        self.head = 0;
        self.wrapped = false;
        out
    }
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static LOCAL: OnceLock<Arc<Mutex<ThreadBuf>>> = const { OnceLock::new() };
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_thread_buf(f: impl FnOnce(&mut ThreadBuf)) {
    LOCAL.with(|local| {
        let buf = local.get_or_init(|| {
            static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
            let buf = Arc::new(Mutex::new(ThreadBuf {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                slots: Vec::new(),
                head: 0,
                wrapped: false,
                dropped: 0,
            }));
            registry()
                .lock()
                .expect("trace thread registry lock")
                .push(Arc::clone(&buf));
            buf
        });
        f(&mut buf.lock().expect("trace ring lock"));
    });
}

/// Process trace epoch: all span timestamps are nanoseconds since the
/// first span of the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

fn now_ns() -> u64 {
    ns_since_epoch(Instant::now())
}

/// Drains every thread's finished spans, ordered by
/// `(start_ns, thread, depth)` — deterministic for a given set of spans.
pub fn drain() -> Vec<SpanRecord> {
    let threads = registry().lock().expect("trace thread registry lock");
    let mut out = Vec::new();
    for buf in threads.iter() {
        let mut buf = buf.lock().expect("trace ring lock");
        let thread = buf.thread;
        for raw in buf.take() {
            out.push(SpanRecord {
                name: raw.name.to_string(),
                attr: raw.attr_key.map(|k| (k.to_string(), raw.attr_value)),
                thread,
                depth: raw.depth,
                start_ns: raw.start_ns,
                dur_ns: raw.dur_ns,
            });
        }
    }
    out.sort_by_key(|r| (r.start_ns, r.thread, r.depth));
    out
}

/// Discards all recorded spans and zeroes the drop counters.
pub fn clear() {
    let threads = registry().lock().expect("trace thread registry lock");
    for buf in threads.iter() {
        let mut buf = buf.lock().expect("trace ring lock");
        buf.take();
        buf.dropped = 0;
    }
}

/// Total spans lost to ring-buffer wrap-around since the last [`clear`].
pub fn dropped_total() -> u64 {
    registry()
        .lock()
        .expect("trace thread registry lock")
        .iter()
        .map(|buf| buf.lock().expect("trace ring lock").dropped)
        .sum()
}

// ---------------------------------------------------------------------------
// Flamegraph-style summary
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PathAgg {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

/// Renders a span log as an indented, flamegraph-style text summary:
/// every call path with its call count, total time, and self time (total
/// minus direct children). Paths sort lexicographically, which places
/// children directly under their parents; output is deterministic for a
/// given span log.
pub fn flame_summary(spans: &[SpanRecord]) -> String {
    // Reconstruct nesting per thread from (start, depth, duration): spans
    // are recorded at exit, but sorting by start puts parents before
    // children (equal starts break by depth), so a stack replay recovers
    // each span's enclosing path.
    let mut by_thread: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut agg: BTreeMap<String, PathAgg> = BTreeMap::new();
    for records in by_thread.values_mut() {
        records.sort_by_key(|r| (r.start_ns, r.depth));
        // (depth, end_ns, path)
        let mut stack: Vec<(u32, u64, String)> = Vec::new();
        for r in records.iter() {
            let end_ns = r.start_ns.saturating_add(r.dur_ns);
            while let Some((depth, parent_end, _)) = stack.last() {
                if *depth >= r.depth || *parent_end < end_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            let path = match stack.last() {
                Some((_, _, parent)) => {
                    let entry = agg.entry(parent.clone()).or_default();
                    entry.child_ns += r.dur_ns;
                    format!("{parent};{}", r.name)
                }
                None => r.name.clone(),
            };
            let entry = agg.entry(path.clone()).or_default();
            entry.calls += 1;
            entry.total_ns += r.dur_ns;
            stack.push((r.depth, end_ns, path));
        }
    }
    let mut out = format!(
        "trace summary: {} spans, {} dropped\n",
        spans.len(),
        dropped_total()
    );
    let _ = writeln!(out, "{:<40} {:>7} {:>12} {:>12}", "path", "calls", "total", "self");
    for (path, a) in &agg {
        let indent = 2 * path.bytes().filter(|b| *b == b';').count();
        let leaf = path.rsplit(';').next().unwrap_or(path);
        let label = format!("{:indent$}{leaf}", "");
        let _ = writeln!(
            out,
            "{label:<40} {:>7} {:>12} {:>12}",
            a.calls,
            fmt_ns(a.total_ns),
            fmt_ns(a.total_ns.saturating_sub(a.child_ns)),
        );
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;

    fn reset_tracing() {
        clear();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_lock();
        crate::set_enabled(false);
        reset_tracing();
        {
            let _s = span("quiet");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_drain_in_start_order() {
        let _guard = test_lock();
        crate::set_enabled(true);
        reset_tracing();
        {
            let _outer = span!("outer");
            let _inner = span!("inner", candidate = 42u64);
        }
        crate::set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].attr, Some(("candidate".to_string(), 42)));
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(drain().is_empty(), "drain consumes the buffers");
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = test_lock();
        crate::set_enabled(true);
        reset_tracing();
        for i in 0..(RING_CAPACITY + 10) {
            let _s = span_with("tick", "i", i as u64);
        }
        crate::set_enabled(false);
        let spans: Vec<_> = drain()
            .into_iter()
            .filter(|s| s.name == "tick")
            .collect();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(dropped_total(), 10);
        assert_eq!(
            spans[0].attr.as_ref().map(|(_, v)| *v),
            Some(10),
            "the 10 oldest spans were overwritten"
        );
        reset_tracing();
        assert_eq!(dropped_total(), 0, "clear zeroes the drop counter");
    }

    #[test]
    fn flame_summary_nests_children_under_parents() {
        let spans = vec![
            SpanRecord {
                name: "evaluate".to_string(),
                attr: None,
                thread: 0,
                depth: 0,
                start_ns: 0,
                dur_ns: 1_000_000,
            },
            SpanRecord {
                name: "proxy_train".to_string(),
                attr: None,
                thread: 0,
                depth: 1,
                start_ns: 100,
                dur_ns: 600_000,
            },
        ];
        let summary = flame_summary(&spans);
        assert!(summary.contains("evaluate"));
        assert!(summary.contains("  proxy_train"), "child is indented");
        assert!(summary.contains("0.600ms"), "child total time shown");
        assert!(
            summary.contains("0.400ms"),
            "parent self time excludes the child: {summary}"
        );
    }
}
