//! # syno-telemetry — dependency-free tracing spans and metrics
//!
//! The search loop's value proposition is evaluating huge candidate spaces
//! fast, which makes *where the time goes* a first-class question: is a run
//! bottlenecked on synthesis, proxy training, latency tuning, or store I/O?
//! This crate is the measurement substrate the rest of the workspace
//! reports through. It has two halves, both built on `std` only (the same
//! no-crates.io constraint as `crates/shims`):
//!
//! * [`trace`] — lightweight spans ([`span!`]) recorded into per-thread
//!   ring buffers and drained into a structured span log
//!   ([`trace::drain`]), plus a flamegraph-style text summary
//!   ([`trace::flame_summary`]);
//! * [`metrics`] — a process-global registry of named counters, gauges,
//!   and fixed-bucket histograms (atomics only on the hot path),
//!   snapshotable as a deterministic, sorted Prometheus exposition dump
//!   ([`metrics::Registry::render`]).
//!
//! ## Out-of-band by construction
//!
//! Telemetry observes the search; it never steers it. No measured duration
//! or counter value feeds back into candidate selection, ordering, or
//! scoring, so the workspace determinism contract (bit-identical candidate
//! sets serial vs pipelined vs served) holds with tracing enabled — CI
//! asserts exactly that. Timestamps come from a process-local monotonic
//! epoch and appear only in telemetry artifacts.
//!
//! ## Overhead policy
//!
//! Telemetry starts **disabled**. Every hot-path operation (counter
//! increment, span enter) first does one relaxed atomic load of the global
//! enable flag and branches away, so a disabled registry costs a predicted
//! branch per site — near-zero. Enabling is explicit ([`set_enabled`]) and
//! process-wide. Enabled spans cost two monotonic clock reads plus one
//! uncontended per-thread mutex lock on exit: ≈130 ns a span, and an
//! end-to-end cost on search throughput inside run-to-run noise (the
//! benchmark's `telemetry.trace.span_ns` and `telemetry.trace.overhead_frac`,
//! −0.03…+0.04).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide telemetry enable flag. Disabled at startup.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry on or off for the whole process. Affects both halves:
/// metric mutations and span recording become no-ops while disabled.
/// Registrations (metric handles) always succeed so call sites never need
/// to branch themselves.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// `true` when telemetry is recording. One relaxed load — this is the
/// branch every hot-path operation takes first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded state — metric values (registrations survive) and
/// every thread's span ring buffer — so a test or bench can compare two
/// runs from a clean slate.
pub fn reset() {
    metrics::global().reset();
    trace::clear();
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_flag_round_trips() {
        // Serialised with the other global-state tests via the metrics
        // test lock.
        let _guard = crate::metrics::test_lock();
        crate::set_enabled(true);
        assert!(crate::enabled());
        crate::set_enabled(false);
        assert!(!crate::enabled());
    }
}
