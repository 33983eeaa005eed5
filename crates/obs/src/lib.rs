//! # rannc-obs
//!
//! Unified observability substrate for the RaNNC reproduction: tracing
//! spans, a typed metrics registry, and pluggable exporters — with zero
//! external dependencies and zero overhead while disabled.
//!
//! The crate has two layers with different cost contracts:
//!
//! * **Tracing** ([`trace`]) — hierarchical spans with monotonic
//!   timestamps and per-thread lanes, recorded into a process-global
//!   buffer and exportable as a Chrome-trace (`chrome://tracing` /
//!   Perfetto) JSON or a JSONL event log. Recording is gated on the
//!   global [`enabled`] flag, which is checked *before any allocation*:
//!   a span guard created while disabled is a no-op holding no data.
//!   [`trace::alloc_count`] counts every tracing-side allocation so
//!   tests can assert the disabled mode truly allocates nothing.
//! * **Metrics** ([`metrics`]) — named counters, gauges and log-bucket
//!   histograms backed by atomics. Handles are registered once per name;
//!   bumping a handle is a single atomic op and never allocates, so the
//!   registry stays live even when tracing is disabled (it feeds
//!   `--planner-stats`, which predates this crate).
//!
//! Exporters live in [`sink`]; a minimal JSON reader used by the
//! validators (and by `rannc-plan obs-check`) lives in [`json`]; the
//! trace/metrics/explain file validators live in [`check`].
//!
//! A third layer with the same cost contract as tracing is the plan
//! flight [`recorder`]: decision-level telemetry of the partition search
//! (every swept candidate, the winner's cost attribution, pruning and
//! cache accounting), serialized to the frozen `rannc_explain` schema v1
//! and rendered by [`explain`] for the `rannc-plan explain` subcommand.
//!
//! ```
//! use rannc_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _root = obs::trace::span("partition", "planner");
//!     let _child = obs::trace::span("coarsen", "planner");
//!     obs::metrics::counter("demo.candidates").add(3);
//! }
//! let trace = obs::sink::chrome_trace_json(&obs::trace::snapshot_events());
//! assert!(trace.contains("\"coarsen\""));
//! obs::set_enabled(false);
//! ```

pub mod check;
pub mod explain;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-global tracing switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process epoch all trace timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turn tracing on or off process-wide. Metrics counters are unaffected
/// (they are always live); only span/event *recording* is gated.
pub fn set_enabled(on: bool) {
    if on {
        // pin the epoch before the first event so timestamps are
        // monotonic from the moment tracing starts
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process tracing epoch.
#[inline]
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        // tests in this crate serialize on the trace-state lock instead
        let _g = trace::test_guard();
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
