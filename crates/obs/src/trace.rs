//! Hierarchical tracing spans with per-thread lanes.
//!
//! A [`Span`] is an RAII guard: creating it stamps a monotonic start
//! time, dropping it records one *complete* slice (`ph: "X"` in the
//! Chrome trace model) into the process-global event buffer. Guards drop
//! in LIFO order per thread, so slices on one lane are always properly
//! nested — the invariant `rannc-plan obs-check` verifies.
//!
//! Every recording entry point checks [`crate::enabled`] *before*
//! touching the heap: a disabled span is `None` inside and its drop is a
//! no-op. [`alloc_count`] counts each record the tracing layer allocates
//! (slices, lane registrations), so tests can assert the disabled mode
//! allocated exactly nothing.
//!
//! Lanes: OS threads get a small stable id on first use ([`current_tid`]);
//! simulated actors (pipeline stages) get *virtual* lanes via [`lane`],
//! drawn from the same id space, so a simulator timeline renders in
//! Perfetto exactly like real threads do.

use crate::{enabled, now_us};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A span/slice argument value (rendered into the trace `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Integer argument.
    Int(i64),
    /// Float argument.
    Float(f64),
    /// String argument.
    Str(String),
}

/// One recorded complete slice.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Slice name (Perfetto's label).
    pub name: Cow<'static, str>,
    /// Category (`cat` field): "planner", "pipeline", "train", …
    pub cat: &'static str,
    /// Start, microseconds since the tracing epoch.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Lane id (OS thread or virtual lane).
    pub tid: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// `(tid, name)` pairs for named lanes/threads, in registration order.
static LANE_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Stable small id of the calling thread (assigned on first use).
pub fn current_tid() -> u64 {
    TID.with(|c| {
        let mut t = c.get();
        if t == u64::MAX {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(t);
        }
        t
    })
}

/// Name the calling thread's lane in trace exports. No-op while
/// tracing is disabled (the name is not even allocated).
pub fn set_thread_name(name: &str) {
    if !enabled() {
        return;
    }
    let tid = current_tid();
    let mut lanes = lock(&LANE_NAMES);
    if lanes.iter().any(|(t, _)| *t == tid) {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    lanes.push((tid, name.to_string()));
}

/// Allocate a named *virtual* lane (e.g. one per simulated pipeline
/// stage). Returns 0 without allocating while tracing is disabled.
pub fn lane(name: &str) -> u64 {
    if !enabled() {
        return 0;
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    lock(&LANE_NAMES).push((tid, name.to_string()));
    tid
}

/// An RAII tracing span; records one slice on the current thread's lane
/// when dropped. Create via [`span`] / [`span_owned`].
#[must_use = "a span records its slice when dropped; binding it to _ ends it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: Cow<'static, str>,
    cat: &'static str,
    start_us: f64,
    tid: u64,
    args: Vec<(&'static str, ArgVal)>,
}

/// Open a span named `name` in category `cat` on the current thread.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name: Cow::Borrowed(name),
            cat,
            start_us: now_us(),
            tid: current_tid(),
            args: Vec::new(),
        }),
    }
}

/// [`span`] with a runtime-built name. The name must be produced by the
/// caller *after* checking [`crate::enabled`] to keep disabled mode
/// allocation-free; prefer [`span`] + args where possible.
pub fn span_owned(name: String, cat: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name: Cow::Owned(name),
            cat,
            start_us: now_us(),
            tid: current_tid(),
            args: Vec::new(),
        }),
    }
}

impl Span {
    /// Attach an integer argument (no-op while disabled).
    pub fn arg_i(mut self, key: &'static str, v: i64) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.args.push((key, ArgVal::Int(v)));
        }
        self
    }

    /// Attach a float argument (no-op while disabled).
    pub fn arg_f(mut self, key: &'static str, v: f64) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.args.push((key, ArgVal::Float(v)));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = now_us();
            push_event(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                ts_us: inner.start_us,
                dur_us: (end - inner.start_us).max(0.0),
                tid: inner.tid,
                args: inner.args,
            });
        }
    }
}

/// Record a slice with explicit timing on an explicit lane — the bridge
/// for *simulated* timelines, whose clocks are not the wall clock. No-op
/// while tracing is disabled.
pub fn record_slice(
    tid: u64,
    name: Cow<'static, str>,
    cat: &'static str,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, ArgVal)>,
) {
    if !enabled() {
        return;
    }
    push_event(TraceEvent {
        name,
        cat,
        ts_us,
        dur_us,
        tid,
        args,
    });
}

fn push_event(e: TraceEvent) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    lock(&EVENTS).push(e);
}

/// Copy of the recorded events (oldest first).
pub fn snapshot_events() -> Vec<TraceEvent> {
    lock(&EVENTS).clone()
}

/// Take the recorded events, leaving the buffer empty.
pub fn drain_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *lock(&EVENTS))
}

/// Recorded event count.
pub fn event_count() -> usize {
    lock(&EVENTS).len()
}

/// Named lanes/threads registered so far, as `(tid, name)` pairs.
pub fn lane_names() -> Vec<(u64, String)> {
    lock(&LANE_NAMES).clone()
}

/// Total records the tracing layer has allocated since process start
/// (slices + lane registrations). Exactly 0 while tracing has never been
/// enabled — the zero-overhead guarantee pinned by
/// `obs_roundtrip::disabled_tracing_allocates_nothing_during_partition`.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Clear recorded events and lane names (test/bench isolation). Does not
/// reset [`alloc_count`], which is monotone by design.
pub fn reset() {
    lock(&EVENTS).clear();
    lock(&LANE_NAMES).clear();
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialize tests that touch the global tracing state. Public so
/// integration tests across crates can share the same lock.
pub fn test_guard() -> MutexGuard<'static, ()> {
    lock(&TEST_LOCK)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_allocate_nothing() {
        let _g = test_guard();
        crate::set_enabled(false);
        reset();
        let before = alloc_count();
        {
            let _s = span("noop", "test").arg_i("k", 1);
            let _o = span_owned(String::new(), "test");
            record_slice(0, Cow::Borrowed("x"), "test", 0.0, 1.0, Vec::new());
            set_thread_name("nobody");
            assert_eq!(lane("ghost"), 0);
        }
        assert_eq!(alloc_count(), before, "disabled tracing must not record");
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn spans_nest_on_one_lane() {
        let _g = test_guard();
        crate::set_enabled(true);
        reset();
        {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test").arg_i("depth", 1);
        }
        crate::set_enabled(false);
        let events = drain_events();
        assert_eq!(events.len(), 2);
        // inner drops first, so it is recorded first
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-3);
        assert_eq!(inner.args, vec![("depth", ArgVal::Int(1))]);
    }

    #[test]
    fn virtual_lanes_are_distinct_and_named() {
        let _g = test_guard();
        crate::set_enabled(true);
        reset();
        let a = lane("stage 0");
        let b = lane("stage 1");
        assert_ne!(a, b);
        record_slice(a, Cow::Borrowed("F0"), "pipeline", 0.0, 5.0, Vec::new());
        crate::set_enabled(false);
        let lanes = lane_names();
        assert!(lanes.iter().any(|(t, n)| *t == a && n == "stage 0"));
        assert!(lanes.iter().any(|(t, n)| *t == b && n == "stage 1"));
        assert_eq!(drain_events().len(), 1);
        reset();
    }
}
