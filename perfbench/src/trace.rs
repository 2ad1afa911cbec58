//! Outside-in span tracing.
//!
//! The benchmark wraps each call it makes into a layer's public function in
//! a span: name, start, end, parent span and operation id. Spans live in a
//! thread-local buffer while a thread runs, move to one process-wide list
//! when the thread calls [`flush_thread`], and are written out once at exit.
//! Nothing inside the measured program is instrumented. With tracing off
//! (the default, and every end-to-end run) [`span`] and [`op`] cost one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::stats::{median, percentile};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation (0: none);
    /// unique across threads.
    pub op: u64,
    pub thread: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Local {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    ops_started: u64,
    thread: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
        ops_started: 0,
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
    });
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Handle of a recorded span, for renaming it once its outcome is known.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Runs `f` inside a span and returns the span's handle with the result.
pub fn span_id<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId) {
    if !enabled() {
        return (f(), SpanId(None));
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: l.stack.last().copied(),
            op: l.op,
            thread: l.thread,
        };
        l.spans.push(span);
        let idx = l.spans.len() - 1;
        l.stack.push(idx);
        idx
    });
    // The clock is read right around `f`, so the recorder's own
    // bookkeeping shows as the parent's self time, not as this span's.
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        let span = &mut l.spans[idx];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    });
    (result, SpanId(Some(idx)))
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_id(name, f).0
}

/// Renames a span this thread recorded (no-op with tracing off).
pub fn rename(id: SpanId, name: &'static str) {
    if let SpanId(Some(idx)) = id {
        LOCAL.with(|l| l.borrow_mut().spans[idx].name = name);
    }
}

/// Runs `f` as one operation: a root span under a fresh operation id that
/// every span opened inside it shares.
pub fn op<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let outer = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.ops_started += 1;
        let id = (l.thread + 1) << 40 | l.ops_started;
        std::mem::replace(&mut l.op, id)
    });
    let result = span(name, f);
    LOCAL.with(|l| l.borrow_mut().op = outer);
    result
}

/// Moves this thread's finished spans to the process-wide list.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(l.stack.is_empty(), "flush inside an open span");
        std::mem::take(&mut l.spans)
    });
    let mut all = COLLECTED.lock().expect("span list lock: a tracing thread panicked");
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Flushes this thread and takes every span recorded so far.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().expect("span list lock: a tracing thread panicked"))
}

/// Durations in milliseconds of every span with this name.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Per span, the summed duration of its direct children.
fn child_time_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    covered
}

/// Median over operation root spans (names starting `op.`) of the share of
/// the root's wall time its direct child spans cover.
pub fn attributed_share(spans: &[Span]) -> f64 {
    let covered = child_time_ns(spans);
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name.starts_with("op.") && s.end_ns > s.start_ns)
        .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
        .collect();
    median(&shares)
}

/// Self time in milliseconds of every span with this name: its duration
/// minus the part its direct children cover.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let covered = child_time_ns(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(covered[i]) as f64 / 1e6)
        .collect()
}

/// Per span name: count, p50/p99 duration, total and self time.
pub fn summary(spans: &[Span]) -> Json {
    let mut names: BTreeMap<&str, ()> = BTreeMap::new();
    for s in spans {
        names.insert(s.name, ());
    }
    Json::obj(names.keys().map(|&name| {
        let d = durations_ms(spans, name);
        let own = self_ms(spans, name);
        (
            name,
            Json::obj([
                ("count", Json::num(d.len() as f64)),
                ("p50_ms", Json::num(percentile(&d, 0.5))),
                ("p99_ms", Json::num(percentile(&d, 0.99))),
                ("total_ms", Json::num(d.iter().sum::<f64>())),
                ("self_ms", Json::num(own.iter().sum::<f64>())),
            ]),
        )
    }))
}

/// Every span as one JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::num(i as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::num(s.start_ns as f64)),
            ("end_ns", Json::num(s.end_ns as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
            ("op", Json::num(s.op as f64)),
            ("thread", Json::num(s.thread as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_operation_and_attribute_children() {
        let spans = vec![
            Span { name: "op.x", start_ns: 0, end_ns: 100, parent: None, op: 1, thread: 0 },
            Span { name: "a", start_ns: 0, end_ns: 60, parent: Some(0), op: 1, thread: 0 },
            Span { name: "b", start_ns: 60, end_ns: 90, parent: Some(0), op: 1, thread: 0 },
            Span { name: "c", start_ns: 10, end_ns: 20, parent: Some(1), op: 1, thread: 0 },
        ];
        assert!((attributed_share(&spans) - 0.9).abs() < 1e-12);
        assert_eq!(self_ms(&spans, "a"), vec![50.0 / 1e6]);
        assert_eq!(durations_ms(&spans, "b"), vec![30.0 / 1e6]);
    }
}
