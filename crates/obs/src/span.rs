//! RAII trace spans, per-thread ring buffers and the Chrome-trace writer.
//!
//! Each thread records finished spans into its own ring buffer behind its
//! own mutex — pushes are uncontended; only [`drain_spans`] briefly locks
//! each buffer, so records are never torn even under heavy cross-thread
//! span traffic (see `tests/contention.rs`). Buffers are recycled when
//! threads exit, so short-lived worker threads (the tensor pool spawns
//! scoped workers per op) do not grow the buffer list without bound.
//!
//! # Causal tracing
//!
//! Spans carry a **trace id** in addition to their own id and same-thread
//! parent. A span opened with no context starts a new trace (trace id ==
//! its own span id); nested RAII spans inherit the enclosing trace. To
//! link work across threads, hand a [`TraceContext`] (trace id + parent
//! span id) to the other side explicitly and open the remote span with
//! [`span_child`]. Long-lived logical spans that cannot be RAII guards
//! (a request living across many router ticks) allocate their context up
//! front with [`alloc_root`] / [`alloc_child`] and are recorded
//! retroactively with [`emit_span`] once their duration is known.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::Json;

/// Finished spans retained per thread buffer; when a buffer is full the
/// oldest events are overwritten (and `obs.spans.dropped` counts them).
pub const RING_CAPACITY: usize = 1 << 16;

/// A span's position in a causal tree, safe to hand across threads: the
/// trace it belongs to and the span that caused the work. `Copy` so it
/// can ride in messages, jobs and queue entries without ceremony. With
/// recording off every allocation returns [`TraceContext::NONE`] and
/// propagation is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Trace id (the root span's id), or 0 for "no trace".
    pub trace: u64,
    /// The causing span's id, or 0.
    pub span: u64,
}

impl TraceContext {
    /// The absent context: belongs to no trace, causes nothing.
    pub const NONE: TraceContext = TraceContext { trace: 0, span: 0 };

    /// True when this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static for `span!`, owned for dynamic names).
    pub name: Cow<'static, str>,
    /// Process-local thread id (assigned in first-span order, from 1).
    pub tid: u64,
    /// Unique span id (from 1).
    pub id: u64,
    /// Id of the causing span (same-thread encloser or explicit remote
    /// parent), or 0 for roots.
    pub parent: u64,
    /// Id of the trace this span belongs to (== `id` for trace roots).
    pub trace: u64,
    /// Start time in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Key-value annotations (batch id, attempt number, …), emitted into
    /// the Chrome trace `args` object alongside the ids.
    pub args: Vec<(Cow<'static, str>, u64)>,
}

struct RingBuf {
    slots: Vec<SpanEvent>,
    /// Index of the oldest slot once the buffer has wrapped.
    head: usize,
}

struct Ring {
    inner: Mutex<RingBuf>,
    /// Events overwritten since the last [`take_dropped_spans`].
    dropped: AtomicU64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            inner: Mutex::new(RingBuf {
                slots: Vec::new(),
                head: 0,
            }),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: SpanEvent) {
        let mut buf = self.inner.lock().expect("span ring poisoned");
        if buf.slots.len() < RING_CAPACITY {
            buf.slots.push(ev);
        } else {
            let head = buf.head;
            buf.slots[head] = ev;
            buf.head = (head + 1) % RING_CAPACITY;
            drop(buf);
            self.dropped.fetch_add(1, Relaxed);
            crate::counter!("obs.spans.dropped").incr();
        }
    }

    fn take(&self) -> Vec<SpanEvent> {
        let mut buf = self.inner.lock().expect("span ring poisoned");
        let head = buf.head;
        buf.head = 0;
        let mut slots = std::mem::take(&mut buf.slots);
        // restore chronological order after a wrap
        slots.rotate_left(head);
        slots
    }
}

struct Globals {
    /// Every ring ever created, for draining.
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Rings whose thread has exited, available for reuse.
    free: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicU64,
    next_id: AtomicU64,
    epoch: Instant,
}

fn globals() -> &'static Globals {
    static G: OnceLock<Globals> = OnceLock::new();
    G.get_or_init(|| Globals {
        rings: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(0),
        next_id: AtomicU64::new(0),
        epoch: Instant::now(),
    })
}

/// Monotonic nanoseconds since the process's trace epoch (the first call
/// into the span layer).
pub fn now_ns() -> u64 {
    globals().epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

struct Local {
    ring: Arc<Ring>,
    tid: u64,
    /// `(span id, trace id)` of the currently open spans on this thread
    /// (innermost last).
    stack: Vec<(u64, u64)>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // recycle the ring (its recorded events survive for draining)
        if let Ok(mut free) = globals().free.lock() {
            free.push(self.ring.clone());
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let g = globals();
            let ring = g
                .free
                .lock()
                .expect("span registry poisoned")
                .pop()
                .unwrap_or_else(|| {
                    let r = Arc::new(Ring::new());
                    g.rings
                        .lock()
                        .expect("span registry poisoned")
                        .push(r.clone());
                    r
                });
            Local {
                ring,
                tid: g.next_tid.fetch_add(1, Relaxed) + 1,
                stack: Vec::new(),
            }
        });
        f(local)
    })
}

/// Allocates a fresh span id and makes a root context for a new trace.
/// Use for logical spans recorded later with [`emit_span`]. Returns
/// [`TraceContext::NONE`] when recording is off.
pub fn alloc_root() -> TraceContext {
    if !crate::enabled() {
        return TraceContext::NONE;
    }
    let id = globals().next_id.fetch_add(1, Relaxed) + 1;
    TraceContext {
        trace: id,
        span: id,
    }
}

/// Allocates a fresh span id under `parent`'s trace (a new trace when
/// `parent` is [`TraceContext::NONE`]). Returns the child's own context —
/// hand it onwards, then record the span with [`emit_span`].
pub fn alloc_child(parent: TraceContext) -> TraceContext {
    if !crate::enabled() {
        return TraceContext::NONE;
    }
    let id = globals().next_id.fetch_add(1, Relaxed) + 1;
    TraceContext {
        trace: if parent.trace == 0 { id } else { parent.trace },
        span: id,
    }
}

/// Records a logical span retroactively: `ctx` is its own pre-allocated
/// context ([`alloc_root`] / [`alloc_child`]), `parent_span` the causing
/// span's id (0 for roots), and `start_ns`/`dur_ns` its extent on the
/// [`now_ns`] clock. No-op when `ctx` is [`TraceContext::NONE`].
pub fn emit_span(
    name: impl Into<Cow<'static, str>>,
    ctx: TraceContext,
    parent_span: u64,
    start_ns: u64,
    dur_ns: u64,
    args: &[(&'static str, u64)],
) {
    if ctx.is_none() || !crate::enabled() {
        return;
    }
    let ev = SpanEvent {
        name: name.into(),
        tid: with_local(|l| l.tid),
        id: ctx.span,
        parent: parent_span,
        trace: ctx.trace,
        start_ns,
        dur_ns,
        args: args.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect(),
    };
    with_local(|l| l.ring.push(ev));
}

struct SpanRec {
    name: Cow<'static, str>,
    id: u64,
    parent: u64,
    trace: u64,
    start_ns: u64,
    args: Vec<(Cow<'static, str>, u64)>,
}

/// An open scoped timer; dropping it records a [`SpanEvent`]. Spans are
/// strictly LIFO per thread (the natural shape of RAII guards), which is
/// what makes parent tracking a simple thread-local stack. Cross-thread
/// causality comes from opening with [`span_child`] instead.
pub struct Span {
    rec: Option<SpanRec>,
}

impl Span {
    fn enter(name: Cow<'static, str>, remote: Option<TraceContext>) -> Span {
        if !crate::enabled() {
            return Span { rec: None };
        }
        let g = globals();
        let id = g.next_id.fetch_add(1, Relaxed) + 1;
        let (parent, trace) = with_local(|l| {
            let (local_parent, local_trace) = l.stack.last().copied().unwrap_or((0, 0));
            // An explicit remote context wins over lexical nesting; a span
            // with neither starts a new trace rooted at itself.
            let (parent, trace) = match remote {
                Some(ctx) if !ctx.is_none() => (ctx.span, ctx.trace),
                _ if local_parent != 0 => (local_parent, local_trace),
                _ => (0, id),
            };
            l.stack.push((id, trace));
            (parent, trace)
        });
        Span {
            rec: Some(SpanRec {
                name,
                id,
                parent,
                trace,
                start_ns: now_ns(),
                args: Vec::new(),
            }),
        }
    }

    /// This span's context (its trace and own id), for handing the causal
    /// link to other threads. [`TraceContext::NONE`] when recording is off.
    pub fn context(&self) -> TraceContext {
        match &self.rec {
            Some(rec) => TraceContext {
                trace: rec.trace,
                span: rec.id,
            },
            None => TraceContext::NONE,
        }
    }

    /// Attaches a key-value annotation, builder style:
    /// `span!("serve.batch").with_arg("size", n)`.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(rec) = &mut self.rec {
            rec.args.push((Cow::Borrowed(key), value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            let end = now_ns();
            with_local(|l| {
                debug_assert_eq!(
                    l.stack.last().map(|&(id, _)| id),
                    Some(rec.id),
                    "spans must drop in LIFO order"
                );
                l.stack.pop();
                l.ring.push(SpanEvent {
                    name: rec.name,
                    tid: l.tid,
                    id: rec.id,
                    parent: rec.parent,
                    trace: rec.trace,
                    start_ns: rec.start_ns,
                    dur_ns: end.saturating_sub(rec.start_ns),
                    args: rec.args,
                });
            });
        }
    }
}

/// Opens a span with a static name (the [`crate::span!`] macro's body).
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::enter(Cow::Borrowed(name), None)
}

/// Opens a span with an owned dynamic name.
#[inline]
pub fn span_owned(name: String) -> Span {
    Span::enter(Cow::Owned(name), None)
}

/// Opens a span with a borrowed dynamic name, cloning it only when
/// recording is actually on (hot paths with per-instance names).
#[inline]
pub fn span_dyn(name: &str) -> Span {
    if crate::enabled() {
        Span::enter(Cow::Owned(name.to_owned()), None)
    } else {
        Span::enter(Cow::Borrowed(""), None)
    }
}

/// Opens a span causally linked under `ctx` — the cross-thread form of
/// nesting. The span joins `ctx`'s trace with `ctx.span` as its parent
/// regardless of what is open on this thread.
#[inline]
pub fn span_child(name: &'static str, ctx: TraceContext) -> Span {
    Span::enter(Cow::Borrowed(name), Some(ctx))
}

/// Collects (and clears) every thread's recorded spans, sorted by start
/// time. Threads may keep recording concurrently; their new events land in
/// the next drain.
pub fn drain_spans() -> Vec<SpanEvent> {
    let rings: Vec<Arc<Ring>> = globals()
        .rings
        .lock()
        .expect("span registry poisoned")
        .clone();
    let mut out: Vec<SpanEvent> = rings.iter().flat_map(|r| r.take()).collect();
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// Total spans overwritten in full ring buffers since the last call
/// (summed across threads, reset to zero).
pub fn take_dropped_spans() -> u64 {
    globals()
        .rings
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|r| r.dropped.swap(0, Relaxed))
        .sum()
}

/// The trace output path from `YOLLO_TRACE_PATH`, if set.
pub fn trace_path_from_env() -> Option<PathBuf> {
    std::env::var("YOLLO_TRACE_PATH").ok().map(PathBuf::from)
}

/// Writes events as a Chrome `trace_event` JSON array — one complete
/// `"ph":"X"` event object per line, with the surrounding brackets on
/// their own lines, so the file is simultaneously line-oriented and a
/// single valid JSON document Perfetto / `chrome://tracing` can open.
/// Every event's `args` carries its span id, parent span id and trace id
/// (plus any [`Span::with_arg`] annotations), so causal trees can be
/// reassembled from the file alone ([`read_chrome_trace`]).
///
/// If ring buffers overwrote spans since the last accounting
/// ([`take_dropped_spans`]), a `"ph":"M"` metadata event named
/// `yollo.spans_dropped` records the count instead of losing it silently.
///
/// Missing parent directories of `path` are created first.
///
/// # Errors
/// Returns any I/O error.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[SpanEvent]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let dropped = take_dropped_spans();
    let spans = events.iter().map(|e| {
        let ids = [("id", e.id), ("parent", e.parent), ("trace", e.trace)];
        let args = ids
            .into_iter()
            .chain(e.args.iter().map(|(k, v)| (k.as_ref(), *v)))
            .map(|(k, v)| (k.to_owned(), Json::from(v)))
            .collect();
        Json::object([
            ("name", e.name.as_ref().into()),
            ("cat", "yollo".into()),
            ("ph", "X".into()),
            ("pid", 1u64.into()),
            ("tid", e.tid.into()),
            ("ts", (e.start_ns as f64 / 1000.0).into()),
            ("dur", (e.dur_ns as f64 / 1000.0).into()),
            ("args", Json::Object(args)),
        ])
    });
    let meta = (dropped > 0).then(|| {
        Json::object([
            ("name", "yollo.spans_dropped".into()),
            ("cat", "yollo".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", 0u64.into()),
            ("args", Json::object([("dropped", dropped.into())])),
        ])
    });
    let total = events.len() + usize::from(meta.is_some());
    let mut f = BufWriter::new(File::create(path)?);
    writeln!(f, "[")?;
    for (i, line) in spans.chain(meta).enumerate() {
        let comma = if i + 1 == total { "" } else { "," };
        writeln!(f, "{line}{comma}")?;
    }
    writeln!(f, "]")?;
    f.flush()
}

/// Reads a trace written by [`write_chrome_trace`] back into its span
/// events, in file order, skipping metadata events. `ts` and `dur` return
/// to exact nanoseconds (for times below 2^51 ns, about 26 days); the
/// annotations come back in key order.
///
/// # Errors
/// Returns any I/O error, and [`io::ErrorKind::InvalidData`] when the
/// file is not such a trace.
pub fn read_chrome_trace(path: impl AsRef<Path>) -> io::Result<Vec<SpanEvent>> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let doc = Json::parse(&std::fs::read_to_string(path)?).map_err(|e| invalid(e.to_string()))?;
    let items = doc
        .as_array()
        .ok_or_else(|| invalid("a trace is a JSON array".to_owned()))?;
    let mut events = Vec::new();
    for (i, v) in items.iter().enumerate() {
        if v["ph"].as_str() != Some("X") {
            continue;
        }
        let bad = |field: &str| invalid(format!("trace event {i}: bad or missing `{field}`"));
        let Json::Object(args) = &v["args"] else {
            return Err(bad("args"));
        };
        let id = |key: &str| args.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        // microseconds back to the nanoseconds they were divided from
        let ns = |key: &str| match v[key].as_f64() {
            Some(us) if us >= 0.0 => Ok((us * 1000.0).round() as u64),
            _ => Err(bad(key)),
        };
        let mut notes = Vec::new();
        for (k, a) in args {
            if !matches!(k.as_str(), "id" | "parent" | "trace") {
                notes.push((Cow::Owned(k.clone()), a.as_u64().ok_or_else(|| bad(k))?));
            }
        }
        events.push(SpanEvent {
            name: Cow::Owned(v["name"].as_str().ok_or_else(|| bad("name"))?.to_owned()),
            tid: v["tid"].as_u64().ok_or_else(|| bad("tid"))?,
            id: id("id")?,
            parent: id("parent")?,
            trace: id("trace")?,
            start_ns: ns("ts")?,
            dur_ns: ns("dur")?,
            args: notes,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draining is global, so every drain-dependent check runs inside this
    /// one test (parallel tests would steal each other's events).
    #[test]
    fn span_recording_and_drain() {
        crate::set_enabled(true);

        // -- nesting records parentage, trace membership and containment --
        {
            let _outer = crate::span!("test.span.outer");
            let _inner = crate::span!("test.span.inner");
        }
        let events = drain_spans();
        let inner = events
            .iter()
            .find(|e| e.name == "test.span.inner")
            .expect("inner span recorded");
        let outer = events
            .iter()
            .find(|e| e.name == "test.span.outer")
            .expect("outer span recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.trace, outer.id, "root span roots its own trace");
        assert_eq!(inner.trace, outer.trace, "nesting inherits the trace");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);

        // -- dynamic names --
        drop(span_owned(format!("test.span.dyn.{}", 7)));
        drop(span_dyn("test.span.dyn.borrowed"));
        let events = drain_spans();
        assert!(events.iter().any(|e| e.name == "test.span.dyn.7"));
        assert!(events.iter().any(|e| e.name == "test.span.dyn.borrowed"));

        // -- explicit contexts link spans across threads --
        let ctx = {
            let root = crate::span!("test.span.remote_root").with_arg("answer", 42);
            root.context()
        };
        assert!(!ctx.is_none());
        std::thread::spawn(move || {
            let _child = span_child("test.span.remote_child", ctx);
        })
        .join()
        .expect("remote child thread panicked");
        let events = drain_spans();
        let root = events
            .iter()
            .find(|e| e.name == "test.span.remote_root")
            .expect("remote root recorded");
        let child = events
            .iter()
            .find(|e| e.name == "test.span.remote_child")
            .expect("remote child recorded");
        assert_eq!(root.id, ctx.span);
        assert_eq!(root.trace, ctx.trace);
        assert_eq!(child.parent, root.id, "explicit context sets parentage");
        assert_eq!(child.trace, root.trace, "explicit context joins the trace");
        assert_ne!(child.tid, root.tid, "causality crossed threads");
        assert_eq!(root.args, vec![(Cow::Borrowed("answer"), 42)]);

        // -- logical spans: alloc up front, emit retroactively --
        let req = alloc_root();
        let attempt = alloc_child(req);
        assert_eq!(req.trace, req.span);
        assert_eq!(attempt.trace, req.trace);
        assert_ne!(attempt.span, req.span);
        emit_span(
            "test.span.logical_attempt",
            attempt,
            req.span,
            500,
            100,
            &[],
        );
        emit_span(
            "test.span.logical_req",
            req,
            0,
            400,
            300,
            &[("attempts", 1)],
        );
        let events = drain_spans();
        let lr = events
            .iter()
            .find(|e| e.name == "test.span.logical_req")
            .expect("logical root recorded");
        let la = events
            .iter()
            .find(|e| e.name == "test.span.logical_attempt")
            .expect("logical attempt recorded");
        assert_eq!(lr.id, req.span);
        assert_eq!(lr.parent, 0);
        assert_eq!((lr.start_ns, lr.dur_ns), (400, 300));
        assert_eq!(lr.args, vec![(Cow::Borrowed("attempts"), 1)]);
        assert_eq!(la.parent, lr.id);
        assert_eq!(la.trace, lr.trace);

        // -- ring overflow keeps the newest events --
        // (the drop-counter → metadata-event path is asserted in
        // tests/drop_metadata.rs, which owns its process and so cannot
        // race other tests for the global drop accounting)
        std::thread::spawn(|| {
            for i in 0..RING_CAPACITY + 10 {
                drop(span_owned(format!("test.span.overflow.{i}")));
            }
        })
        .join()
        .expect("overflow thread panicked");
        let events = drain_spans();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("test.span.overflow."))
            .collect();
        assert_eq!(mine.len(), RING_CAPACITY);
        let last = format!("test.span.overflow.{}", RING_CAPACITY + 9);
        assert!(mine.iter().any(|e| e.name == last.as_str()));
        assert!(!mine.iter().any(|e| e.name == "test.span.overflow.0"));
    }

    #[test]
    fn disabled_recording_yields_none_contexts() {
        // runtime-off allocations must be free and inert; flip the global
        // switch only around the checks to avoid starving parallel tests
        crate::set_enabled(false);
        let root = alloc_root();
        let child = alloc_child(root);
        crate::set_enabled(true);
        assert!(root.is_none());
        assert!(child.is_none());
        emit_span("test.span.disabled", TraceContext::NONE, 0, 0, 1, &[]);
    }

    #[test]
    fn chrome_trace_roundtrips_as_json() {
        crate::set_enabled(true);
        let events = vec![
            SpanEvent {
                name: Cow::Borrowed("a \"quoted\" name"),
                tid: 1,
                id: 1,
                parent: 0,
                trace: 1,
                start_ns: 1000,
                dur_ns: 500,
                args: Vec::new(),
            },
            SpanEvent {
                name: Cow::Borrowed("b"),
                tid: 2,
                id: 2,
                parent: 1,
                trace: 1,
                start_ns: 1200,
                dur_ns: 100,
                args: vec![(Cow::Borrowed("batch"), 7)],
            },
        ];
        let dir = std::env::temp_dir().join("yollo_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace_roundtrip.json");
        write_chrome_trace(&path, &events).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::Json::parse(&text).expect("valid JSON");
        let arr = parsed.as_array().expect("top-level array");
        let spans: Vec<_> = arr
            .iter()
            .filter(|v| v["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0]["name"].as_str(), Some("a \"quoted\" name"));
        assert_eq!(spans[0]["ts"].as_f64(), Some(1.0));
        assert_eq!(spans[0]["dur"].as_f64(), Some(0.5));
        assert_eq!(spans[1]["args"]["parent"].as_u64(), Some(1));
        assert_eq!(spans[1]["args"]["trace"].as_u64(), Some(1));
        assert_eq!(spans[1]["args"]["batch"].as_u64(), Some(7));
        // one event object per line between the brackets (a concurrent
        // test may have contributed a drop-metadata line)
        assert_eq!(text.lines().count(), 2 + arr.len());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chrome_trace_reads_back_to_the_same_events() {
        let ev = |name: &str, id, parent, start_ns, dur_ns, args: &[(&str, u64)]| SpanEvent {
            name: Cow::Owned(name.to_owned()),
            tid: id % 3 + 1,
            id,
            parent,
            trace: 1,
            start_ns,
            dur_ns,
            args: args
                .iter()
                .map(|&(k, v)| (Cow::Owned(k.to_owned()), v))
                .collect(),
        };
        let events = vec![
            ev("router.request", 1, 0, 0, 0, &[("seq", 0), ("outcome", 0)]),
            ev("a \"quoted\"\n name", 2, 1, 1, 999, &[]),
            ev("serve.exec", 3, 1, 1_234_567, 89, &[("batch", u64::MAX)]),
            // the largest times the microsecond text still carries exactly
            ev(
                "late",
                4,
                1,
                (1 << 51) - 1,
                (1 << 51) - 3,
                &[("z", 1), ("a", 2)],
            ),
        ];
        let path = std::env::temp_dir()
            .join(format!("yollo_obs_read_back_{}", std::process::id()))
            .join("trace.json");
        write_chrome_trace(&path, &events).unwrap();
        let mut back = read_chrome_trace(&path).expect("reads its own trace");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        let mut want = events;
        for e in want.iter_mut().chain(back.iter_mut()) {
            e.args.sort();
        }
        assert_eq!(back, want);
    }

    #[test]
    fn reading_a_non_trace_is_an_invalid_data_error() {
        let dir = std::env::temp_dir().join(format!("yollo_obs_bad_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, text) in [
            ("object.json", "{}"),
            ("truncated.json", "[{\"ph\":\"X\""),
            (
                "no_args.json",
                "[{\"ph\":\"X\",\"name\":\"a\",\"tid\":1,\"ts\":0.0,\"dur\":0.0}]",
            ),
        ] {
            std::fs::write(dir.join(file), text).unwrap();
            let err = read_chrome_trace(dir.join(file)).expect_err(file);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{file}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chrome_trace_creates_missing_parent_directories() {
        let root =
            std::env::temp_dir().join(format!("yollo_obs_trace_dirs_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let path = root.join("nested").join("deeper").join("trace.json");
        write_chrome_trace(&path, &[]).expect("writes into a missing nested directory");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(crate::Json::parse(&text)
            .expect("valid JSON")
            .as_array()
            .is_some());
        std::fs::remove_dir_all(&root).ok();
    }
}
