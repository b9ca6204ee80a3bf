//! Telemetry for the YOLLO stack: cheap atomic metrics, RAII trace spans
//! and pluggable sinks — with zero dependencies, so every crate from the
//! tensor substrate up can afford to be on its build path.
//!
//! # Pieces
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) live in a global
//!   [`Registry`] and are updated with relaxed atomics. The [`counter!`],
//!   [`gauge!`] and [`histogram!`] macros cache the `&'static` handle per
//!   call site in a `OnceLock`, so after the first hit the fast path is one
//!   atomic load plus one atomic RMW — no locks, no allocation. Histograms
//!   use 64 log2-scaled buckets (one per power of two), sized for
//!   nanosecond latencies.
//! - **Spans** ([`span!`], [`Span`]) are RAII scoped timers. Dropping a
//!   span records a [`SpanEvent`] (name, thread id, start, duration,
//!   parent span) into a per-thread ring buffer; each thread locks only
//!   its own — uncontended — buffer. [`drain_spans`] collects every
//!   thread's events and [`write_chrome_trace`] writes them in Chrome
//!   `trace_event` JSON (one event per line; the whole file is a valid
//!   JSON array) loadable in Perfetto / `chrome://tracing`.
//! - **Traces** causally link spans across threads: a [`TraceContext`]
//!   (trace id + parent span id) is handed across explicitly and opened
//!   with [`span_child`], or pre-allocated ([`alloc_root`] /
//!   [`alloc_child`]) and recorded retroactively with [`emit_span`] for
//!   long-lived logical spans. [`TraceExemplars`] retains the slowest-K
//!   complete traces for tail-latency forensics.
//! - **Sinks** ([`MetricsSink`], [`JsonlFileSink`], [`MemorySink`],
//!   [`PeriodicSnapshotter`]) turn registry [`Snapshot`]s into JSONL for
//!   long training runs.
//! - **JSON** ([`Json`]): the workspace's one JSON value, writer and
//!   parser, compiled with or without the `enabled` feature; the trace and
//!   snapshot writers below share its escape and float routines.
//! - **Streaming accounting** ([`Fingerprint64`], [`StreamHistogram`])
//!   for deterministic simulations: plain single-owner accumulators that
//!   record unconditionally (never silenced by the switches below), so a
//!   million-event run can be reconciled and fingerprinted in constant
//!   memory.
//!
//! # Switching it off
//!
//! Two independent switches:
//!
//! - **Runtime**: the `YOLLO_OBS` environment variable; `off`, `0` or
//!   `false` disables all recording (checked once, cached — see
//!   [`enabled`] / [`set_enabled`]).
//! - **Compile time**: build this crate without the `enabled` feature
//!   (`default-features = false`) and every recording call compiles to an
//!   `#[inline]` no-op; `yollo-tensor` re-exports this as its `obs`
//!   feature, and its `obs_overhead` test guards that instrumented kernels
//!   stay within noise of uninstrumented ones.
//!
//! # Metric naming convention
//!
//! Names are dot-separated lowercase paths:
//! `<crate or subsystem>.<component>.<metric>`.
//!
//! - **Counters** count events or summed quantities and end in a plural
//!   noun: `tensor.matmul.calls`, `tensor.matmul.flops`,
//!   `tensor.graph.bytes`, `train.steps.skipped`, `serve.requests`,
//!   `serve.cache.hits`.
//! - **Gauges** hold the last written value and are named for the value
//!   itself: `train.grad_norm`, `train.loss.total`,
//!   `tensor.pool.last_fanout`.
//! - **Histograms** record distributions and carry an explicit unit
//!   suffix (`_ns` for durations, none for dimensionless counts):
//!   `tensor.matmul_ns`, `model.encoder_ns`, `infer.batch_ns`,
//!   `serve.request_ns`, `serve.batch_size`.
//! - **Spans** reuse the same dotted style without a unit suffix
//!   (durations are implicit): `model.forward`, `rel2att.2`,
//!   `optim.adam.step`, `serve.batch`.
//!
//! Per-instance names (e.g. one per Rel2Att layer) put the instance index
//! last: `rel2att.0`, `rel2att.1`, …

mod json;
mod metrics;
mod sink;
mod span;
mod stream;
mod trace;

pub use json::{Json, JsonError};
pub use metrics::{
    registry, Counter, Gauge, HistTimer, Histogram, HistogramSnapshot, Registry, Snapshot,
    HIST_BUCKETS,
};
pub use sink::{JsonlFileSink, MemorySink, MetricsSink, PeriodicSnapshotter};
pub use span::{
    alloc_child, alloc_root, drain_spans, emit_span, now_ns, span, span_child, span_dyn,
    span_owned, take_dropped_spans, trace_path_from_env, write_chrome_trace, Span, SpanEvent,
    TraceContext, RING_CAPACITY,
};
pub use stream::{Fingerprint64, StreamHistogram, STREAM_HIST_BUCKETS};
pub use trace::{TraceExemplar, TraceExemplars};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialised, 1 = on, 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether recording is on: the `enabled` cargo feature is compiled in and
/// the `YOLLO_OBS` environment variable is not `off`/`0`/`false`. The env
/// var is read once and cached; use [`set_enabled`] to override later.
#[cfg(feature = "enabled")]
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("YOLLO_OBS").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            );
            STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Always `false` when the `enabled` feature is compiled out.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Overrides the runtime switch (tests, profiling binaries). Has no effect
/// when the `enabled` feature is compiled out.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// A process-wide counter handle, cached per call site: the first use
/// registers `$name` in the global [`Registry`]; later uses are one atomic
/// load away from the `&'static` [`Counter`].
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __YOLLO_OBS_CELL: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__YOLLO_OBS_CELL.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// A process-wide gauge handle, cached per call site (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __YOLLO_OBS_CELL: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__YOLLO_OBS_CELL.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// A process-wide histogram handle, cached per call site (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __YOLLO_OBS_CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__YOLLO_OBS_CELL.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// RAII scoped timer emitting a [`SpanEvent`] on drop; `$name` must be a
/// `&'static str`. For dynamic names use [`span_dyn`] / [`span_owned`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// RAII timer recording its scope's duration into the named histogram on
/// drop (no trace event; pair with [`span!`] when both are wanted).
#[macro_export]
macro_rules! time_hist {
    ($name:expr) => {
        $crate::HistTimer::new($crate::histogram!($name))
    };
}
