//! The runtime-off contract: with recording switched off (`YOLLO_OBS=off`,
//! or `set_enabled(false)` as here) every recording call is inert —
//! counters, gauges and histograms keep their values, timers and spans
//! record nothing, and trace contexts stay absent — while the streaming
//! accounting types, which are not telemetry, still record.
//!
//! This is its own integration-test binary (own process): the switch is
//! process-wide, and every test here keeps it off.

use std::time::Duration;

use yollo_obs::{registry, TraceContext};

fn switch_off() {
    yollo_obs::set_enabled(false);
    assert!(!yollo_obs::enabled());
}

#[test]
fn metrics_do_not_record() {
    switch_off();
    let c = yollo_obs::counter!("noop.counter");
    c.add(5);
    c.incr();
    assert_eq!(c.get(), 0);

    let g = yollo_obs::gauge!("noop.gauge");
    g.set(3.5);
    assert_eq!(g.get(), 0.0);

    let h = yollo_obs::histogram!("noop.hist_ns");
    h.record(123);
    h.record_duration(Duration::from_millis(1));
    {
        let _t = yollo_obs::time_hist!("noop.hist_ns");
    }
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.quantile(0.5), 0);
}

#[test]
fn snapshots_list_registered_handles_at_zero() {
    switch_off();
    let a = registry().counter("noop.a");
    let b = registry().counter("noop.b");
    assert!(!std::ptr::eq(a, b), "each name keeps its own handle");
    a.add(1);
    registry().gauge("noop.g").set(1.0);
    registry().histogram("noop.h_ns").record(1);

    let snap = registry().snapshot();
    assert_eq!(snap.counter("noop.a"), Some(0));
    assert_eq!(snap.gauge("noop.g"), Some(0.0));
    assert_eq!(snap.histogram("noop.h_ns").map(|h| h.count), Some(0));
    assert!(snap.counters.iter().all(|(_, v)| *v == 0));
    assert!(snap.histograms.iter().all(|h| h.count == 0 && h.sum == 0));
}

#[test]
fn spans_record_nothing() {
    switch_off();
    let remote = TraceContext { trace: 7, span: 7 };
    {
        let outer = yollo_obs::span!("noop.outer");
        assert!(outer.context().is_none());
        let _inner = yollo_obs::span_owned("noop.inner".to_owned());
        let dynamic = yollo_obs::span_dyn("noop.dyn").with_arg("k", 1);
        assert!(dynamic.context().is_none());
        let _child = yollo_obs::span_child("noop.child", remote);
    }
    let root = yollo_obs::alloc_root();
    assert!(root.is_none());
    assert!(yollo_obs::alloc_child(root).is_none());
    assert!(yollo_obs::alloc_child(remote).is_none());
    yollo_obs::emit_span("noop.emitted", remote, 0, 0, 1, &[("k", 1)]);
    assert!(yollo_obs::drain_spans().is_empty());
    assert_eq!(yollo_obs::take_dropped_spans(), 0);
}

#[test]
fn streaming_accounting_still_records() {
    // accounting is not observability: simulations fingerprint the same
    // with telemetry off
    switch_off();
    let mut h = yollo_obs::StreamHistogram::new();
    h.record(42);
    let mut f = yollo_obs::Fingerprint64::new();
    f.push(42);
    assert_eq!((h.count(), h.sum()), (1, 42));
    assert_ne!(f.digest(), yollo_obs::Fingerprint64::new().digest());
}
