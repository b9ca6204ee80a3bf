//! Global registry lifecycle: record → snapshot → reset. This lives in its
//! own integration test (= its own process) and in one test function,
//! because `Registry::reset` zeroes every metric process-wide and would
//! race with any parallel test that records.

#[test]
fn snapshot_reflects_recordings_and_reset_zeroes_them() {
    yollo_obs::set_enabled(true);

    yollo_obs::counter!("lifecycle.calls").add(7);
    yollo_obs::gauge!("lifecycle.value").set(2.5);
    let h = yollo_obs::histogram!("lifecycle.latency_ns");
    h.record(1_000);
    h.record(3_000);

    let snap = yollo_obs::registry().snapshot();
    assert_eq!(snap.counter("lifecycle.calls"), Some(7));
    assert_eq!(snap.gauge("lifecycle.value"), Some(2.5));
    let hs = snap.histogram("lifecycle.latency_ns").expect("registered");
    assert_eq!(hs.count, 2);
    assert_eq!(hs.sum, 4_000);
    // the median observation is 1000; quantiles are bucket-mids, exact to
    // within a factor of two (1000 → bucket [512, 1024), mid 768)
    assert!(hs.p50 >= 500 && hs.p50 <= 2_000, "p50 = {}", hs.p50);
    assert!(snap.counter("lifecycle.absent").is_none());

    let json = yollo_obs::Json::parse(&snap.to_json().to_string()).expect("snapshot JSON parses");
    assert_eq!(json["counters"]["lifecycle.calls"].as_u64(), Some(7));
    assert_eq!(
        json["histograms"]["lifecycle.latency_ns"]["count"].as_u64(),
        Some(2)
    );

    yollo_obs::registry().reset();
    let snap = yollo_obs::registry().snapshot();
    assert_eq!(
        snap.counter("lifecycle.calls"),
        Some(0),
        "handles survive reset"
    );
    assert_eq!(snap.gauge("lifecycle.value"), Some(0.0));
    assert_eq!(snap.histogram("lifecycle.latency_ns").unwrap().count, 0);

    // handles stay usable after reset
    yollo_obs::counter!("lifecycle.calls").incr();
    assert_eq!(
        yollo_obs::registry().snapshot().counter("lifecycle.calls"),
        Some(1)
    );
}
