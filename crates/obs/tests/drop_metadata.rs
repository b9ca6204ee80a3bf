//! Ring-buffer overflow must surface in the trace file, not vanish.
//!
//! This lives in its own integration-test binary (own process) because
//! the drop accounting is global: any concurrent `write_chrome_trace`
//! call would consume the counter out from under the assertions.

use yollo_obs::{
    drain_spans, span_owned, take_dropped_spans, write_chrome_trace, Json, RING_CAPACITY,
};

#[test]
fn overflow_drops_become_a_metadata_event() {
    yollo_obs::set_enabled(true);
    assert_eq!(take_dropped_spans(), 0, "fresh process starts clean");

    // Overfill this thread's ring by exactly 10 spans.
    for i in 0..RING_CAPACITY + 10 {
        drop(span_owned(format!("drop.meta.{i}")));
    }

    let events = drain_spans();
    assert_eq!(events.len(), RING_CAPACITY);

    let dir = std::env::temp_dir().join("yollo_obs_drop_meta");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    write_chrome_trace(&path, &events).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = Json::parse(&text).expect("valid JSON");
    let arr = parsed.as_array().expect("top-level array");
    let meta = arr
        .iter()
        .find(|v| {
            v["ph"].as_str() == Some("M") && v["name"].as_str() == Some("yollo.spans_dropped")
        })
        .expect("drop metadata event present");
    assert_eq!(meta["args"]["dropped"].as_u64(), Some(10));
    assert_eq!(
        arr.iter().filter(|v| v["ph"].as_str() == Some("X")).count(),
        RING_CAPACITY
    );

    // The writer consumed the accounting: a second write is clean.
    assert_eq!(take_dropped_spans(), 0);
    let path2 = dir.join("trace_clean.json");
    write_chrome_trace(&path2, &[]).unwrap();
    let text2 = std::fs::read_to_string(&path2).unwrap();
    let parsed2 = Json::parse(&text2).unwrap();
    assert!(parsed2.as_array().unwrap().is_empty());

    std::fs::remove_file(path).ok();
    std::fs::remove_file(path2).ok();
}
