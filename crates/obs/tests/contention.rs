//! Ring-buffer drain under contention: many threads emitting spans while a
//! drainer runs concurrently must lose nothing unaccounted (ring overflow
//! is allowed but must be counted in `obs.spans.dropped`) and produce a
//! trace that is well-formed JSON with no interleaved or torn records.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const THREADS: usize = 8;
const SPANS_PER_THREAD: usize = 5_000;

#[test]
fn concurrent_spans_drain_to_well_formed_trace() {
    yollo_obs::set_enabled(true);
    let done = AtomicBool::new(false);
    let collected: Mutex<Vec<yollo_obs::SpanEvent>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let emitters: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    for i in 0..SPANS_PER_THREAD {
                        let _outer = yollo_obs::span_owned(format!("contention.{t}.{i}"));
                        let _inner = yollo_obs::span!("contention.inner");
                    }
                })
            })
            .collect();
        // drain concurrently with the emitters to stress take() vs push()
        let drainer = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let events = yollo_obs::drain_spans();
                if !events.is_empty() {
                    collected.lock().unwrap().extend(events);
                }
                std::thread::yield_now();
            }
        });
        for h in emitters {
            h.join().expect("emitter thread panicked");
        }
        done.store(true, Ordering::Relaxed);
        drainer.join().expect("drainer thread panicked");
    });
    let mut events = collected.into_inner().unwrap();
    events.extend(yollo_obs::drain_spans());
    let events: Vec<yollo_obs::SpanEvent> = events
        .into_iter()
        .filter(|e| e.name.starts_with("contention."))
        .collect();

    // Nothing lost *silently*: rings overwrite their oldest events when a
    // starved drainer lets them fill (by design — bounded memory), but every
    // overwrite must be accounted for in `obs.spans.dropped`. Collected
    // events plus the drop counter must equal exactly what was emitted.
    let dropped = yollo_obs::registry()
        .snapshot()
        .counter("obs.spans.dropped")
        .unwrap_or(0) as usize;
    assert_eq!(
        events.len() + dropped,
        2 * THREADS * SPANS_PER_THREAD,
        "collected + dropped must account for every emitted span ({dropped} dropped)"
    );

    // nothing duplicated: every collected outer name is a valid
    // (thread, index) pair and appears at most once
    let valid: HashSet<String> = (0..THREADS)
        .flat_map(|t| (0..SPANS_PER_THREAD).map(move |i| format!("contention.{t}.{i}")))
        .collect();
    let outer_names: Vec<&str> = events
        .iter()
        .filter(|e| e.name != "contention.inner")
        .map(|e| e.name.as_ref())
        .collect();
    let unique: HashSet<&str> = outer_names.iter().copied().collect();
    assert_eq!(unique.len(), outer_names.len(), "duplicated span records");
    for name in &outer_names {
        assert!(
            valid.contains(*name),
            "torn or corrupted span name {name:?}"
        );
    }
    let inner_count = events
        .iter()
        .filter(|e| e.name == "contention.inner")
        .count();
    assert!(
        inner_count <= THREADS * SPANS_PER_THREAD,
        "duplicated inner spans"
    );

    // no torn records: ids unique, parentage coherent and thread-local
    let mut by_id: HashMap<u64, &yollo_obs::SpanEvent> = HashMap::new();
    for e in &events {
        assert!(e.id > 0, "span id must be positive");
        assert!(e.tid > 0, "thread id must be positive");
        assert!(
            by_id.insert(e.id, e).is_none(),
            "duplicate span id {}",
            e.id
        );
    }
    for e in events.iter().filter(|e| e.name == "contention.inner") {
        // an inner's parent may itself have been overwritten, but only if
        // the rings actually overflowed
        let parent = match by_id.get(&e.parent) {
            Some(p) => p,
            None if dropped > 0 => continue,
            None => panic!("inner span's parent lost without a counted drop"),
        };
        assert!(
            parent.name != "contention.inner",
            "inner span parented by another inner span"
        );
        assert_eq!(parent.tid, e.tid, "parent must be on the same thread");
    }

    // the serialised trace parses as one JSON document with object events
    let dir = std::env::temp_dir().join("yollo_obs_test");
    std::fs::create_dir_all(&dir).unwrap();
    // pid-unique name: concurrent invocations must not clobber each other
    let path = dir.join(format!("trace_contention.{}.json", std::process::id()));
    yollo_obs::write_chrome_trace(&path, &events).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = yollo_obs::Json::parse(&text).expect("trace is valid JSON");
    let arr = parsed.as_array().expect("top-level JSON array");
    assert_eq!(arr.len(), events.len());
    for ev in arr {
        assert!(ev["name"].as_str().is_some());
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert!(ev["ts"].as_f64().is_some());
        assert!(ev["dur"].as_f64().is_some());
        assert!(ev["tid"].as_u64().is_some());
    }
    std::fs::remove_file(path).ok();
}
