//! Virtual-clock correctness tests for the dynamic batcher: exact deadline
//! flushes, immediate full-batch flushes, backpressure, strict query
//! validation, cache semantics, and the 100-run determinism guarantee.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::{other_scene, scene, vocab, StubModel};
use yollo_serve::{
    FlightOutcome, FlushReason, Priority, RouterArrival, RouterConfig, RouterSim, ServeConfig,
    ServeError, ServerCore, VirtualClock,
};

fn test_config() -> ServeConfig {
    ServeConfig {
        max_batch: 3,
        max_wait_ns: 1_000,
        queue_capacity: 8,
        cache_capacity: 8,
        max_tokens: 6,
        ..ServeConfig::default()
    }
}

fn core_on_virtual_clock(cfg: ServeConfig) -> (ServerCore<StubModel>, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::new());
    let core = ServerCore::with_clock(
        StubModel::new(),
        vocab(),
        cfg,
        Arc::clone(&clock) as Arc<dyn yollo_serve::Clock>,
    );
    (core, clock)
}

#[test]
fn lone_request_flushes_exactly_at_max_wait() {
    let (mut core, clock) = core_on_virtual_clock(test_config());
    let resp = core.submit(&scene(), "the red circle").unwrap();
    assert_eq!(core.next_deadline_ns(), Some(1_000));

    clock.set(999);
    assert_eq!(core.tick(), 0, "999 ns: one tick before the deadline");
    assert!(resp.try_now().is_none());

    clock.set(1_000);
    assert_eq!(core.tick(), 1, "1000 ns: the deadline, exactly");
    let boundaries = core.boundaries();
    assert_eq!(boundaries.len(), 1);
    assert_eq!(boundaries[0].at_ns, 1_000);
    assert_eq!(boundaries[0].size, 1);
    assert_eq!(boundaries[0].reason, FlushReason::Deadline);
    assert!(resp.wait().is_ok());
}

#[test]
fn full_batch_flushes_immediately_without_time_passing() {
    let (mut core, _clock) = core_on_virtual_clock(test_config());
    let responses: Vec<_> = (0..3)
        .map(|_| core.submit(&scene(), "the red circle").unwrap())
        .collect();
    // Identical requests would collapse into cache hits only after the
    // first completes; all three are admitted while nothing has run.
    assert_eq!(core.inflight(), 3);
    assert_eq!(core.tick(), 1, "max_batch reached: flush at t = 0");
    let b = core.boundaries()[0];
    assert_eq!((b.at_ns, b.size, b.reason), (0, 3, FlushReason::Full));
    for r in responses {
        assert!(r.wait().is_ok());
    }
    assert_eq!(core.inflight(), 0);
}

#[test]
fn overload_sheds_with_typed_error_and_recovers() {
    let cfg = ServeConfig {
        queue_capacity: 2,
        max_batch: 10,
        ..test_config()
    };
    let (mut core, clock) = core_on_virtual_clock(cfg);
    let s = scene();
    let r1 = core.submit(&s, "the red circle").unwrap();
    let r2 = core.submit(&s, "the blue square").unwrap();
    let shed = core.submit(&s, "the green triangle");
    assert_eq!(
        shed.err(),
        Some(ServeError::Overloaded {
            inflight: 2,
            capacity: 2
        })
    );
    // Once the pending batch drains, capacity frees up again.
    clock.set(1_000);
    assert_eq!(core.tick(), 1);
    assert!(r1.wait().is_ok());
    assert!(r2.wait().is_ok());
    assert_eq!(core.inflight(), 0);
    assert!(core.submit(&s, "the green triangle").is_ok());
}

#[test]
fn too_long_query_is_rejected_never_truncated() {
    let (mut core, _clock) = core_on_virtual_clock(test_config());
    let s = scene();
    // 7 words against max_tokens = 6: rejected outright, nothing enqueued.
    let res = core.submit(&s, "the red circle left of the square");
    assert_eq!(
        res.err(),
        Some(ServeError::QueryTooLong {
            tokens: 7,
            max_tokens: 6
        })
    );
    assert_eq!(
        core.inflight(),
        0,
        "rejected request must not occupy a slot"
    );
    // Exactly at the limit is fine.
    assert!(core.submit(&s, "red circle left of the square").is_ok());
    assert_eq!(core.inflight(), 1);
}

#[test]
fn cache_hit_bypasses_model_and_returns_identical_prediction() {
    let (mut core, clock) = core_on_virtual_clock(test_config());
    let first_prediction = {
        let r = core.submit(&scene(), "the red circle").unwrap();
        clock.set(1_000);
        core.tick();
        let first = r.wait().unwrap();

        // Same scene content, same query modulo case/whitespace/punctuation:
        // must hit the cache — resolved synchronously, model untouched.
        let r = core.submit(&scene(), "  The  RED circle! ").unwrap();
        let hit = r.try_now().expect("cache hit resolves immediately");
        assert_eq!(hit.unwrap(), first, "cached prediction is bit-identical");
        first
    };
    // A different scene is a miss even with the same query text.
    let miss = core.submit(&other_scene(), "the red circle").unwrap();
    assert!(miss.try_now().is_none(), "different scene: not a cache hit");
    clock.set(2_500);
    core.tick();
    assert_ne!(miss.wait().unwrap(), first_prediction);
}

#[test]
fn cache_hits_do_not_consume_queue_capacity() {
    let cfg = ServeConfig {
        queue_capacity: 1,
        ..test_config()
    };
    let (mut core, clock) = core_on_virtual_clock(cfg);
    let s = scene();
    let r = core.submit(&s, "the red circle").unwrap();
    clock.set(1_000);
    core.tick();
    r.wait().unwrap();
    // Fill the single queue slot...
    let _pending = core.submit(&s, "the blue square").unwrap();
    assert_eq!(core.inflight(), 1);
    // ...and a cached repeat is still served.
    let hit = core.submit(&s, "the red circle").unwrap();
    assert!(hit.try_now().is_some());
}

/// The determinism acceptance criterion: a fixed arrival script, replayed
/// by the router's event loop over one replica, produces an identical
/// batch-boundary sequence on every one of 100 runs.
#[test]
fn fixed_arrival_script_is_deterministic_across_100_runs() {
    let scenes = vec![scene(), other_scene()];
    let queries = ["the red circle", "the blue square", "the green triangle"];
    // An irregular mix of arrivals spread over 10 µs: pairs that share a
    // deadline flush, stragglers flushed alone, and repeats answered from
    // the cache. Then a burst of `max_batch` distinct, never-seen requests
    // at one instant, which must flush as a full batch on arrival.
    let burst = [
        "a red circle",
        "a blue square",
        "a green triangle",
        "the item",
    ];
    let arrivals: Vec<RouterArrival> = (0..24u64)
        .map(|i| {
            RouterArrival::new(
                i * 397 + (i % 5) * 61,
                (i % 2) as usize,
                queries[(i % 3) as usize],
                Priority::Standard,
            )
        })
        .chain(
            burst
                .iter()
                .map(|&q| RouterArrival::new(20_000, 0, q, Priority::Standard)),
        )
        .collect();

    let fingerprint = |_: usize| {
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_ns: 900,
            queue_capacity: 16,
            cache_capacity: 4,
            max_tokens: 6,
            ..ServeConfig::default()
        };
        // One replica and no router deadline: the replica's batcher alone
        // decides every flush.
        let router_cfg = RouterConfig {
            replicas: 1,
            deadline_ns: 0,
            ..RouterConfig::default()
        };
        let mut sim = RouterSim::new(router_cfg, cfg, vocab(), |_| StubModel::new());
        let report = sim.run(&scenes, &arrivals);
        assert!(report.rejected.is_empty(), "script fits the queue");
        assert!(report.outcomes.iter().all(Result::is_ok));
        // a request answered without a batch was a replica cache hit
        let cache_hits = report
            .flights
            .iter()
            .filter(|f| f.outcome == FlightOutcome::Ok && f.batch_id == 0)
            .count();
        (sim.router().replica_boundaries(0).to_vec(), cache_hits)
    };

    let (boundaries, cache_hits) = fingerprint(0);
    let flushed = |reason| boundaries.iter().any(|b| b.reason == reason);
    assert!(
        flushed(FlushReason::Full) && flushed(FlushReason::Deadline),
        "the reference sequence holds both a full and a deadline flush: {boundaries:?}"
    );
    assert!(boundaries
        .iter()
        .any(|b| (b.at_ns, b.size, b.reason) == (20_000, burst.len(), FlushReason::Full)));
    let answered: usize = boundaries.iter().map(|b| b.size).sum();
    assert_eq!(
        answered + cache_hits,
        arrivals.len(),
        "every scripted request is either batched or cache-answered"
    );
    for run in 1..100 {
        let (b, hits) = fingerprint(run);
        assert_eq!(
            b, boundaries,
            "run {run} diverged from the reference boundary sequence"
        );
        assert_eq!(hits, cache_hits);
    }
}

/// The stub model must actually be exercised by the harness (sanity check
/// on the fixtures themselves).
#[test]
fn stub_model_counts_calls() {
    let model = StubModel::new();
    let calls = Arc::clone(&model.calls);
    let (mut core, clock) = {
        let clock = Arc::new(VirtualClock::new());
        let core = ServerCore::with_clock(
            model,
            vocab(),
            test_config(),
            Arc::clone(&clock) as Arc<dyn yollo_serve::Clock>,
        );
        (core, clock)
    };
    core.submit(&scene(), "the red circle").unwrap();
    clock.set(1_000);
    core.tick();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

#[test]
fn expired_requests_are_answered_deadline_exceeded_without_touching_the_model() {
    let model = StubModel::new();
    let calls = Arc::clone(&model.calls);
    let clock = Arc::new(VirtualClock::new());
    let mut core = ServerCore::with_clock(
        model,
        vocab(),
        ServeConfig {
            default_deadline_ns: 500, // expires before the 1000 ns flush
            ..test_config()
        },
        Arc::clone(&clock) as Arc<dyn yollo_serve::Clock>,
    );
    let resp = core.submit(&scene(), "the red circle").unwrap();
    assert_eq!(core.inflight(), 1);
    assert_eq!(
        core.next_deadline_ns(),
        Some(500),
        "the per-request expiry outruns the flush deadline"
    );

    clock.set(499);
    assert_eq!(core.tick(), 0);
    assert!(resp.try_now().is_none());

    clock.set(500);
    core.tick();
    match resp.try_now() {
        Some(Err(ServeError::DeadlineExceeded {
            waited_ns,
            deadline_ns,
        })) => {
            assert_eq!(waited_ns, 500);
            assert_eq!(deadline_ns, 500);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(calls.load(Ordering::SeqCst), 0, "model never ran");
    assert_eq!(core.inflight(), 0, "the queue slot is freed");
    assert!(core.boundaries().is_empty(), "no batch was formed");
}

#[test]
fn expired_requests_never_occupy_batch_slots_next_to_live_ones() {
    // Three requests; the middle one carries a short explicit deadline.
    let (mut core, clock) = core_on_virtual_clock(ServeConfig {
        max_batch: 8,
        ..test_config()
    });
    let live_a = core.submit(&scene(), "the red circle").unwrap();
    let doomed = core
        .submit_with_deadline(&other_scene(), "the blue square", 400)
        .unwrap();
    let live_b = core.submit(&scene(), "the green triangle").unwrap();

    clock.set(1_000); // flush deadline: the doomed one expired at 400
    assert_eq!(core.tick(), 1);
    let boundaries = core.boundaries();
    assert_eq!(boundaries.len(), 1);
    assert_eq!(
        boundaries[0].size, 2,
        "the expired request must not occupy a batch slot"
    );
    assert!(live_a.wait().is_ok());
    assert!(live_b.wait().is_ok());
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    assert_eq!(core.inflight(), 0);
}
