//! End-to-end request tracing and SLO accounting through the router tier.
//!
//! These tests drive the ISSUE 8 acceptance criteria: a traced chaos run
//! under a virtual clock yields a causally complete span chain for every
//! request, the flight records reconcile against the `RouterEvent`
//! fingerprint, the trace *structure* is bit-identical across two
//! identically seeded runs (span ids are process-global, so identity is
//! checked after normalisation). Metric names and a threaded hedge are
//! checked too.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

use common::{mixed_arrivals, other_scene, router_cfg, scene, serve_cfg, vocab, StubModel};
use yollo_core::{scene_hash, GroundingPrediction, ReplicaFaultPlan};
use yollo_obs::SpanEvent;
use yollo_serve::{
    reconcile_flights, validate_request_chains, FlightOutcome, GroundingModel, HashRing,
    HealthConfig, Priority, RetryPolicy, RouterArrival, RouterConfig, RouterReport, RouterServer,
    RouterSim, ServeError, ServiceModel, SloReport,
};
use yollo_tensor::Tensor;

/// Serializes tests that drain the process-global span rings, so one
/// test's drain never steals another's spans.
static SPAN_DRAIN: Mutex<()> = Mutex::new(());

fn chaos_cfg() -> RouterConfig {
    RouterConfig {
        hedge_delay_ns: 3_000_000,
        class_capacity: [8, 16, 8],
        service: ServiceModel {
            base_ns: 500_000,
            per_item_ns: 100_000,
        },
        ..router_cfg(3)
    }
}

/// One traced chaos run: crash-looping, hung and slowed replicas at once,
/// with hedging armed. Returns the report and this run's spans (filtered
/// by the run's own trace ids, so concurrent tests' spans are ignored).
fn run_traced_chaos() -> (RouterReport, Vec<SpanEvent>) {
    yollo_obs::set_enabled(true);
    let scenes = [scene(), other_scene()];
    let mut sim = RouterSim::new(chaos_cfg(), serve_cfg(), vocab(), |_| StubModel::new());
    sim.router_mut()
        .set_fault_plan(0, ReplicaFaultPlan::new().crash_from(3));
    sim.router_mut().set_fault_plan(
        1,
        ReplicaFaultPlan::new().hang_between(20_000_000, 60_000_000),
    );
    sim.router_mut()
        .set_fault_plan(2, ReplicaFaultPlan::new().slow_by(4.0));
    let report = sim.run(&scenes, &mixed_arrivals(48, 1_500_000));
    let traces: BTreeSet<u64> = report.flights.iter().map(|f| f.trace).collect();
    let spans = yollo_obs::drain_spans()
        .into_iter()
        .filter(|e| traces.contains(&e.trace))
        .collect();
    (report, spans)
}

#[test]
fn traced_chaos_run_has_causally_complete_chains() {
    let _g = SPAN_DRAIN.lock().unwrap();
    let (report, spans) = run_traced_chaos();

    // Every valid submission got a trace root, and every chain validates:
    // one root per trace, parents resolve in-trace, attempt counts match
    // the root's declaration, batch-served successes have queued/exec.
    let summary = validate_request_chains(&spans).expect("causally complete chains");
    assert_eq!(
        summary.router_requests,
        report.flights.len(),
        "one router.request root per flight record"
    );
    assert!(
        summary.spans > summary.router_requests * 2,
        "chains must contain attempt and batch spans, not bare roots \
         ({} spans over {} requests)",
        summary.spans,
        summary.router_requests
    );
    // A root that lost its outcome no longer ends its chain.
    let mut cut = spans.clone();
    let root = cut
        .iter_mut()
        .find(|e| e.name == "router.request")
        .expect("a request root");
    root.args.retain(|(k, _)| k != "outcome");
    let err = validate_request_chains(&cut).expect_err("a root without its outcome");
    assert!(err.contains("no outcome"), "{err}");

    // The flight records agree with the RouterEvent fingerprint.
    reconcile_flights(&report.flights, &report.events).expect("flights reconcile with events");

    // The SLO report agrees with the router's own counters.
    let slo = SloReport::from_flights(&report.flights);
    assert_eq!(slo.accepted, report.stats.accepted);
    assert_eq!(slo.delivered_ok, report.stats.delivered_ok);
    assert_eq!(slo.delivered_err, report.stats.delivered_err);
    assert_eq!(slo.deadline_exceeded, report.stats.deadline_exceeded);
    assert_eq!(slo.shed, report.stats.shed);
    assert!((slo.availability - report.stats.availability()).abs() < 1e-12);
    assert!(
        slo.retry_amplification >= 1.0,
        "amplification < 1 is impossible"
    );
    assert!(report.stats.retries > 0, "chaos must force retries");

    // Latency attribution: under the virtual clock, queue waits come from
    // the batcher schedule and service time from the ServiceModel charge.
    let ok_flights: Vec<_> = report
        .flights
        .iter()
        .filter(|f| f.outcome == FlightOutcome::Ok)
        .collect();
    assert!(!ok_flights.is_empty());
    assert!(
        ok_flights.iter().any(|f| f.queue_ns > 0),
        "batched requests must report queue wait"
    );
    assert!(
        ok_flights.iter().any(|f| f.service_ns > 0),
        "the nonzero ServiceModel must surface as service time"
    );
    assert!(slo.total.p50 >= slo.queue.p50, "total includes queue wait");
}

/// One normalised span: (name, dense id, dense parent, args).
type NormSpan = (String, u64, u64, Vec<(String, u64)>);

/// Normalises a run's spans into a structure independent of process-global
/// span ids and wall-clock timings: per flight (in terminal order), each
/// span becomes a [`NormSpan`], with dense ids assigned by allocation
/// order inside the trace.
fn structure(report: &RouterReport, spans: &[SpanEvent]) -> Vec<Vec<NormSpan>> {
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for e in spans {
        by_trace.entry(e.trace).or_default().push(e);
    }
    report
        .flights
        .iter()
        .map(|f| {
            let mut evs = by_trace.get(&f.trace).cloned().unwrap_or_default();
            evs.sort_by_key(|e| e.id);
            let dense: BTreeMap<u64, u64> = evs
                .iter()
                .enumerate()
                .map(|(i, e)| (e.id, i as u64))
                .collect();
            evs.iter()
                .map(|e| {
                    (
                        e.name.to_string(),
                        dense[&e.id],
                        dense.get(&e.parent).copied().unwrap_or(u64::MAX),
                        e.args
                            .iter()
                            .map(|(k, v)| (k.to_string(), *v))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn trace_structure_is_bit_identical_across_seeded_runs() {
    let _g = SPAN_DRAIN.lock().unwrap();
    let (r1, s1) = run_traced_chaos();
    let (r2, s2) = run_traced_chaos();

    // The event log was already the determinism fingerprint; the span
    // tree structure now holds to the same standard.
    assert_eq!(r1.events, r2.events, "event fingerprint must replay");
    let st1 = structure(&r1, &s1);
    let st2 = structure(&r2, &s2);
    assert_eq!(st1, st2, "normalised span structure must replay");
    let spans1: usize = st1.iter().map(Vec::len).sum();
    assert!(
        spans1 > r1.flights.len() * 2,
        "structure must be non-trivial ({spans1} spans)"
    );
}

#[test]
fn router_records_admission_dispatch_delivery_and_shed_metrics() {
    yollo_obs::set_enabled(true);
    // A capacity-0 interactive class sheds deterministically; a standard
    // call delivers. Both router drivers record through the same policy.
    let counters = [
        "router.requests",
        "router.dispatches",
        "router.delivered",
        "router.shed",
        "router.interactive.shed",
    ];
    let histograms = ["router.request_ns", "router.standard.request_ns"];
    let reg = yollo_obs::registry();
    let snap = || -> Vec<u64> {
        let c = counters.iter().map(|n| reg.counter(n).get());
        c.chain(histograms.iter().map(|n| reg.histogram(n).count()))
            .collect()
    };
    let cfg = RouterConfig {
        class_capacity: [0, 4, 4], // interactive always sheds
        ..chaos_cfg()
    };
    let before = snap();
    let mut sim = RouterSim::new(cfg, serve_cfg(), vocab(), |_| StubModel::new());
    let report = sim.run(
        &[scene()],
        &[
            RouterArrival::new(0, 0, "the red circle", Priority::Standard),
            RouterArrival::new(1_000, 0, "the blue square", Priority::Interactive),
        ],
    );
    assert_eq!(report.stats.shed, 1);
    assert_eq!(report.stats.delivered_ok, 1);
    let after = snap();
    for (i, name) in counters.iter().chain(&histograms).enumerate() {
        assert!(after[i] > before[i], "the router never fired {name}");
    }
}

/// A [`StubModel`] that stalls each batch by a fixed delay, so a chosen
/// threaded replica is reliably slower than the hedge delay, and then
/// answers or, when `fail`, returns no predictions (the replica reports
/// [`ServeError::WorkerFailed`]).
struct SleepyModel {
    inner: StubModel,
    delay: Duration,
    fail: bool,
}

impl GroundingModel for SleepyModel {
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction> {
        std::thread::sleep(self.delay);
        if self.fail {
            return Vec::new();
        }
        self.inner.predict_batch(images, queries)
    }
}

#[test]
fn threaded_hedge_beats_a_stalled_owner() {
    yollo_obs::set_enabled(true);
    let hedge_counters = ["router.hedges", "router.hedge_wins"];
    let reg = yollo_obs::registry();
    let snap =
        |names: &[&str]| -> Vec<u64> { names.iter().map(|n| reg.counter(n).get()).collect() };

    let cfg = RouterConfig {
        replicas: 2,
        vnodes: 16,
        deadline_ns: 2_000_000_000,
        // One attempt: only the hedge can save a call whose owner fails.
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        hedge_delay_ns: 3_000_000, // hedge after 3 ms unanswered
        health: HealthConfig::default(),
        class_capacity: [8, 8, 8],
        seed: 7,
        service: ServiceModel::default(),
    };
    let scenes = [scene(), other_scene()];
    // The replica that owns scene 0 on the ring takes the primary.
    let owner = HashRing::new(cfg.replicas, cfg.vnodes).route(scene_hash(&scenes[0]));

    // (owner's stall ms, owner fails, other's stall ms, other fails): the
    // timer-driven hedge must beat a stalled owner, must still win when
    // the owner fails while the hedge is out, and only when the hedge
    // fails too does the owner's error stand.
    let c0 = snap(&hedge_counters);
    for (owner_ms, owner_fails, other_ms, other_fails) in [
        (100, false, 0, false),
        (30, true, 60, false),
        (30, true, 60, true),
    ] {
        let mut rs = RouterServer::start(cfg.clone(), serve_cfg(), vocab(), move |i| {
            let (ms, fail) = if i == owner {
                (owner_ms, owner_fails)
            } else {
                (other_ms, other_fails)
            };
            SleepyModel {
                inner: StubModel::new(),
                delay: Duration::from_millis(ms),
                fail,
            }
        });
        let got = rs.call_with_class(&scenes[0], "the red circle", Priority::Interactive);
        rs.shutdown();
        let stats = rs.stats();
        assert_eq!(stats.hedges, 1, "exactly one hedge dispatched");
        if other_fails {
            assert!(
                matches!(got, Err(ServeError::WorkerFailed { .. })),
                "the owner's error stands: {got:?}"
            );
            assert_eq!((stats.hedge_wins, stats.failed), (0, 1), "{stats:?}");
        } else {
            assert!(got.is_ok(), "hedged call must deliver: {got:?}");
            assert_eq!((stats.hedge_wins, stats.ok), (1, 1), "{stats:?}");
        }
    }
    let c1 = snap(&hedge_counters);
    for (i, name) in hedge_counters.iter().enumerate() {
        assert!(c1[i] > c0[i], "RouterServer never fired {name}");
    }
}
