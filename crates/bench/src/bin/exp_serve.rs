//! **Serving gates** — writes `BENCH_serve.json` at the repository root:
//! the f32 and int8 accuracy ledgers against the f64 reference, the router
//! tier under a crash-looping replica, and the SLO accounting of a
//! deterministic traced chaos run. Serving speed is not timed here:
//! `servebench/` times the f32, int8 and cache-hit paths end to end (see
//! `servebench/README.md`).
//!
//! The workload is a *hot set*: `K` distinct (scene, query) pairs, the way
//! production grounding traffic repeats popular scenes and phrasings. The
//! ledgers ground one request per pair at each precision:
//!
//! - `dtype.accuracy` compares the served f32 flat pass with f64 (IoU
//!   where areas are positive, coordinate and score drift, attention-peak
//!   agreement);
//! - `quantization.accuracy` calibrates and quantizes the flat pass in
//!   process on the same requests, and records its ACC@0.5 against ground
//!   truth beside f64's, with box and attention agreement against f64.
//!
//! The `router` grid runs 1/2/4 threaded replicas under skewed hot-key
//! traffic, healthy and with replica 0 crash-looping. The final `slo`
//! section is a deterministic traced chaos run through the virtual-clock
//! router: per-request flight records reconcile against the router's
//! event log, every request trace must form a causally complete
//! admission→outcome span chain, and the latency breakdown splits
//! p50/p95/p99 into queue wait vs model service. Set `YOLLO_TRACE_PATH` to
//! also write that run as a Chrome trace. `YOLLO_SCALE` selects
//! tiny/standard/full.

use std::time::Instant;

use yollo_bench::{dataset, Scale};
use yollo_core::{GroundingPrediction, QuantCalibration, ReplicaFaultPlan, Yollo};
use yollo_obs::{Json, TraceExemplars};
use yollo_serve::{
    reconcile_flights, validate_request_chains, GroundingModel, Percentiles, Priority, RetryPolicy,
    RouterArrival, RouterConfig, RouterServer, RouterSim, ServeConfig, ServeDtype, ServiceModel,
    SloReport, YolloBackend,
};
use yollo_synthref::{DatasetKind, Scene, Split};

fn main() {
    yollo_obs::set_enabled(true);
    let scale = Scale::from_env();
    let ds = dataset(scale, DatasetKind::SynthRef);
    let model = Yollo::for_dataset(&ds, 7);
    let model_cfg = model.config().clone();
    let vocab = model.vocab().clone();
    let serve_template = ServeConfig::for_model(&model_cfg);

    let workers = 2usize;
    let hot = match scale {
        Scale::Tiny => 8usize,
        Scale::Standard => 32,
        Scale::Full => 64,
    };

    let scenes: Vec<Scene> = ds.scenes().to_vec();
    let queries: Vec<String> = ds
        .samples(Split::Train)
        .iter()
        .take(64)
        .map(|s| s.sentence.clone())
        .collect();
    // The hot set: K distinct (scene, query) pairs the traffic cycles over.
    // Strides keep the pairs distinct even when K exceeds one of the pools.
    let hot_set: Vec<(usize, usize)> = (0..hot)
        .map(|i| {
            (
                i % scenes.len(),
                (i * 3 + i / queries.len()) % queries.len(),
            )
        })
        .collect();
    let mut lines = Vec::new();

    // --- accuracy ledgers: one request per hot pair (any sample from the
    // pair's scene, so the image is representative), grounded by the f64
    // reference, the served f32 flat pass and the int8 flat pass ---
    let train = ds.samples(Split::Train);
    let hot_inputs: Vec<_> = hot_set
        .iter()
        .map(|&(si, _)| {
            let sample = train
                .iter()
                .find(|s| s.scene_idx == si)
                .unwrap_or(&train[0]);
            model.encode_batch(&ds, &[sample])
        })
        .collect();
    let refs: Vec<GroundingPrediction> = hot_inputs
        .iter()
        .map(|(images, ids, _)| model.predict_batch(images.clone(), ids).remove(0))
        .collect();
    let pairs = hot_set.len();

    // f32: the backend that serves it, built from the same seed as `model`
    // (IoU where areas are positive, raw coordinate/score drift always)
    let served32 = YolloBackend::new(Yollo::for_dataset(&ds, 7), ServeDtype::F32);
    let mut ious = Vec::new();
    let mut max_coord_drift = 0.0f64;
    let mut max_score_drift = 0.0f64;
    let mut peak_agree = 0usize;
    for ((images, ids, _), p64) in hot_inputs.iter().zip(&refs) {
        let p32 = served32.predict_batch(images.clone(), ids).remove(0);
        if p64.bbox.w * p64.bbox.h > 0.0 {
            ious.push(p64.bbox.iou(&p32.bbox));
        }
        for (a, b) in [
            (p64.bbox.x, p32.bbox.x),
            (p64.bbox.y, p32.bbox.y),
            (p64.bbox.w, p32.bbox.w),
            (p64.bbox.h, p32.bbox.h),
        ] {
            max_coord_drift = max_coord_drift.max((a - b).abs());
        }
        max_score_drift = max_score_drift.max((p64.score - p32.score).abs());
        if p64.attention_peak() == p32.attention_peak() {
            peak_agree += 1;
        }
    }
    let mean_iou = if ious.is_empty() {
        Json::Null
    } else {
        Json::from(ious.iter().sum::<f64>() / ious.len() as f64)
    };
    let accuracy = Json::object([
        ("pairs", pairs.into()),
        ("mean_iou_f32_vs_f64", mean_iou),
        ("iou_pairs", ious.len().into()),
        ("max_coord_drift_px", max_coord_drift.into()),
        ("max_score_drift", max_score_drift.into()),
        (
            "attention_peak_agreement",
            (peak_agree as f64 / pairs as f64).into(),
        ),
    ]);
    let acc_line = format!(
        "f32 vs f64 accuracy: max coord drift {max_coord_drift:.2e} px, \
         max score drift {max_score_drift:.2e}, peak agreement {peak_agree}/{pairs}"
    );
    eprintln!("{acc_line}");
    lines.push(acc_line);

    // int8: calibrate on the hot set and quantize in process. The ledger
    // pins the cost of INT8: ACC@0.5 drift against ground truth plus
    // box/attention agreement with the f64 reference
    eprintln!("int8: calibrating on the hot set…");
    let mut quant = model.fused();
    let mut calib = QuantCalibration::new();
    for (images, ids, _) in &hot_inputs {
        quant.calibrate(images, ids, &mut calib);
    }
    quant.quantize(&calib);
    let mut q_ious = Vec::new();
    let mut q_peak_agree = 0usize;
    let mut q_max_score_drift = 0.0f64;
    let (mut hits64, mut hits8) = (0usize, 0usize);
    for ((images, ids, targets), p64) in hot_inputs.iter().zip(&refs) {
        let p8 = quant.predict_batch(images.clone(), ids).remove(0);
        if p64.bbox.iou(&targets[0]) >= 0.5 {
            hits64 += 1;
        }
        if p8.bbox.iou(&targets[0]) >= 0.5 {
            hits8 += 1;
        }
        if p64.bbox.w * p64.bbox.h > 0.0 {
            q_ious.push(p64.bbox.iou(&p8.bbox));
        }
        if p64.attention_peak() == p8.attention_peak() {
            q_peak_agree += 1;
        }
        q_max_score_drift = q_max_score_drift.max((p64.score - p8.score).abs());
    }
    let acc64 = hits64 as f64 / pairs as f64;
    let acc8 = hits8 as f64 / pairs as f64;
    let q_mean_iou = if q_ious.is_empty() {
        Json::Null
    } else {
        Json::from(q_ious.iter().sum::<f64>() / q_ious.len() as f64)
    };
    let quant_accuracy = Json::object([
        ("pairs", pairs.into()),
        ("acc_at_05_f64", acc64.into()),
        ("acc_at_05_int8", acc8.into()),
        ("acc_at_05_drift", (acc64 - acc8).abs().into()),
        ("mean_iou_int8_vs_f64", q_mean_iou),
        ("iou_pairs", q_ious.len().into()),
        (
            "attention_peak_agreement",
            (q_peak_agree as f64 / pairs as f64).into(),
        ),
        ("max_score_drift", q_max_score_drift.into()),
    ]);
    let quant_line = format!(
        "int8 accuracy: ACC@0.5 drift {:.4} (f64 {acc64:.3} vs int8 {acc8:.3}), \
         peak agreement {q_peak_agree}/{pairs}",
        (acc64 - acc8).abs()
    );
    eprintln!("{quant_line}");
    lines.push(quant_line);

    // --- router tier: 1/2/4 replicas under skewed hot-key traffic,
    // healthy and with replica 0 crash-looping. Scene-affinity keeps the
    // hot keys cached on their owning replica; with ≥ 2 replicas the
    // health checks + retries must hold availability at ≥ 99% even while
    // one replica panics on every batch it takes ---
    let (router_total, router_clients) = match scale {
        Scale::Tiny => (48usize, 2usize),
        Scale::Standard => (160, 4),
        Scale::Full => (320, 4),
    };
    // Skewed traffic: half of all requests hit the single hottest pair,
    // the rest cycle the remaining hot set.
    let skewed: Vec<(usize, usize)> = (0..router_total)
        .map(|i| {
            if i % 2 == 0 {
                hot_set[0]
            } else {
                hot_set[1 + (i / 2) % (hot_set.len() - 1)]
            }
        })
        .collect();
    let mut router_rows = Vec::new();
    for &replicas in &[1usize, 2, 4] {
        for crash_looping in [false, true] {
            let label = if crash_looping {
                "crash-loop"
            } else {
                "healthy"
            };
            eprintln!("router {replicas} replica(s) ({label}): {router_total} requests…");
            yollo_obs::registry().reset();
            let router_cfg = RouterConfig {
                replicas,
                deadline_ns: 0, // rely on retries; wall deadlines are load-sensitive
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_backoff_ns: 50_000,
                    max_backoff_ns: 1_000_000,
                },
                ..RouterConfig::default()
            };
            let ds_vocab = vocab.clone();
            let factory_cfg = model_cfg.clone();
            let serve_cfg = ServeConfig {
                queue_capacity: router_total,
                cache_capacity: 2 * hot,
                workers,
                ..serve_template.clone()
            };
            let router = RouterServer::start(router_cfg, serve_cfg, vocab.clone(), move |_| {
                let mut m = Yollo::new(factory_cfg.clone(), 7);
                m.set_vocab(ds_vocab.clone());
                m
            });
            if crash_looping {
                router.set_fault_plan(0, ReplicaFaultPlan::new().crash_from(1));
            }
            let started = Instant::now();
            let mut latencies_ns: Vec<u64> = Vec::with_capacity(router_total);
            let mut ok = 0usize;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..router_clients)
                    .map(|c| {
                        let router = &router;
                        let skewed = &skewed;
                        let scenes = &scenes;
                        let queries = &queries;
                        scope.spawn(move || {
                            let mut lat = Vec::new();
                            let mut ok = 0usize;
                            for i in (c..router_total).step_by(router_clients) {
                                let (si, qi) = skewed[i];
                                let t0 = Instant::now();
                                if router.call(&scenes[si], &queries[qi]).is_ok() {
                                    ok += 1;
                                }
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                            (lat, ok)
                        })
                    })
                    .collect();
                for h in handles {
                    let (lat, n) = h.join().expect("router client");
                    latencies_ns.extend(lat);
                    ok += n;
                }
            });
            let wall_s = started.elapsed().as_secs_f64();
            let stats = router.stats();
            drop(router);
            latencies_ns.sort_unstable();
            let pct = |q: f64| {
                latencies_ns
                    .get(((latencies_ns.len() as f64 - 1.0) * q) as usize)
                    .copied()
                    .unwrap_or(0)
            };
            let snap = yollo_obs::registry().snapshot();
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            let cache_hits = counter("serve.cache.hits");
            let cache_requests = counter("serve.requests").max(1);
            let availability = ok as f64 / router_total as f64;
            let throughput_rps = router_total as f64 / wall_s;
            let cache_hit_rate = cache_hits as f64 / cache_requests as f64;
            let latency = Json::object([
                ("p50", (pct(0.50)).into()),
                ("p95", (pct(0.95)).into()),
                ("p99", (pct(0.99)).into()),
            ]);
            router_rows.push(Json::object([
                ("replicas", replicas.into()),
                ("condition", label.into()),
                ("requests", router_total.into()),
                ("clients", router_clients.into()),
                ("wall_s", wall_s.into()),
                ("throughput_rps", throughput_rps.into()),
                ("availability", availability.into()),
                ("cache_hit_rate", cache_hit_rate.into()),
                ("latency_ns", latency),
                ("retries", stats.retries.into()),
                ("unavailable", stats.unavailable.into()),
                ("worker_panics", (counter("serve.worker_panics")).into()),
            ]));
            let line = format!(
                "router x{replicas} ({label}): {throughput_rps:.1} req/s, \
                 availability {availability:.3}, {} retries",
                stats.retries
            );
            eprintln!("{line}");
            lines.push(line);
        }
    }

    // --- SLO accounting: one deterministic traced chaos run under the
    // virtual clock. Flight records split every answered request's
    // latency into queue wait vs model service, must reconcile against
    // the RouterEvent fingerprint, and the span dump must form a causally
    // complete admission→outcome chain per request. The ci.sh trace gate
    // reruns this at tiny scale with YOLLO_TRACE_PATH set; chain or
    // reconciliation failures abort the binary ---
    let slo_total = match scale {
        Scale::Tiny => 48usize,
        Scale::Standard => 128,
        Scale::Full => 256,
    };
    eprintln!("slo: traced deterministic chaos run, {slo_total} requests…");
    yollo_obs::registry().reset();
    let _ = yollo_obs::drain_spans(); // earlier sections' spans are not this trace
    let _ = yollo_obs::take_dropped_spans();
    let slo_cfg = RouterConfig {
        replicas: 3,
        deadline_ns: 50_000_000,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 100_000,
            max_backoff_ns: 1_000_000,
        },
        hedge_delay_ns: 3_000_000,
        service: ServiceModel {
            base_ns: 500_000,
            per_item_ns: 100_000,
        },
        ..RouterConfig::default()
    };
    let slo_serve = ServeConfig {
        queue_capacity: slo_total,
        cache_capacity: 0, // batch-serve everything: isolate queue vs service
        ..serve_template.clone()
    };
    let slo_arrivals: Vec<RouterArrival> = (0..slo_total)
        .map(|i| {
            let (si, qi) = skewed[i % skewed.len()];
            let class = match i % 3 {
                0 => Priority::Interactive,
                1 => Priority::Standard,
                _ => Priority::Bulk,
            };
            RouterArrival::new(i as u64 * 1_500_000, si, &queries[qi], class)
        })
        .collect();
    let ds_vocab = vocab.clone();
    let factory_cfg = model_cfg.clone();
    let mut sim = RouterSim::new(slo_cfg, slo_serve, vocab.clone(), move |_| {
        let mut m = Yollo::new(factory_cfg.clone(), 7);
        m.set_vocab(ds_vocab.clone());
        m
    });
    sim.router_mut()
        .set_fault_plan(0, ReplicaFaultPlan::new().crash_from(3));
    sim.router_mut()
        .set_fault_plan(2, ReplicaFaultPlan::new().slow_by(4.0));
    let slo_run = sim.run(&scenes, &slo_arrivals);
    reconcile_flights(&slo_run.flights, &slo_run.events)
        .expect("flight records reconcile with the router event log");
    let slo = SloReport::from_flights(&slo_run.flights);
    let slo_spans = yollo_obs::drain_spans();
    let chains = validate_request_chains(&slo_spans)
        .expect("every request trace is a causally complete chain");
    assert_eq!(
        chains.router_requests,
        slo_run.flights.len(),
        "one admission→outcome chain per flight record"
    );
    let mut exemplars = TraceExemplars::new(3);
    exemplars.observe(&slo_spans);
    if let Some(trace_path) = yollo_obs::trace_path_from_env() {
        yollo_obs::write_chrome_trace(&trace_path, &slo_spans).expect("can write serve trace");
        eprintln!(
            "slo: wrote {} trace events to {}",
            slo_spans.len(),
            trace_path.display()
        );
    }
    let pct_json = |p: &Percentiles| {
        Json::object([
            ("p50", p.p50.into()),
            ("p95", p.p95.into()),
            ("p99", p.p99.into()),
        ])
    };
    let slowest: Vec<Json> = exemplars
        .slowest()
        .iter()
        .map(|e| {
            Json::object([
                ("trace", e.trace.into()),
                ("root", e.root_name.as_str().into()),
                ("dur_ns", e.dur_ns.into()),
                ("spans", e.events.len().into()),
            ])
        })
        .collect();
    let breakdown_json = Json::object([
        ("total", pct_json(&slo.total)),
        ("queue", pct_json(&slo.queue)),
        ("service", pct_json(&slo.service)),
    ]);
    let trace_json = Json::object([
        ("request_chains", chains.router_requests.into()),
        ("spans", chains.spans.into()),
        ("slowest", Json::Array(slowest)),
    ]);
    let slo_json = Json::object([
        ("requests", slo.submitted.into()),
        ("accepted", slo.accepted.into()),
        ("shed", slo.shed.into()),
        ("unavailable", slo.unavailable.into()),
        ("degraded_hits", slo.degraded_hits.into()),
        ("delivered_ok", slo.delivered_ok.into()),
        ("delivered_err", slo.delivered_err.into()),
        ("deadline_exceeded", slo.deadline_exceeded.into()),
        ("availability", slo.availability.into()),
        ("deadline_miss_rate", slo.deadline_miss_rate.into()),
        ("hedges", slo.hedges.into()),
        ("hedge_wins", slo.hedge_wins.into()),
        ("hedge_win_rate", slo.hedge_win_rate.into()),
        ("retry_amplification", slo.retry_amplification.into()),
        ("latency_breakdown_ns", breakdown_json),
        ("trace", trace_json),
    ]);
    let slo_line = format!(
        "slo: availability {:.3}, deadline miss {:.3}, retry amp {:.2}, \
         p95 total/queue/service {}/{}/{} µs",
        slo.availability,
        slo.deadline_miss_rate,
        slo.retry_amplification,
        slo.total.p95 / 1000,
        slo.queue.p95 / 1000,
        slo.service.p95 / 1000,
    );
    eprintln!("{slo_line}");
    lines.push(slo_line);

    let results = Json::object([
        ("scale", (format!("{scale:?}")).into()),
        ("workers", workers.into()),
        ("max_batch", serve_template.max_batch.into()),
        ("max_wait_ns", serve_template.max_wait_ns.into()),
        ("hot_set", hot.into()),
        ("dtype", Json::object([("accuracy", accuracy)])),
        ("quantization", Json::object([("accuracy", quant_accuracy)])),
        ("router", Json::Array(router_rows)),
        ("slo", slo_json),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, results.pretty()).expect("can write BENCH_serve.json");

    println!("# Serving gates ({scale:?} scale)\n");
    for line in &lines {
        println!("{line}");
    }
    println!("\nwrote {}", path.display());
}
