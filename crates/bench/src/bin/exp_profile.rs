//! **Profiling harness** — traces one training step and times repeated
//! inference passes, writing `BENCH_obs.json` under [`output_dir`] plus a
//! Chrome `trace_event` file loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`.
//!
//! The trace of the training step must contain spans for the encoder, every
//! Rel2Att layer, the detection head, the matmul kernels and the optimizer
//! step; the binary exits non-zero if any of them is missing (a regression
//! in the instrumentation). `YOLLO_TRACE_PATH` overrides the trace output
//! location; `YOLLO_SCALE` selects the usual tiny/standard/full preset.
//!
//! `YOLLO_PROFILE_MODE=trace` switches the binary into **trace-validation
//! mode**: instead of profiling, it pushes a traced request load through
//! the threaded serving stack and exits non-zero unless every request
//! trace forms a causally complete span chain (one `serve.request` root
//! per submission, all parents resolving in-trace), both in memory and as
//! read back from the written trace file. CI uses this as the tracing
//! smoke gate.

use std::collections::HashSet;

use yollo_bench::{dataset, output_dir, Scale};
use yollo_core::{TrainConfig, Trainer, Yollo};
use yollo_eval::time_inference;
use yollo_obs::{Json, Snapshot};
use yollo_serve::{validate_request_chains, ServeConfig, Server};
use yollo_synthref::{DatasetKind, Split};

/// Spans that one traced training step must contain (plus one `rel2att.{i}`
/// per layer, appended in `main`).
const REQUIRED_SPANS: &[&str] = &[
    "train.step",
    "model.forward",
    "model.encoder",
    "encoder.image",
    "encoder.query",
    "model.rel2att",
    "head.forward",
    "tensor.matmul",
    "tensor.graph.backward",
    "optim.adam.step",
];

/// `YOLLO_PROFILE_MODE=trace`: a traced request load through the real
/// threaded [`Server`], validated for causal completeness. Small hot set,
/// so both batch-served chains (root + queued + exec) and cache-hit
/// chains (bare root) appear.
fn trace_validation(scale: Scale) {
    let ds = dataset(scale, DatasetKind::SynthRef);
    let model = Yollo::for_dataset(&ds, 7);
    let model_cfg = model.config().clone();
    let vocab = model.vocab().clone();
    let n = match scale {
        Scale::Tiny => 24usize,
        Scale::Standard => 64,
        Scale::Full => 128,
    };
    eprintln!("trace validation: {n} traced requests through the threaded server…");
    yollo_obs::registry().reset();
    let _ = yollo_obs::drain_spans();
    let _ = yollo_obs::take_dropped_spans();
    let cfg = ServeConfig {
        queue_capacity: n,
        cache_capacity: 8,
        workers: 2,
        ..ServeConfig::for_model(&model_cfg)
    };
    let scenes = ds.scenes().to_vec();
    let samples = ds.samples(Split::Train).to_vec();
    let factory_vocab = vocab.clone();
    let server = Server::start(cfg, vocab, move || {
        let mut m = Yollo::new(model_cfg.clone(), 7);
        m.set_vocab(factory_vocab.clone());
        m
    });
    let hot = samples.len().min(8);
    let pending: Vec<_> = (0..n)
        .map(|i| {
            let s = &samples[i % hot];
            server
                .submit(&scenes[s.scene_idx], &s.sentence)
                .expect("queue has room")
        })
        .collect();
    let ok = pending
        .into_iter()
        .map(|r| r.wait())
        .filter(Result::is_ok)
        .count();
    drop(server);

    let spans = yollo_obs::drain_spans();
    let summary =
        validate_request_chains(&spans).expect("every request trace is causally complete");
    assert_eq!(
        summary.direct_requests, n,
        "one serve.request root per submission"
    );
    let trace_path = yollo_obs::trace_path_from_env()
        .unwrap_or_else(|| output_dir().join("trace_validation.json"));
    yollo_obs::write_chrome_trace(&trace_path, &spans).expect("can write trace");
    let read_back = yollo_obs::read_chrome_trace(&trace_path).expect("can read trace");
    assert_eq!(
        validate_request_chains(&read_back),
        Ok(summary),
        "the trace file alone proves the same chains"
    );
    println!("# Trace validation ({scale:?} scale)\n");
    println!(
        "{n} requests ({ok} ok): {} request chains, {} spans — all causally complete",
        summary.direct_requests, summary.spans
    );
    println!("trace: {}", trace_path.display());
}

fn main() {
    yollo_obs::set_enabled(true);
    let scale = Scale::from_env();
    if std::env::var("YOLLO_PROFILE_MODE").as_deref() == Ok("trace") {
        trace_validation(scale);
        return;
    }
    let ds = dataset(scale, DatasetKind::SynthRef);
    let mut model = Yollo::for_dataset(&ds, 7);

    // dataset generation and model init record too; start the profile clean
    yollo_obs::registry().reset();
    let _ = yollo_obs::drain_spans();

    // --- one traced training step ---
    eprintln!("tracing one training step…");
    Trainer::new(TrainConfig {
        iterations: 1,
        batch_size: 4,
        eval_every: 0,
        checkpoint_every: 0,
        word2vec_init: false,
        pretrain_backbone_steps: 0,
        seed: 7,
        ..TrainConfig::default()
    })
    .train(&mut model, &ds);
    let train_spans = yollo_obs::drain_spans();
    let train_snapshot = yollo_obs::registry().snapshot();

    let mut required: Vec<String> = REQUIRED_SPANS.iter().map(|s| s.to_string()).collect();
    for i in 0..model.config().n_rel2att {
        required.push(format!("rel2att.{i}"));
    }
    let have: HashSet<&str> = train_spans.iter().map(|e| e.name.as_ref()).collect();
    let missing: Vec<&String> = required
        .iter()
        .filter(|r| !have.contains(r.as_str()))
        .collect();
    if !missing.is_empty() {
        eprintln!("missing required spans in the training-step trace: {missing:?}");
        std::process::exit(1);
    }

    // --- timed inference passes ---
    let (warmup, reps) = match scale {
        Scale::Tiny => (1, 5),
        Scale::Standard => (3, 20),
        Scale::Full => (5, 50),
    };
    eprintln!("timing {reps} inference passes…");
    yollo_obs::registry().reset();
    let sample = &ds.samples(Split::Val)[0];
    let (images, queries, _) = model.encode_batch(&ds, &[sample]);
    let stats = time_inference(
        || {
            model.predict_batch(images.clone(), &queries);
        },
        warmup,
        reps,
    );
    let infer_snapshot = yollo_obs::registry().snapshot();
    let infer_spans = yollo_obs::drain_spans();

    // --- Chrome trace: the training step followed by the inference passes ---
    let trace_path =
        yollo_obs::trace_path_from_env().unwrap_or_else(|| output_dir().join("trace_profile.json"));
    let train_span_count = train_spans.len();
    let mut events = train_spans;
    events.extend(infer_spans);
    yollo_obs::write_chrome_trace(&trace_path, &events).expect("can write trace");

    // --- BENCH_obs.json ---
    let stage = |name: &str| -> Json {
        match infer_snapshot.histogram(name) {
            Some(h) => Json::object([
                ("count", h.count.into()),
                ("mean_ns", h.mean.into()),
                ("p50_ns", h.p50.into()),
                ("p95_ns", h.p95.into()),
                ("p99_ns", h.p99.into()),
            ]),
            None => Json::Null,
        }
    };
    let counters = |snap: &Snapshot| -> Json {
        Json::Object(
            snap.counters
                .iter()
                .map(|(n, v)| (n.clone(), (*v).into()))
                .collect(),
        )
    };
    let stages = Json::object([
        ("encoder", stage("model.encoder_ns")),
        ("rel2att", stage("model.rel2att_ns")),
        ("head", stage("model.head_ns")),
        ("batch", stage("infer.batch_ns")),
        ("matmul", stage("tensor.matmul_ns")),
    ]);
    let inference = Json::object([
        ("reps", stats.reps.into()),
        ("mean_s", stats.mean_s.into()),
        ("p50_s", stats.p50_s.into()),
        ("p95_s", stats.p95_s.into()),
        ("p99_s", stats.p99_s.into()),
        ("min_s", stats.min_s.into()),
        ("stages", stages),
        ("counters", counters(&infer_snapshot)),
    ]);
    let train_step = Json::object([
        ("spans", train_span_count.into()),
        ("counters", counters(&train_snapshot)),
    ]);
    let results = Json::object([
        ("scale", format!("{scale:?}").into()),
        ("trace_path", trace_path.display().to_string().into()),
        ("trace_events", events.len().into()),
        ("inference", inference),
        ("train_step", train_step),
    ]);
    let path = output_dir().join("BENCH_obs.json");
    std::fs::write(&path, results.pretty()).expect("can write BENCH_obs.json");

    println!("# Profile ({scale:?} scale)\n");
    println!(
        "inference over {} reps: mean {:.4}s, p50 {:.4}s, p95 {:.4}s, p99 {:.4}s",
        stats.reps, stats.mean_s, stats.p50_s, stats.p95_s, stats.p99_s
    );
    for (label, name) in [
        ("encoder", "model.encoder_ns"),
        ("rel2att", "model.rel2att_ns"),
        ("head", "model.head_ns"),
    ] {
        if let Some(h) = infer_snapshot.histogram(name) {
            println!(
                "  {label:>8}: p50 {:.3}ms  p95 {:.3}ms  ({} calls)",
                h.p50 as f64 / 1e6,
                h.p95 as f64 / 1e6,
                h.count
            );
        }
    }
    println!("trace ({} events): {}", events.len(), trace_path.display());
    println!("raw results: {}", path.display());
}
