//! **Train-step throughput.** Times the serial trainer against the
//! data-parallel trainer (`num_shards = 4`) at 1, 2 and 4 worker threads,
//! checks the determinism contract — final weights bit-identical across
//! worker-thread counts — and writes `BENCH_train.json` under
//! `yollo_bench::output_dir()`.
//!
//! Thread scaling is reported against the machine it ran on (`cores` is
//! recorded in the output): on a single-core box the 4-thread row measures
//! scheduling overhead, not speedup, while the bitwise-equality check is
//! meaningful everywhere.
//!
//! Run with `cargo run --release -p yollo-bench --bin exp_train_speed`.
//! `YOLLO_SCALE=tiny|standard|full` picks the preset;
//! `YOLLO_TRAIN_ITERS=<n>` overrides the timed iteration count.

use std::time::Instant;
use yollo_bench::Scale;
use yollo_core::{TrainConfig, Trainer, Yollo, YolloConfig};
use yollo_nn::Module;
use yollo_synthref::{Dataset, DatasetKind};

struct Row {
    mode: &'static str,
    num_shards: usize,
    worker_threads: usize,
    ns_per_step: f64,
    steps_per_s: f64,
}

/// Every weight of every parameter, as raw bits.
fn weight_bits(model: &Yollo) -> Vec<Vec<u64>> {
    model
        .parameters()
        .iter()
        .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let scale_name = match scale {
        Scale::Tiny => "tiny",
        Scale::Standard => "standard",
        Scale::Full => "full",
    };
    let iterations: usize = std::env::var("YOLLO_TRAIN_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(match scale {
            Scale::Tiny => 4,
            Scale::Standard => 10,
            Scale::Full => 24,
        });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let ds = Dataset::generate(scale.dataset_config(DatasetKind::SynthRef, 2022));
    let batch_size = scale.train_config(0).batch_size;
    let model_cfg = |ds: &Dataset| match scale {
        // CI smoke: shrink the model so the whole sweep runs in seconds
        Scale::Tiny => YolloConfig {
            d_rel: 12,
            ffn_hidden: 16,
            n_rel2att: 1,
            ..YolloConfig::for_dataset(ds)
        },
        _ => YolloConfig::for_dataset(ds),
    };

    // One fresh model per run (same init seed), so runs are independent and
    // final weights are comparable across worker-thread counts. The timer
    // covers the whole training call, pool startup included — that cost is
    // real and amortises over the run.
    let run = |num_shards: usize, worker_threads: usize| {
        let mut model = Yollo::new(model_cfg(&ds), 7);
        model.set_vocab(ds.build_vocab());
        let cfg = TrainConfig {
            iterations,
            batch_size,
            eval_every: 0,
            word2vec_init: false,
            pretrain_backbone_steps: 0,
            num_shards,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(cfg);
        if num_shards > 1 {
            trainer = trainer.with_worker_threads(worker_threads);
        }
        let t = Instant::now();
        let log = trainer.train(&mut model, &ds);
        let ns = t.elapsed().as_nanos() as f64 / iterations as f64;
        assert_eq!(log.points.len(), iterations);
        (ns, weight_bits(&model))
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut push = |mode, num_shards, worker_threads, ns: f64| {
        let steps_per_s = 1e9 / ns;
        eprintln!(
            "{mode:>8} shards={num_shards} workers={worker_threads}: \
             {:.2} ms/step ({steps_per_s:.2} steps/s)",
            ns / 1e6
        );
        rows.push(Row {
            mode,
            num_shards,
            worker_threads,
            ns_per_step: ns,
            steps_per_s,
        });
    };

    let (serial_ns, _) = run(1, 1);
    push("serial", 1, 1, serial_ns);

    let shards = 4usize;
    let mut parallel_bits = Vec::new();
    let mut parallel_ns = Vec::new();
    for &wt in &[1usize, 2, 4] {
        let (ns, bits) = run(shards, wt);
        push("parallel", shards, wt, ns);
        parallel_ns.push(ns);
        parallel_bits.push(bits);
    }

    // the contract every parallel_train test enforces, re-checked on the
    // exact configuration this benchmark publishes
    let bitwise_equal = parallel_bits.iter().all(|b| *b == parallel_bits[0]);
    assert!(
        bitwise_equal,
        "determinism violated: final weights differ across worker-thread counts"
    );

    let speedup_vs_one_thread = parallel_ns[0] / parallel_ns[2];
    let speedup_vs_serial = serial_ns / parallel_ns[2];
    println!("scale={scale_name} cores={cores} iterations={iterations} batch={batch_size}");
    println!("parallel(4 shards) 4 workers vs 1 worker: {speedup_vs_one_thread:.2}x");
    println!("parallel(4 shards, 4 workers) vs serial:  {speedup_vs_serial:.2}x");
    println!("weights bitwise-equal across 1/2/4 worker threads: {bitwise_equal}");

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"mode\": \"{}\", \"num_shards\": {}, \"worker_threads\": {}, \
                 \"ns_per_step\": {:.0}, \"steps_per_s\": {:.3}}}",
                r.mode, r.num_shards, r.worker_threads, r.ns_per_step, r.steps_per_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"cores\": {cores},\n  \
         \"iterations_timed\": {iterations},\n  \"batch_size\": {batch_size},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"speedup_4_workers_vs_1_worker\": {speedup_vs_one_thread:.3},\n  \
         \"speedup_4_workers_vs_serial\": {speedup_vs_serial:.3},\n  \
         \"determinism\": {{\"num_shards\": {shards}, \"worker_threads\": [1, 2, 4], \
         \"weights_bitwise_equal\": {bitwise_equal}}}\n}}\n",
        row_json.join(",\n")
    );
    let path = yollo_bench::output_dir().join("BENCH_train.json");
    std::fs::write(&path, json).expect("can write BENCH_train.json");
    println!("wrote {}", path.display());
}
