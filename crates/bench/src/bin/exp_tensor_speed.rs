//! **Tensor backend speed.** Times the blocked/parallel compute paths
//! against the retained naive reference kernel on fixed seeds — at both
//! dtype instantiations (`f64` = reference, `f32` = serve fast path) —
//! and writes `BENCH_tensor.json` under `yollo_bench::output_dir()`: one
//! record per (op, dtype, shape, threads) with ns/iter.
//!
//! Run with `cargo run --release -p yollo-bench --bin exp_tensor_speed`.
//! `YOLLO_TENSOR_REPS=<n>` overrides the repetition count.

use std::time::Instant;
use yollo_obs::Json;
use yollo_tensor::{
    im2col_into, matmul_blocked, matmul_naive, matmul_nt_scratch, matmul_tn_scratch, parallel,
    q8_kernel_is_avx2, q8_matmul, q8_matmul_dequant, quantize_activations, symmetric_scale,
    Conv2dSpec, Element, Graph, Q8Scratch, Q8Weights, Tensor,
};

struct Record {
    op: &'static str,
    dtype: &'static str,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
}

/// Best-of-`reps` wall time of `f`, in nanoseconds (min filters scheduler
/// noise better than the mean at these durations).
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, prime caches
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn randn_vec<E: Element>(len: usize, seed: u64) -> Vec<E> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::<E>::randn(&[len], &mut rng).into_vec()
}

fn seeded_randn<E: Element>(dims: &[usize], seed: u64) -> Tensor<E> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::<E>::randn(dims, &mut rng)
}

/// Runs the full op suite at one dtype instantiation, appending
/// dtype-tagged records. Identical shapes, seeds, and rep counts across
/// dtypes, so rows are directly comparable.
fn run_suite<E: Element>(reps: usize, records: &mut Vec<Record>) {
    let ambient = parallel::num_threads();
    let dtype = E::DTYPE;
    let mut push = |op: &'static str, shape: String, threads: usize, ns: f64| {
        eprintln!("{op:>20} [{dtype}] {shape:>18} threads={threads}: {ns:.0} ns/iter");
        records.push(Record {
            op,
            dtype,
            shape,
            threads,
            ns_per_iter: ns,
        });
    };

    // --- matmul: naive reference vs blocked, serial and ambient ---
    for &(m, k, n) in &[(64usize, 256usize, 64usize), (256, 1024, 256)] {
        let a: Vec<E> = randn_vec(m * k, 11);
        let b: Vec<E> = randn_vec(k * n, 13);
        let shape = format!("{m}x{k}x{n}");
        let mut out = vec![E::ZERO; m * n];

        let ns = time_ns(reps, || {
            out.fill(E::ZERO);
            matmul_naive(&a, &b, &mut out, m, k, n);
        });
        push("matmul_naive", shape.clone(), 1, ns);

        for &threads in &[1usize, ambient] {
            let ns = time_ns(reps, || {
                out.fill(E::ZERO);
                matmul_blocked(&a, &b, &mut out, m, k, n, threads);
            });
            push("matmul_blocked", shape.clone(), threads, ns);
            if threads == ambient {
                break; // ambient may itself be 1
            }
        }
    }

    // --- matmul backward: materialised-transpose reference vs the fused
    // nt/tn kernels the tape actually uses (∂A = ∂Y·Bᵀ, ∂B = Aᵀ·∂Y) ---
    for &(m, k, n) in &[(64usize, 256usize, 64usize), (256, 1024, 256)] {
        let a: Vec<E> = randn_vec(m * k, 29);
        let b: Vec<E> = randn_vec(k * n, 31);
        let gy: Vec<E> = randn_vec(m * n, 37);
        let shape = format!("{m}x{k}x{n}");
        let mut ga = vec![E::ZERO; m * k];
        let mut gb = vec![E::ZERO; k * n];

        // pre-optimisation strategy: transpose each operand into a scratch
        // buffer, then run the plain blocked kernel on the copies
        let mut bt = vec![E::ZERO; n * k];
        let mut at = vec![E::ZERO; k * m];
        let ns = time_ns(reps, || {
            for r in 0..k {
                for c in 0..n {
                    bt[c * k + r] = b[r * n + c];
                }
            }
            ga.fill(E::ZERO);
            matmul_blocked(&gy, &bt, &mut ga, m, n, k, 1);
            for r in 0..m {
                for c in 0..k {
                    at[c * m + r] = a[r * k + c];
                }
            }
            gb.fill(E::ZERO);
            matmul_blocked(&at, &gy, &mut gb, k, m, n, 1);
        });
        push("matmul_bwd_transposed", shape.clone(), 1, ns);

        // steady-state tape path: transpose scratch held across calls,
        // matching the pre-allocated buffers of the baseline above
        let mut scratch = Vec::new();
        for &threads in &[1usize, ambient] {
            let ns = time_ns(reps, || {
                ga.fill(E::ZERO);
                matmul_nt_scratch(&gy, &b, &mut ga, m, n, k, threads, &mut scratch);
                gb.fill(E::ZERO);
                matmul_tn_scratch(&a, &gy, &mut gb, m, k, n, threads, &mut scratch);
            });
            push("matmul_bwd_fused", shape.clone(), threads, ns);
            if threads == ambient {
                break;
            }
        }
    }

    // --- full tape round trip: forward + backward through Graph, with a
    // fresh tape per iteration ---
    {
        let (m, k, n) = (128usize, 256usize, 128usize);
        let ta: Tensor<E> = seeded_randn(&[m, k], 41);
        let tb: Tensor<E> = seeded_randn(&[k, n], 42);
        let shape = format!("{m}x{k}x{n}");

        let ns = time_ns(reps, || {
            let g = Graph::<E>::new();
            let a = g.leaf(ta.clone());
            let b = g.leaf(tb.clone());
            a.matmul(b).sum_all().backward();
            std::hint::black_box(g.len());
        });
        push("matmul_fwd_bwd", shape, ambient, ns);
    }

    // --- conv2d forward + backward through the tape ---
    {
        let x: Tensor<E> = seeded_randn(&[2, 8, 16, 16], 43);
        let w: Tensor<E> = seeded_randn(&[16, 8, 3, 3], 44);
        let spec = Conv2dSpec { stride: 1, pad: 1 };
        let ns = time_ns(reps, || {
            let g = Graph::<E>::new();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(w.clone());
            xv.conv2d(wv, spec).sum_all().backward();
            std::hint::black_box(g.len());
        });
        push("conv2d_fwd_bwd", "2x8x16x16_o16".to_string(), ambient, ns);
    }

    // --- batched matmul through the public Tensor API ---
    {
        let (bt, m, k, n) = (8usize, 64usize, 256usize, 64usize);
        let a: Tensor<E> = seeded_randn(&[bt, m, k], 17);
        let b: Tensor<E> = seeded_randn(&[bt, k, n], 18);
        let ns = time_ns(reps, || {
            std::hint::black_box(a.matmul(&b));
        });
        push("matmul_batched", format!("{bt}x{m}x{k}x{n}"), ambient, ns);
    }

    // --- im2col unfold for a 3x3 conv, reusing its column buffer ---
    {
        let x: Tensor<E> = seeded_randn(&[2, 32, 32, 32], 19);
        let spec = Conv2dSpec { stride: 1, pad: 1 };
        let mut cols = Vec::new();
        let ns = time_ns(reps, || {
            std::hint::black_box(im2col_into(&x, 3, 3, spec, &mut cols));
        });
        push("im2col", "2x32x32x32_k3".to_string(), ambient, ns);
    }

    // --- large elementwise map (above the fan-out threshold) ---
    {
        let n = 1 << 20;
        let t = Tensor::from_vec(randn_vec::<E>(n, 23), &[n]);
        let scale = E::from_f64(1.0001);
        let shift = E::from_f64(0.5);
        let ns = time_ns(reps, || {
            std::hint::black_box(t.map(|v| v * scale + shift));
        });
        push("map", format!("{n}"), ambient, ns);
        let ns = time_ns(reps, || {
            std::hint::black_box(t.sum_all());
        });
        push("sum_all", format!("{n}"), ambient, ns);
    }
}

/// Times the INT8 GEMM (the i16 GEMM over codes quantized beforehand,
/// dequantizing on store, and the fused quantize+GEMM+dequant layer path)
/// on the same shapes as the float matmuls, single-threaded — the
/// acceptance comparison is against the single-thread f32 blocked kernel.
fn run_q8_suite(reps: usize, records: &mut Vec<Record>) {
    let mut push = |op: &'static str, shape: String, threads: usize, ns: f64| {
        eprintln!("{op:>20} [i8] {shape:>18} threads={threads}: {ns:.0} ns/iter");
        records.push(Record {
            op,
            dtype: "i8",
            shape,
            threads,
            ns_per_iter: ns,
        });
    };
    eprintln!(
        "int8 kernel path: {}",
        if q8_kernel_is_avx2() {
            "avx2"
        } else {
            "scalar"
        }
    );
    for &(m, k, n) in &[(64usize, 256usize, 64usize), (256, 1024, 256)] {
        let shape = format!("{m}x{k}x{n}");
        let wrows: Vec<f32> = randn_vec(n * k, 13);
        let w = Q8Weights::quantize_rows(&wrows, n, k);
        let x: Vec<f32> = randn_vec(m * k, 11);
        let xs = symmetric_scale(x.iter().fold(0.0f32, |a, &v| a.max(v.abs())));
        let mut codes = vec![0i16; m * k];
        quantize_activations(&x, xs, &mut codes);
        let mut y = vec![0.0f32; m * n];
        let ns = time_ns(reps, || {
            q8_matmul(&codes, m, &w, xs, None, false, &mut y, 1);
            std::hint::black_box(y[0]);
        });
        push("matmul_q8", shape.clone(), 1, ns);

        let mut scratch = Q8Scratch::default();
        let ns = time_ns(reps, || {
            q8_matmul_dequant(&x, m, &w, xs, None, false, &mut y, 1, &mut scratch);
            std::hint::black_box(y[0]);
        });
        push("matmul_q8_fused", shape, 1, ns);
    }
}

fn main() {
    let reps: usize = std::env::var("YOLLO_TENSOR_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut records: Vec<Record> = Vec::new();
    run_suite::<f64>(reps, &mut records);
    run_suite::<f32>(reps, &mut records);
    run_q8_suite(reps, &mut records);

    // headline ratios the acceptance criteria track
    let ns_of = |op: &str, dtype: &str, shape: &str| {
        records
            .iter()
            .find(|r| r.op == op && r.dtype == dtype && r.shape == shape)
            .map(|r| r.ns_per_iter)
    };
    if let (Some(naive), Some(blocked)) = (
        ns_of("matmul_naive", "f64", "256x1024x256"),
        ns_of("matmul_blocked", "f64", "256x1024x256"),
    ) {
        println!(
            "256x1024x256 blocked speedup vs naive: {:.2}x",
            naive / blocked
        );
    }
    if let (Some(transposed), Some(fused)) = (
        ns_of("matmul_bwd_transposed", "f64", "256x1024x256"),
        ns_of("matmul_bwd_fused", "f64", "256x1024x256"),
    ) {
        println!(
            "256x1024x256 fused backward speedup vs transposed: {:.2}x",
            transposed / fused
        );
    }
    if let (Some(f64_ns), Some(f32_ns)) = (
        ns_of("matmul_blocked", "f64", "256x1024x256"),
        ns_of("matmul_blocked", "f32", "256x1024x256"),
    ) {
        println!(
            "256x1024x256 f32 blocked speedup vs f64: {:.2}x",
            f64_ns / f32_ns
        );
    }
    if let (Some(f32_ns), Some(q8_ns)) = (
        ns_of("matmul_blocked", "f32", "256x1024x256"),
        ns_of("matmul_q8_fused", "i8", "256x1024x256"),
    ) {
        println!(
            "256x1024x256 int8 fused speedup vs f32 blocked: {:.2}x",
            f32_ns / q8_ns
        );
    }

    let rows = Json::Array(
        records
            .iter()
            .map(|r| {
                Json::object([
                    ("op", r.op.into()),
                    ("dtype", r.dtype.into()),
                    ("shape", r.shape.clone().into()),
                    ("threads", r.threads.into()),
                    ("ns_per_iter", (r.ns_per_iter.round() as u64).into()),
                ])
            })
            .collect(),
    );
    let path = yollo_bench::output_dir().join("BENCH_tensor.json");
    std::fs::write(&path, rows.pretty()).expect("can write BENCH_tensor.json");
    println!("wrote {}", path.display());
}
