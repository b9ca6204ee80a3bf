#!/usr/bin/env bash
# CI gate: tier-1 build + tests, the contract suites, the exp_* smokes
# checked against baselines/tiny, then rustfmt and clippy over the whole
# workspace. Run from anywhere; operates on the workspace root. Every
# exp_* binary writes under target/experiments (yollo_bench::output_dir),
# so a run leaves the checkout as it found it; the last gate checks that.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=target/experiments
STATUS_BEFORE=$(git status --porcelain 2>/dev/null || true)

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== fault-injection suite =="
# crash/resume bit-equality, corrupted-checkpoint fallback, NaN skip and
# rollback recovery — run explicitly so a filtered-out suite fails loudly
cargo test -q -p yollo-core --test fault_tolerance

echo "== no ignored recovery tests =="
# recovery tests must never be parked behind #[ignore]
if grep -rn --include='*.rs' '#\[ignore' crates/core/tests crates/core/src/fault.rs crates/core/src/train.rs; then
    echo "error: ignored test(s) in the fault-tolerance suite" >&2
    exit 1
fi

echo "== parallel-trainer determinism suite =="
# worker-thread-count bit-equality, crash/resume under the shard pool and
# num_shards resume rejection — run explicitly so a filtered-out suite
# fails loudly
cargo test -q -p yollo-core --test parallel_train

echo "== train-speed smoke =="
YOLLO_SCALE=tiny cargo run --release -q -p yollo-bench --bin exp_train_speed
python3 - "$OUT/BENCH_train.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["rows"], "at least one timed configuration"
modes = {r["mode"] for r in bench["rows"]}
assert modes == {"serial", "parallel"}, f"unexpected modes: {modes}"
for row in bench["rows"]:
    assert row["steps_per_s"] > 0, "throughput must be nonzero"
    assert row["ns_per_step"] > 0
det = bench["determinism"]
assert det["weights_bitwise_equal"] is True, "worker threads changed the bits"
assert det["worker_threads"] == [1, 2, 4]
print("BENCH_train.json ok:",
      ", ".join(f"{r['mode']}/w{r['worker_threads']}->{r['steps_per_s']:.2f} steps/s"
                for r in bench["rows"]))
EOF
scripts/bench_check "$OUT/BENCH_train.json" baselines/tiny/BENCH_train.json

echo "== trainer: no stray printing in core =="
# training progress goes through the log/obs layers, never raw stdout
# (doc-comment examples are exempt)
if grep -rn --include='*.rs' 'println!' crates/core/src | grep -vE ':\s*//'; then
    echo "error: println! in crates/core/src" >&2
    exit 1
fi

echo "== dtype: cross-dtype equivalence and f32 gradcheck suites =="
# the f32 fast path against the f64 oracle: γ-bounded kernel drift
# (backend_equivalence) and the looser-tolerance f32 gradchecks plus the
# element/cast unit tests live in the tensor lib suite — run both
# explicitly so a filtered-out suite fails loudly
cargo test -q -p yollo-tensor --test backend_equivalence
cargo test -q -p yollo-tensor --lib
# the f64-vs-f32 serve IoU-tolerance comparison rides in the serve
# integration suite (runs below) — make sure it's still present
if ! grep -q 'f32_backend_serves_within_iou_tolerance_of_f64' crates/serve/tests/integration.rs; then
    echo "error: serve f32-vs-f64 tolerance test is missing" >&2
    exit 1
fi
# the flat pass's packed f32 GEMM: its gamma-bound and thread/split
# invariance loops ride in backend_equivalence, and the portable-path
# check (run on every host, AVX2 or not) in the kernel's own module
for t in crates/tensor/tests/backend_equivalence.rs:packed_f32_matmul_tracks_f64_oracle \
         crates/tensor/tests/backend_equivalence.rs:packed_f32_matmul_is_bitwise_thread_and_split_invariant \
         crates/tensor/src/packed.rs:portable_path_matches_in_order_reference_exactly; do
    if ! grep -q "fn ${t#*:}" "${t%%:*}"; then
        echo "error: packed f32 GEMM test ${t#*:} is missing from ${t%%:*}" >&2
        exit 1
    fi
done

echo "== dtype: tensor-speed smoke (both instantiations) =="
# one intra-op thread, as the committed baseline rows (`threads: 1`) were
# recorded: the pool width otherwise adds `threads: N` cells on a
# multi-core host and bench_check's row count no longer matches
YOLLO_THREADS=1 YOLLO_TENSOR_REPS=1 cargo run --release -q -p yollo-bench --bin exp_tensor_speed
python3 - "$OUT/BENCH_tensor.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)
dtypes = {r["dtype"] for r in rows}
assert dtypes == {"f64", "f32", "i8"}, f"unexpected dtypes: {dtypes}"
by_dtype = {d: {(r["op"], r["shape"], r["threads"]) for r in rows if r["dtype"] == d}
            for d in dtypes}
assert by_dtype["f64"] == by_dtype["f32"], (
    "f32 suite must cover exactly the ops/shapes the f64 suite covers: "
    f"{by_dtype['f64'] ^ by_dtype['f32']}")
for r in rows:
    assert r["ns_per_iter"] > 0, f"non-positive timing: {r}"
ns = {(r["op"], r["dtype"], r["shape"]): r["ns_per_iter"]
      for r in rows if r["threads"] == 1}
# the fused one-pass backward must cover both dtypes at both GEMM shapes
# and not lose to the transpose-then-multiply baseline (15% timing slack)
for d in ("f64", "f32"):
    for shape in ("64x256x64", "256x1024x256"):
        fused = ns[("matmul_bwd_fused", d, shape)]
        base = ns[("matmul_bwd_transposed", d, shape)]
        assert fused <= base * 1.15, (
            f"fused backward regressed vs transposed ({d} {shape}): "
            f"{fused:.0f} ns vs {base:.0f} ns")
# INT8 acceptance: the fused i8 GEMM (quantize + i8 dot + dequant) beats
# the single-thread f32 blocked matmul by >= 1.5x at the large shape
for shape in ("64x256x64", "256x1024x256"):
    assert ("matmul_q8", "i8", shape) in ns and ("matmul_q8_fused", "i8", shape) in ns
q8_speedup = ns[("matmul_blocked", "f32", "256x1024x256")] / ns[
    ("matmul_q8_fused", "i8", "256x1024x256")]
assert q8_speedup >= 1.5, (
    f"int8 fused GEMM speedup vs f32 fell to {q8_speedup:.2f}x (< 1.5x)")
print(f"BENCH_tensor.json ok: {len(rows)} rows, "
      f"{len(by_dtype['f64'])} (op, shape, threads) cells per dtype, "
      f"int8 fused {q8_speedup:.2f}x f32")
EOF
scripts/bench_check "$OUT/BENCH_tensor.json" baselines/tiny/BENCH_tensor.json

echo "== quantization: kernel bounds, artifact durability, int8 serving =="
# seeded gamma-bound property loops of the i8 kernels against the f64
# oracle plus bitwise thread-count invariance
cargo test -q -p yollo-tensor --test quant_bound
# the int8 layers are bit-identical to quantizing f32 patch rows per value,
# an integer matmul and the scalar dequant: the quantizer against
# quantize_one (portable path on every host), the fused GEMM against the
# integer oracle and its portable path, and the layers against the
# unfused composition — the lib suites run above, check they are present
for t in crates/tensor/src/quant.rs:quantizer_matches_quantize_one_bit_for_bit \
         crates/tensor/src/quant.rs:matmul_matches_integer_oracle_all_shapes \
         crates/tensor/src/quant.rs:portable_gemm_matches_dispatch_path \
         crates/nn/src/quant.rs:int8_layers_match_unfused_composition_exactly; do
    if ! grep -q "fn ${t#*:}" "${t%%:*}"; then
        echo "error: int8 exactness test ${t#*:} is missing from ${t%%:*}" >&2
        exit 1
    fi
done
# the flat pass convolves one image at a time: the int8 GEMM above its
# fan-out threshold and over a caller's row split, every sample of a b8
# batch against itself alone, reused scratch against fresh, and conv
# scratch that does not grow with the batch (the quant_bound suite runs
# above, the core lib suite in tier-1) — check they are present
for t in crates/tensor/tests/quant_bound.rs:int8_matmul_is_thread_count_invariant \
         crates/tensor/tests/quant_bound.rs:int8_matmul_is_bitwise_thread_and_split_invariant \
         crates/core/src/quantized.rs:scratch_reuse_is_equivalent \
         crates/core/src/quantized.rs:batched_samples_answer_as_they_do_alone \
         crates/core/src/quantized.rs:conv_scratch_does_not_grow_with_the_batch; do
    if ! grep -q "fn ${t#*:}" "${t%%:*}"; then
        echo "error: flat-pass test ${t#*:} is missing from ${t%%:*}" >&2
        exit 1
    fi
done
# artifact round-trip bit-identity and typed-error rejection of
# truncated / bit-flipped / shape-mangled files
cargo test -q -p yollo-core --test quantized_artifact
# the flat serve paths (exact served-vs-direct identity for f32 and int8,
# f64 tolerance, artifact hot-load) ride in the serve integration suite
# (runs below) — make sure the tests are still present
for t in f32_backend_served_matches_direct_flat_inference_exactly \
         int8_backend_served_matches_direct_quantized_inference_exactly \
         quantized_artifact_hot_loads_into_threaded_server; do
    if ! grep -q "$t" crates/serve/tests/integration.rs; then
        echo "error: serve flat-path test $t is missing" >&2
        exit 1
    fi
done

echo "== serve: batching, fault and determinism suites =="
# virtual-clock flush exactness, backpressure, cache identity, worker-panic
# isolation and the 100-run determinism fingerprint — run explicitly so a
# filtered-out suite fails loudly
cargo test -q -p yollo-serve

echo "== serve: router chaos gate =="
# fault-injected multi-replica routing: crash/hang/slow/flap schedules,
# exactly-one-terminal-response, availability under a crash-looping
# replica, hedging, degraded cache-only mode, the 100-run scheduling
# fingerprint, and the consistent-hash ring invariants — run explicitly so
# a filtered-out suite fails loudly
cargo test -q -p yollo-serve --test router
cargo test -q -p yollo-serve --test ring_props

echo "== serve: serving-gates smoke + trace gate =="
# exp_serve validates its own flight/event reconciliation and span-chain
# completeness, then writes the traced chaos run as a Chrome trace, reads
# the file back and re-runs the chain check on what it read (it aborts
# otherwise), so the artifact a human would open in Perfetto is itself
# proven complete
YOLLO_SCALE=tiny cargo run --release -q -p yollo-bench --bin exp_serve
python3 - "$OUT/BENCH_serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
# Router tier: 1/2/4 replicas, each measured healthy and with replica 0
# crash-looping. Healthy serving must not drop anything; with >= 2 replicas
# one crash-looping replica must keep availability at >= 99%.
router = bench["router"]
cells = {(r["replicas"], r["condition"]) for r in router}
want = {(n, c) for n in (1, 2, 4) for c in ("healthy", "crash-loop")}
assert cells == want, f"router grid incomplete: {want - cells}"
for row in router:
    assert row["throughput_rps"] > 0, f"router throughput must be nonzero: {row}"
    assert row["latency_ns"]["p99"] > 0, f"router p99 missing: {row}"
    if row["condition"] == "healthy":
        assert row["availability"] >= 0.999, f"healthy router dropped requests: {row}"
        assert row["worker_panics"] == 0, f"healthy run must not panic: {row}"
    elif row["replicas"] >= 2:
        assert row["availability"] >= 0.99, (
            f"one crash-looping replica out of {row['replicas']} must keep "
            f"availability >= 0.99: {row}")
print("router ok:",
      ", ".join(f"x{r['replicas']}/{r['condition']}->{r['availability']:.3f}"
                for r in sorted(router, key=lambda r: (r['replicas'], r['condition']))))
# SLO accounting: the deterministic traced chaos run must answer
# everything it accepts, split latency into queue vs service, and agree
# with the span-chain count exp_serve verified from its trace file
slo = bench["slo"]
assert slo["requests"] > 0 and slo["accepted"] > 0
assert slo["availability"] >= 0.99, f"chaos run lost accepted requests: {slo}"
assert slo["trace"]["request_chains"] == slo["requests"]
bd = slo["latency_breakdown_ns"]
for part in ("total", "queue", "service"):
    assert bd[part]["p50"] <= bd[part]["p95"] <= bd[part]["p99"], (
        f"percentiles must be monotone: {part} {bd[part]}")
assert bd["total"]["p95"] >= bd["queue"]["p50"], "total latency includes queue wait"
print(f"slo ok: availability {slo['availability']:.3f}, "
      f"retry amp {slo['retry_amplification']:.2f}, "
      f"p95 total/queue/service {bd['total']['p95']}/{bd['queue']['p95']}"
      f"/{bd['service']['p95']} ns")
# Quantized tier: the in-process int8 model must hold the accuracy
# budget — ACC@0.5 drift vs ground truth within 1% of the f64 reference.
# Serving speed is servebench's (ground-f32-open, ground-int8-closed,
# route-zipf-hits), not this file's
acc = bench["quantization"]["accuracy"]
assert acc["pairs"] > 0
assert acc["acc_at_05_drift"] <= 0.01 + 1e-9, (
    f"int8 ACC@0.5 drifted {acc['acc_at_05_drift']:.4f} (> 1%) from f64")
assert 0.0 <= acc["attention_peak_agreement"] <= 1.0
print(f"quantization ok: ACC@0.5 drift {acc['acc_at_05_drift']:.4f}, "
      f"attention peak agreement {acc['attention_peak_agreement']:.3f}")
EOF

echo "== serve: deterministic simulation soak gate =="
# the simtest harness proves its own claims on every run (the binary
# aborts on any invariant violation or same-seed divergence); the smoke
# scale keeps the gate within CI wall budgets while still pushing >= 100k
# virtual requests through the 4-replica chaos headline, twice
cargo test -q -p yollo-serve --test simtest
SIMTEST_WALL_BUDGET_S=120
SIMTEST_START=$(date +%s)
YOLLO_SIMTEST_SCALE=smoke cargo run --release -q -p yollo-bench --bin exp_simtest
SIMTEST_WALL=$(( $(date +%s) - SIMTEST_START ))
if [ "$SIMTEST_WALL" -gt "$SIMTEST_WALL_BUDGET_S" ]; then
    echo "error: simtest smoke took ${SIMTEST_WALL}s (budget ${SIMTEST_WALL_BUDGET_S}s)" >&2
    exit 1
fi
python3 - "$OUT/BENCH_serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    sim = json.load(f)["simtest"]
head = sim["headline"]
assert head["requests"] >= 100_000, f"headline too small: {head['requests']}"
assert head["replay_identical"] is True, "same-seed replay must be bit-identical"
assert head["clean"] is True and head["violations"] == 0, f"violations: {head}"
assert head["replicas"] == 4 and head["faults"] == "chaos"
lat = head["latency_ns"]
assert lat["p50"] <= lat["p95"] <= lat["p99"], f"percentiles not monotone: {lat}"
cells = {(c["replicas"], c["load"], c["faults"]) for c in sim["grid"]}
want = {(n, l, fz) for n in (1, 2, 4) for l in ("steady", "bursty")
        for fz in ("none", "chaos")}
assert cells == want, f"simtest grid incomplete: {want - cells}"
for c in sim["grid"]:
    assert c["clean"] is True and c["violations"] == 0, f"dirty cell: {c}"
    assert 0.0 <= c["availability"] <= 1.0 and 0.0 <= c["shed_rate"] <= 1.0
    if c["faults"] == "none" and c["load"] == "steady":
        assert c["availability"] >= 0.999, (
            f"fault-free steady cell dropped requests: {c}")
# bench_check skips fingerprint keys so results compare across libm
# builds; the smoke-scale event fingerprints are pinned exactly here, so a
# change that reorders routing decisions fails CI instead of passing
# unnoticed
with open("baselines/tiny/BENCH_serve.json") as f:
    pinned = json.load(f)["simtest"]
assert head["fingerprint"] == pinned["headline"]["fingerprint"], (
    f"headline fingerprint {head['fingerprint']} != pinned "
    f"{pinned['headline']['fingerprint']}")
want_fp = {c["name"]: c["fingerprint"] for c in pinned["grid"]}
got_fp = {c["name"]: c["fingerprint"] for c in sim["grid"]}
assert len(want_fp) == 12 and got_fp == want_fp, (
    f"grid fingerprints differ from the pinned ones: "
    f"{sorted(k for k in want_fp if got_fp.get(k) != want_fp[k])}")
print(f"simtest ok: headline {head['requests']} reqs replayed bit-identically "
      f"({head['virtual_s']:.1f}s virtual in {head['wall_s']:.2f}s wall), "
      f"{len(sim['grid'])} grid cells clean")
EOF
scripts/bench_check "$OUT/BENCH_serve.json" baselines/tiny/BENCH_serve.json

echo "== serve: no stray printing in the serving crate =="
# the serve crate (batcher, router, health machinery) must never write to
# stdout or stderr; responses travel on channels, telemetry through obs
if grep -rnE --include='*.rs' '\b(println!|eprintln!|print!|eprint!)' crates/serve/src | grep -vE ':\s*//'; then
    echo "error: stray printing in crates/serve/src" >&2
    exit 1
fi

echo "== tensor/nn: no stray printing in the dtype-generic backend =="
# library crates never write to stdout (doc-comment examples are exempt;
# bench binaries under crates/bench print by design)
if grep -rn --include='*.rs' 'println!' crates/tensor/src crates/nn/src | grep -vE ':\s*//'; then
    echo "error: println! in crates/tensor/src or crates/nn/src" >&2
    exit 1
fi

echo "== dependencies: rand only, one persistence format, no removed code paths, no f32 tape in serving, one flat GEMM, one serving simulator and timer, one telemetry build =="
# JSON goes through yollo-obs's one value, writer and parser, and every
# saved model, checkpoint and quantized export is a YOLLOART artifact, so
# serde, serde_json and the old JSON model and YOLLO-CKPT checkpoint code
# stay out; properties run as seeded loops and the exp_* binaries produce
# every BENCH number, so proptest and criterion stay out; so do the tape
# arena and the test-only graph-free forward that nothing in serving or
# training called
EXTERNAL=$(sed -n 's/^name = "\(.*\)"$/\1/p' Cargo.lock \
    | grep -vxE 'yollo(-[a-z]+)?|rand' || true)
if [ -n "$EXTERNAL" ]; then
    echo "error: Cargo.lock names packages beyond rand:" $EXTERNAL >&2
    exit 1
fi
if grep -rn --include='*.rs' --include='Cargo.toml' 'serde' Cargo.toml crates src tests examples; then
    echo "error: serde is named in a manifest or source file" >&2
    exit 1
fi
if grep -rnE 'YOLLO-CKPT|write_durable|read_validated|SavedModel|rebuild_index' crates src tests examples; then
    echo "error: a removed persistence format or routine is back" >&2
    exit 1
fi
if grep -rnE 'proptest|criterion::|criterion_|TapeArena|YOLLO_TAPE_ARENA|forward_infer|conv2d_forward|ConvScratch' crates; then
    echo "error: a removed dependency or code path is back under crates/" >&2
    exit 1
fi
# f32 serves on the flat pass: the serving crate never builds the f32 tape
if grep -rnE 'Yollo<f32>|cast::<f32>' crates/serve/src; then
    echo "error: crates/serve/src names the f32 tape; f32 serves on the flat pass" >&2
    exit 1
fi
# the flat pass has one float GEMM, the packed f32 kernel: the tape's
# blocked matmul, its transposing wrapper and the old bias/ReLU pass stay
# out of the fused layers, the fused backbone and the flat forward
if grep -nE '\b(matmul_blocked|matmul_nt_scratch|finish_rows)\b' \
    crates/nn/src/quant.rs crates/backbone/src/fused.rs crates/core/src/quantized.rs; then
    echo "error: the flat pass calls a GEMM other than f32_matmul_packed" >&2
    exit 1
fi
# arrival scripts replay through RouterSim, the one virtual-time event
# loop, and nothing signals a wake hook; servebench alone times serving,
# so exp_serve runs no throughput load of its own
if [ -e crates/serve/src/sim.rs ] || grep -rnE '\b(Simulation|SimReport)\b|Waker' crates/serve; then
    echo "error: a second serving simulator or the wake hook is back under crates/serve" >&2
    exit 1
fi
if grep -nE 'run_load|speedup_vs_serial' crates/bench/src/bin/exp_serve.rs; then
    echo "error: exp_serve times serving again; servebench owns serving speed" >&2
    exit 1
fi
# telemetry has one build: recording is switched at runtime (YOLLO_OBS /
# set_enabled) only, so no compile-time obs feature, no second histogram
# layout, and no build step without default features come back. The obs
# manifest keeps `enabled = []` declared, inert, because servebench's
# manifest names it
if grep -rnE 'feature *= *"(enabled|obs)"' crates; then
    echo "error: a compile-time telemetry cfg is back under crates/" >&2
    exit 1
fi
if grep -nE 'enabled|default-features' Cargo.toml crates/*/Cargo.toml | grep -v '^crates/obs/Cargo.toml:'; then
    echo "error: a workspace manifest names the obs feature or default-features" >&2
    exit 1
fi
if grep -n '^\[features\]' crates/tensor/Cargo.toml \
    || [ "$(sed -n '/^\[features\]/,/^\[/p' crates/obs/Cargo.toml | grep -E '^[a-z]')" != "enabled = []" ]; then
    echo "error: yollo-tensor has features, or yollo-obs has more than the inert enabled = []" >&2
    exit 1
fi
NO_DEFAULT="--no-default""-features" # split so this line does not match itself
if grep -rn --include='*.rs' 'STREAM_HIST_BUCKETS' crates || grep -n -- "$NO_DEFAULT" scripts/ci.sh; then
    echo "error: a second histogram layout or a build without default features is back" >&2
    exit 1
fi
for f in bucket_of bucket_mid nearest_rank; do
    DEFS=$(grep -rn --include='*.rs' -E "fn $f\b" crates | wc -l)
    if [ "$DEFS" -ne 1 ]; then
        echo "error: fn $f is defined $DEFS times under crates/ (want one)" >&2
        exit 1
    fi
done

echo "== obs: runtime-off contract =="
# with recording switched off every probe is inert (noop), and an
# instrumented matmul runs at the bare kernel's speed (obs_overhead) —
# run explicitly so a filtered-out suite fails loudly
cargo test -q -p yollo-obs --test noop
cargo test -q -p yollo-tensor --test obs_overhead

echo "== obs: profiling smoke =="
# one intra-op thread, as the committed baseline was recorded: a wider pool
# adds fan-out counters bench_check does not expect
YOLLO_THREADS=1 YOLLO_SCALE=tiny cargo run --release -q -p yollo-bench --bin exp_profile
if ! grep -q 'fn chrome_trace_creates_missing_parent_directories' crates/obs/src/span.rs; then
    echo "error: trace-directory test is missing from crates/obs/src/span.rs" >&2
    exit 1
fi
python3 -m json.tool "$OUT/trace_profile.json" > /dev/null
scripts/bench_check "$OUT/BENCH_obs.json" baselines/tiny/BENCH_obs.json

echo "== obs: serving trace-validation mode =="
# the same binary in YOLLO_PROFILE_MODE=trace drives a traced request
# load through the threaded server and exits non-zero unless every
# request trace is a causally complete chain, in memory and as read back
# from the trace file it writes
YOLLO_SCALE=tiny YOLLO_PROFILE_MODE=trace cargo run --release -q -p yollo-bench --bin exp_profile

echo "== obs: no stray printing in the telemetry crate =="
# the obs crate must never write to stdout; sinks and trace files only
if grep -rn --include='*.rs' 'println!' crates/obs/src; then
    echo "error: println! in crates/obs/src" >&2
    exit 1
fi

echo "== rustfmt (whole workspace) =="
cargo fmt --all --check

echo "== clippy -D warnings (whole workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== the checkout is as ci.sh found it =="
# every exp_* output lands under $OUT; a committed BENCH_*.json changes
# only when someone copies a run over it (README, "Regenerating results")
if [ "$(git status --porcelain 2>/dev/null || true)" != "$STATUS_BEFORE" ]; then
    echo "error: ci.sh changed files in the checkout:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "ci.sh: all gates passed"
