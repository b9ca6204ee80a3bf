//! **Deterministic simulation soak** — drives the virtual-clock router
//! through millions of simulated requests in seconds of wall time and
//! merges a `simtest` section into `BENCH_serve.json` under
//! `yollo_bench::output_dir()`.
//!
//! Two stages:
//!
//! 1. **Headline soak**: one large scenario — 4 replicas, bursty
//!    Zipf-skewed traffic, a randomized chaos fault schedule — run
//!    *twice* with the same root seed. The binary aborts unless both runs
//!    are bit-identical (rolling event fingerprint, SLO report, router
//!    counters) and the online invariant checker stayed clean, so the
//!    determinism and safety claims are re-proven on every invocation,
//!    not just asserted in unit tests.
//! 2. **Scenario matrix**: replicas × load shape × fault schedule, every
//!    cell checked for zero invariant violations, with availability, shed
//!    rate and latency percentiles recorded per cell.
//!
//! `YOLLO_SIMTEST_SCALE` picks the size: `full` (default) runs a
//! 2M-request headline; `smoke` runs 120k for CI wall budgets. The
//! section is merged read-modify-write so the rest of `BENCH_serve.json`
//! (written by `exp_serve`) is preserved.

use std::time::Instant;

use yollo_obs::Json;
use yollo_serve::{run_simtest, LoadShape, SimtestConfig, SimtestOutcome};

/// (scale name, headline requests, per-grid-cell requests).
fn scale() -> (&'static str, u64, u64) {
    let v = std::env::var("YOLLO_SIMTEST_SCALE").unwrap_or_else(|_| "full".into());
    match v.as_str() {
        "smoke" => ("smoke", 120_000, 8_000),
        "full" => ("full", 2_000_000, 25_000),
        other => panic!("YOLLO_SIMTEST_SCALE must be smoke|full, got {other:?}"),
    }
}

fn bursty() -> LoadShape {
    LoadShape::Bursty {
        period_ns: 5_000_000,
        burst_ns: 1_000_000,
        factor: 8,
    }
}

fn load_name(load: &LoadShape) -> &'static str {
    match load {
        LoadShape::Steady => "steady",
        LoadShape::Bursty { .. } => "bursty",
    }
}

/// Runs one cell and renders it as a JSON row.
fn run_cell(cfg: &SimtestConfig, faults_name: &str) -> (SimtestOutcome, Json, f64) {
    let wall = Instant::now();
    let out = run_simtest(cfg);
    let wall_s = wall.elapsed().as_secs_f64();
    assert!(
        out.violations.is_empty(),
        "cell {} violated invariants: {:?}",
        cfg.name,
        out.violations
    );
    let shed_rate = if out.slo.submitted == 0 {
        0.0
    } else {
        out.slo.shed as f64 / out.slo.submitted as f64
    };
    let latency = Json::object([
        ("p50", out.slo.total.p50.into()),
        ("p95", out.slo.total.p95.into()),
        ("p99", out.slo.total.p99.into()),
    ]);
    let row = Json::object([
        ("name", cfg.name.as_str().into()),
        ("requests", out.requests.into()),
        ("replicas", cfg.replicas.into()),
        ("load", load_name(&cfg.load).into()),
        ("faults", faults_name.into()),
        ("wall_s", wall_s.into()),
        ("virtual_s", (out.virtual_ns as f64 / 1e9).into()),
        ("sim_rps", (out.requests as f64 / wall_s.max(1e-9)).into()),
        ("availability", out.slo.availability.into()),
        ("shed_rate", shed_rate.into()),
        ("deadline_miss_rate", out.slo.deadline_miss_rate.into()),
        ("latency_ns", latency),
        ("fingerprint", out.events_fingerprint.into()),
        ("events", out.events_total.into()),
        ("max_open", out.max_open.into()),
        ("violations", out.violations.len().into()),
        ("clean", out.violations.is_empty().into()),
    ]);
    (out, row, wall_s)
}

fn main() {
    let (scale_name, headline_requests, grid_requests) = scale();
    eprintln!("simtest: {scale_name} scale ({headline_requests} headline requests)");

    // Stage 1: the headline soak, twice, same seed — replay must be exact.
    let mut headline = SimtestConfig::cell(
        "headline-4r-bursty-chaos",
        headline_requests,
        4,
        0x51_517E57,
        bursty(),
        None,
    );
    headline.faults = Some(headline.chaos());
    let (a, mut headline_row, wall_a) = run_cell(&headline, "chaos");
    let (b, _, wall_b) = run_cell(&headline, "chaos");
    assert_eq!(
        a.events_fingerprint, b.events_fingerprint,
        "same-seed headline runs diverged on the event fingerprint"
    );
    assert_eq!(a.events_total, b.events_total);
    assert_eq!(
        a.slo, b.slo,
        "same-seed headline runs diverged on the SLO report"
    );
    assert_eq!(
        a.stats, b.stats,
        "same-seed headline runs diverged on counters"
    );
    if let Json::Object(m) = &mut headline_row {
        m.insert("replay_identical".into(), true.into());
    }
    eprintln!(
        "headline: {} requests, {:.1}s virtual in {:.2}s+{:.2}s wall, \
         availability {:.4}, fingerprint {:016x} (replayed)",
        a.requests,
        a.virtual_ns as f64 / 1e9,
        wall_a,
        wall_b,
        a.slo.availability,
        a.events_fingerprint,
    );

    // Stage 2: the scenario matrix.
    let mut grid = Vec::new();
    for &replicas in &[1usize, 2, 4] {
        for load in [LoadShape::Steady, bursty()] {
            for faults_name in ["none", "chaos"] {
                let name = format!("grid-{replicas}r-{}-{faults_name}", load_name(&load));
                // Cell-distinct seeds: the grid probes many schedules, not
                // one schedule at many sizes.
                let seed = 0xA11CE ^ ((replicas as u64) << 32) ^ grid.len() as u64;
                let mut cfg = SimtestConfig::cell(name, grid_requests, replicas, seed, load, None);
                if faults_name == "chaos" {
                    cfg.faults = Some(cfg.chaos());
                }
                let (out, row, wall_s) = run_cell(&cfg, faults_name);
                let shed_rate = if out.slo.submitted == 0 {
                    0.0
                } else {
                    out.slo.shed as f64 / out.slo.submitted as f64
                };
                eprintln!(
                    "{}: availability {:.4}, shed {:.4}, p99 {} µs, {:.2}s wall",
                    cfg.name,
                    out.slo.availability,
                    shed_rate,
                    out.slo.total.p99 / 1000,
                    wall_s,
                );
                grid.push(row);
            }
        }
    }

    let simtest = Json::object([
        ("scale", scale_name.into()),
        ("headline", headline_row),
        ("grid", Json::Array(grid)),
    ]);

    // Merge, never overwrite: exp_serve owns the rest of the report.
    let path = yollo_bench::output_dir().join("BENCH_serve.json");
    let mut doc = match std::fs::read_to_string(&path) {
        Ok(s) => Json::parse(&s).expect("BENCH_serve.json parses"),
        Err(_) => Json::object([]),
    };
    match &mut doc {
        Json::Object(map) => map.insert("simtest".into(), simtest),
        _ => panic!("BENCH_serve.json top level is an object"),
    };
    std::fs::write(&path, doc.pretty()).expect("can write BENCH_serve.json");

    println!("# Deterministic simulation soak ({scale_name} scale)\n");
    println!(
        "headline: {} requests across 4 replicas under bursty chaos — \
         0 invariant violations, replay bit-identical (fingerprint {:016x})",
        a.requests, a.events_fingerprint
    );
    println!("grid: 12 cells (1/2/4 replicas x steady/bursty x none/chaos), all clean");
    println!("\nwrote simtest section to {}", path.display());
}
