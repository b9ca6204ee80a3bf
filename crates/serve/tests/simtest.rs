//! Soak properties of the deterministic simulation harness.
//!
//! The unit tests inside `src/simtest.rs` cover the harness mechanics;
//! these integration tests drive the *properties the harness exists to
//! deliver*: any seed — any load shape, any fault schedule — runs to
//! quiescence with zero invariant violations (liveness comes from finite
//! deadlines, so a clean exit without tripping the livelock guard *is*
//! the property), identical seeds replay bit-identically run after run,
//! and the long-lived components a soak leans on ([`LruCache`], the
//! streaming histograms) hold their bounds over a million operations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yollo_serve::{run_simtest, LoadShape, LruCache, SimRng, SimtestConfig};

/// A small scenario cell for property runs: every axis the matrix runner
/// varies (replicas, load shape, faults) is drawn from the case's seed.
fn prop_cell(seed: u64, replicas: usize, bursty: bool, chaos: bool) -> SimtestConfig {
    let load = if bursty {
        LoadShape::Bursty {
            period_ns: 2_000_000,
            burst_ns: 400_000,
            factor: 8,
        }
    } else {
        LoadShape::Steady
    };
    let mut cfg = SimtestConfig::cell("prop-cell", 1_500, replicas, seed, load, None);
    if chaos {
        cfg.faults = Some(cfg.chaos());
    }
    cfg
}

/// Liveness + safety over the whole seed space: the run terminates
/// (no livelock-guard panic), every request reaches exactly one
/// terminal outcome, and the online invariant checker stays clean.
#[test]
fn any_seed_runs_to_quiescence_with_zero_violations() {
    // Each case simulates a full 1.5k-request scenario; a couple dozen
    // cases keeps the suite fast while still sweeping the cell axes.
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim_seed: u64 = rng.gen();
        let replicas = rng.gen_range(1..5);
        let (bursty, chaos): (bool, bool) = (rng.gen(), rng.gen());
        let cfg = prop_cell(sim_seed, replicas, bursty, chaos);
        let out = run_simtest(&cfg);
        let case = format!("seed {seed} (simulator seed {sim_seed:#x})");
        assert!(
            out.violations.is_empty(),
            "{case}: violations: {:?}",
            out.violations
        );
        assert_eq!(out.stats.submitted, cfg.requests, "{case}");
        assert!(out.events_total > 0, "{case}: a run must produce events");
        assert!(out.virtual_ns > 0, "{case}: virtual time must advance");
    }
}

/// The determinism contract, stated at full strength: three runs of the
/// same seeded chaos cell agree on the rolling event fingerprint, the
/// event count, the SLO report, and the router counters — and a
/// neighbouring seed does not.
#[test]
fn identical_seeds_replay_bit_identically_across_three_runs() {
    let mut cfg = SimtestConfig::cell(
        "replay-chaos",
        5_000,
        3,
        0xD5EED,
        LoadShape::Bursty {
            period_ns: 3_000_000,
            burst_ns: 600_000,
            factor: 6,
        },
        None,
    );
    cfg.faults = Some(cfg.chaos());

    let a = run_simtest(&cfg);
    let b = run_simtest(&cfg);
    let c = run_simtest(&cfg);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    for (label, run) in [("second", &b), ("third", &c)] {
        assert_eq!(
            a.events_fingerprint, run.events_fingerprint,
            "{label} run diverged from the event fingerprint"
        );
        assert_eq!(a.events_total, run.events_total);
        assert_eq!(a.slo, run.slo, "{label} run's SLO report diverged");
        assert_eq!(a.stats, run.stats, "{label} run's counters diverged");
        assert_eq!(a.virtual_ns, run.virtual_ns);
    }

    let mut other = cfg.clone();
    other.seed ^= 1;
    let d = run_simtest(&other);
    assert_ne!(
        a.events_fingerprint, d.events_fingerprint,
        "a different seed must produce a different event stream"
    );
}

/// Soak: a cache under a million random hits/inserts never exceeds its
/// capacity, converges to exactly full, and keeps answering.
#[test]
fn lru_cache_occupancy_stays_bounded_over_a_million_operations() {
    const CAPACITY: usize = 256;
    const OPS: u64 = 1_000_000;
    let mut cache: LruCache<u64, u64> = LruCache::new(CAPACITY);
    let mut rng = SimRng::new(0xCAC4E);
    let mut hits = 0u64;
    let mut evictions = 0u64;
    for i in 0..OPS {
        // 4x more keys than slots: a steady eviction churn.
        let key = rng.below(4 * CAPACITY as u64);
        if let Some(&v) = cache.get(&key) {
            assert!(v <= i, "cached value from the future");
            hits += 1;
        } else if cache.insert(key, i).is_some() {
            evictions += 1;
        }
        assert!(
            cache.len() <= CAPACITY,
            "occupancy {} exceeded capacity at op {i}",
            cache.len()
        );
    }
    assert_eq!(cache.len(), CAPACITY, "churned cache must sit exactly full");
    assert!(hits > OPS / 10, "a 4:1 key:slot ratio must hit often");
    assert!(evictions > OPS / 10, "churn must actually evict");
}
