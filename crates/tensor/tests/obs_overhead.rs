//! Guard: with telemetry switched off at runtime (`YOLLO_OBS=off`, or
//! `set_enabled(false)` as here), the instrumented [`Tensor::matmul`]
//! entry point must not be measurably slower than calling the underlying
//! blocked kernel directly — each probe is one relaxed atomic load.
//!
//! This is its own integration-test binary (own process): the switch is
//! process-wide, and both tests keep it off.

use std::time::Instant;
use yollo_tensor::{matmul_blocked, Tensor};

/// 64×256×64 = 2^20 MACs, below `PAR_MATMUL_MIN_FLOPS` (2^21), so both the
/// instrumented path and the reference stay on the serial kernel and the
/// comparison never races the thread pool.
const M: usize = 64;
const K: usize = 256;
const N: usize = 64;

fn inputs() -> (Tensor, Tensor) {
    let a = Tensor::from_fn(&[M, K], |i| (i % 17) as f64 * 0.25 - 2.0);
    let b = Tensor::from_fn(&[K, N], |i| (i % 13) as f64 * 0.5 - 3.0);
    (a, b)
}

/// Wall time of one call of `f` in nanoseconds.
fn time_once(f: &mut impl FnMut() -> Tensor) -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos() as u64
}

/// Best-of-`rounds` wall times of `f` and `g` in nanoseconds, timed in
/// alternating rounds (so both see the same machine drift) after `warmup`
/// calls of each.
fn best_of_alternating(
    rounds: usize,
    warmup: usize,
    mut f: impl FnMut() -> Tensor,
    mut g: impl FnMut() -> Tensor,
) -> (u64, u64) {
    for _ in 0..warmup {
        std::hint::black_box(f());
        std::hint::black_box(g());
    }
    let (mut best_f, mut best_g) = (u64::MAX, u64::MAX);
    for _ in 0..rounds {
        best_f = best_f.min(time_once(&mut f));
        best_g = best_g.min(time_once(&mut g));
    }
    (best_f, best_g)
}

#[test]
fn switched_off_probes_add_no_matmul_overhead() {
    yollo_obs::set_enabled(false);
    let (a, b) = inputs();

    let (instr, reference) = best_of_alternating(
        30,
        5,
        || a.matmul(&b),
        || {
            let mut out = vec![0.0; M * N];
            matmul_blocked(a.as_slice(), b.as_slice(), &mut out, M, K, N, 1);
            Tensor::from_vec(out, &[M, N])
        },
    );

    // identical math either way
    let via_api = a.matmul(&b);
    let mut direct = vec![0.0; M * N];
    matmul_blocked(a.as_slice(), b.as_slice(), &mut direct, M, K, N, 1);
    assert_eq!(via_api.as_slice(), &direct[..]);

    // <2% relative overhead, plus a 20µs absolute slack so scheduler noise
    // on a fast machine cannot flake the ratio
    let limit = reference + reference / 50 + 20_000;
    assert!(
        instr <= limit,
        "instrumented matmul too slow with obs switched off: \
         {instr}ns vs reference {reference}ns (limit {limit}ns)"
    );
}

#[test]
fn switched_off_obs_records_nothing() {
    yollo_obs::set_enabled(false);
    let (a, b) = inputs();
    let _ = a.matmul(&b);
    let snap = yollo_obs::registry().snapshot();
    assert!(snap.counters.iter().all(|(_, v)| *v == 0), "{snap:?}");
    assert!(snap.histograms.iter().all(|h| h.count == 0), "{snap:?}");
    assert!(yollo_obs::drain_spans().is_empty());
}
