//! Histogram quantile correctness: ordering properties over arbitrary
//! samples, and exact nearest-rank answers on hand-computed samples at
//! log2-bucket boundaries.
//!
//! The contract under test (see `Histogram::quantile`): the `q`-quantile
//! is the representative value (geometric bucket middle) of the bucket
//! containing the nearest-rank element — rank `max(1, ceil(q * count))`
//! of the sorted sample.
//!
//! The ordering properties are seeded loops over a splitmix64 stream (this
//! crate has no dependencies); every assertion names the case's seed.

use yollo_obs::Histogram;

/// Splitmix64: the next value of the deterministic stream at `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 1 to 199 values, each `value` applied to a fresh stream draw.
fn random_sample(state: &mut u64, value: impl Fn(u64) -> u64) -> Vec<u64> {
    let len = 1 + splitmix64(state) % 199;
    (0..len).map(|_| value(splitmix64(state))).collect()
}

/// A quantile level in `[0, 1]`, both ends included.
fn random_q(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / ((1u64 << 53) - 1) as f64
}

/// The value `quantile(q)` must return when the nearest-rank element is
/// `v`, stated from the value: the geometric middle `2^i + 2^(i-1)` of
/// the power-of-two range `[2^i, 2^(i+1))` holding `v`, with 0 and 1
/// answered by 1 and the top range capped at 2^63 to stay in `u64`.
fn expected_mid(v: u64) -> u64 {
    match v {
        0 | 1 => 1,
        _ if v >= 1 << 63 => 1 << 63,
        _ => {
            let low = 1u64 << v.ilog2();
            low + low / 2
        }
    }
}

/// The exact value `quantile(q)` must return for `sample`: the bucket
/// middle of the nearest-rank element.
fn expected_quantile(sample: &[u64], q: f64) -> u64 {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
    expected_mid(sorted[target - 1])
}

fn hist_of(sample: &[u64]) -> Histogram {
    yollo_obs::set_enabled(true);
    let h = Histogram::new();
    for &v in sample {
        h.record(v);
    }
    h
}

/// p50 ≤ p95 ≤ p99 ≤ max for any sample — quantiles are monotone in q.
#[test]
fn quantiles_are_monotone() {
    for seed in 0..256 {
        let mut state = seed;
        let sample = random_sample(&mut state, |r| r);
        let h = hist_of(&sample);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        let p100 = h.quantile(1.0);
        assert!(p50 <= p95, "seed {seed}: p50={p50} > p95={p95}");
        assert!(p95 <= p99, "seed {seed}: p95={p95} > p99={p99}");
        assert!(p99 <= p100, "seed {seed}: p99={p99} > p100={p100}");
    }
}

/// Every quantile equals the bucket middle of the nearest-rank
/// element — the log2-bucket approximation is exactly characterised.
#[test]
fn quantiles_match_nearest_rank() {
    for seed in 0..256 {
        let mut state = seed;
        let sample = random_sample(&mut state, |r| r);
        let q = random_q(&mut state);
        let h = hist_of(&sample);
        assert_eq!(
            h.quantile(q),
            expected_quantile(&sample, q),
            "seed {seed}: q={q}"
        );
    }
}

/// The bucket middle is within a factor of two of the true
/// nearest-rank element (the histogram's accuracy guarantee).
#[test]
fn quantile_within_factor_two_of_true_value() {
    for seed in 0..256 {
        let mut state = seed;
        let sample = random_sample(&mut state, |r| 1 + r % (u64::MAX / 2 - 1));
        let q = random_q(&mut state);
        let h = hist_of(&sample);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let truth = sorted[target - 1];
        let got = h.quantile(q);
        assert!(
            got <= truth.saturating_mul(2),
            "seed {seed}: got={got} truth={truth}"
        );
        assert!(got >= truth / 2, "seed {seed}: got={got} truth={truth}");
    }
}

/// Soak: after a million heavy-tailed samples, both the atomic
/// [`Histogram`] and the ungated [`yollo_obs::StreamHistogram`] agree
/// bucket-for-bucket, keep exact counts and sums, and answer monotone
/// p50 ≤ p95 ≤ p99 ≤ p100.
#[test]
fn quantiles_stay_ordered_after_a_million_samples() {
    const SAMPLES: u64 = 1_000_000;
    yollo_obs::set_enabled(true);
    let atomic = Histogram::new();
    let mut stream = yollo_obs::StreamHistogram::new();
    // Splitmix64 with a shifted-exponent transform so the samples span
    // many log2 buckets (latency-like heavy tail).
    let mut state = 0x50A4u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut exact_sum = 0u128;
    for _ in 0..SAMPLES {
        let r = splitmix64(&mut state);
        // Value in [0, 2^(r % 40)) — exponent uniform, value uniform below.
        let v = (r >> 24) & ((1u64 << (r % 40)) - 1);
        atomic.record(v);
        stream.record(v);
        exact_sum += v as u128;
    }
    assert_eq!(atomic.count(), SAMPLES);
    assert_eq!(stream.count(), SAMPLES);
    assert_eq!(stream.sum(), exact_sum, "streaming sum must be exact");
    let (p50, p95, p99, p100) = (
        stream.quantile(0.50),
        stream.quantile(0.95),
        stream.quantile(0.99),
        stream.quantile(1.0),
    );
    assert!(p50 <= p95, "p50={p50} > p95={p95}");
    assert!(p95 <= p99, "p95={p95} > p99={p99}");
    assert!(p99 <= p100, "p99={p99} > p100={p100}");
    assert!(p50 > 0, "a heavy-tailed stream has a nonzero median");
    for q in [0.50, 0.95, 0.99, 1.0] {
        assert_eq!(
            stream.quantile(q),
            atomic.quantile(q),
            "atomic and streaming histograms diverged at q={q}"
        );
    }
}

#[test]
fn hand_computed_nearest_rank_at_bucket_boundaries() {
    // [1, 2, 3, 4] spans buckets 0 ({1}), 1 ({2, 3}) and 2 ({4}).
    let h = hist_of(&[1, 2, 3, 4]);
    // rank 1 → 1 → bucket 0 → mid 1
    assert_eq!(h.quantile(0.25), 1);
    // rank 2 → 2 → bucket 1 → mid 2 + 1 = 3
    assert_eq!(h.quantile(0.50), 3);
    // rank 3 → 3 → bucket 1 → mid 3
    assert_eq!(h.quantile(0.75), 3);
    // rank 4 → 4 → bucket 2 → mid 4 + 2 = 6
    assert_eq!(h.quantile(1.0), 6);
    // q = 0 still answers with the minimum's bucket (rank clamps to 1)
    assert_eq!(h.quantile(0.0), 1);

    // Adjacent values straddling the 2^10 boundary land in different
    // buckets: 1023 → bucket 9 (mid 768), 1024 → bucket 10 (mid 1536).
    let h = hist_of(&[1023, 1024]);
    assert_eq!(h.quantile(0.5), 768);
    assert_eq!(h.quantile(1.0), 1536);

    // 0 and 1 share bucket 0, whose representative is 1.
    let h = hist_of(&[0]);
    assert_eq!(h.quantile(0.5), 1);

    // The top bucket caps its representative inside u64.
    let h = hist_of(&[u64::MAX]);
    assert_eq!(h.quantile(1.0), u64::MAX / 2 + 1);

    // Empty histogram answers 0 for every quantile.
    let h = Histogram::new();
    assert_eq!(h.quantile(0.5), 0);
    assert_eq!(h.quantile(0.99), 0);
}
