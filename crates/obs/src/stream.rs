//! Streaming accumulators for deterministic simulation and reconciliation.
//!
//! The registry metrics in [`crate::metrics`] are *observability*: atomic,
//! globally registered, and silenced by the runtime switch.
//! The types here are *accounting*: plain single-owner state that records
//! unconditionally, so a simulation's results are bit-identical whether
//! telemetry is on or off — which is exactly what a determinism
//! fingerprint must be.
//!
//! - [`Fingerprint64`] — an incremental, order-sensitive 64-bit FNV-1a
//!   hash over a stream of words. Long runs keep the digest instead of the
//!   stream: two runs agree on every event iff they agree on the digest
//!   (up to hash collision), at 8 bytes of state.
//! - [`StreamHistogram`] — [`crate::Histogram`]'s bucket layout and
//!   quantile walk, ungated and non-atomic, with a u128 sum so a billion
//!   nanosecond-scale samples cannot overflow.

use crate::metrics::{bucket_of, bucket_quantile, HIST_BUCKETS};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental order-sensitive FNV-1a hash over `u64` words.
///
/// Feeding the same words in the same order always yields the same
/// digest; any insertion, omission, reordering or change yields a
/// different one (up to collision). Used as the rolling event-log
/// fingerprint in long router simulations, where retaining the full log
/// would not fit in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint64 {
    state: u64,
}

impl Default for Fingerprint64 {
    fn default() -> Self {
        Fingerprint64::new()
    }
}

impl Fingerprint64 {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fingerprint64 { state: FNV_OFFSET }
    }

    /// Absorbs one word (FNV-1a over its 8 little-endian bytes).
    #[inline]
    pub fn push(&mut self, word: u64) {
        let mut h = self.state;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Absorbs a slice of words, in order.
    #[inline]
    pub fn push_all(&mut self, words: &[u64]) {
        for &w in words {
            self.push(w);
        }
    }

    /// The current digest. More words can still be absorbed afterwards.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.state
    }
}

/// An ungated, non-atomic log2 histogram for streaming percentile
/// accounting: the bucket layout and quantile walk of
/// [`crate::Histogram`] (values exact to within a factor of two), but it
/// records unconditionally — simulation accounting must not change with
/// the telemetry switch — and sums into a `u128`.
#[derive(Debug, Clone)]
pub struct StreamHistogram {
    count: u64,
    sum: u128,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for StreamHistogram {
    fn default() -> Self {
        StreamHistogram::new()
    }
}

impl StreamHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        StreamHistogram {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the representative value
    /// of the bucket the nearest-rank quantile falls in — exact to within
    /// a factor of two. Returns 0 when empty. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(q, self.count, self.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_deterministic() {
        let mut a = Fingerprint64::new();
        let mut b = Fingerprint64::new();
        a.push_all(&[1, 2, 3]);
        b.push_all(&[1, 2, 3]);
        assert_eq!(a.digest(), b.digest());
        let mut c = Fingerprint64::new();
        c.push_all(&[2, 1, 3]);
        assert_ne!(a.digest(), c.digest(), "order must matter");
        let mut d = Fingerprint64::new();
        d.push_all(&[1, 2]);
        assert_ne!(a.digest(), d.digest(), "length must matter");
        assert_ne!(
            Fingerprint64::new().digest(),
            a.digest(),
            "empty differs from non-empty"
        );
    }

    #[test]
    fn stream_histogram_matches_gated_histogram_semantics() {
        crate::set_enabled(true);
        let mut s = StreamHistogram::new();
        let g = crate::Histogram::new();
        for v in [0u64, 1, 2, 100, 1023, 1024, 1_000_000, u64::MAX] {
            s.record(v);
            g.record(v);
        }
        assert_eq!(s.count(), g.count());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), g.quantile(q), "q={q}");
        }
    }

    #[test]
    fn stream_histogram_records_when_telemetry_is_off() {
        // The whole point: accounting is not observability.
        let mut s = StreamHistogram::new();
        s.record(42);
        assert_eq!(s.count(), 1);
        assert!(s.quantile(0.5) > 0);
    }
}
