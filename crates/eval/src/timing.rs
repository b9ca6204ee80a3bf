use std::time::Instant;

/// Wall-clock statistics of repeated inference runs (Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Mean seconds per run.
    pub mean_s: f64,
    /// Median seconds per run.
    pub p50_s: f64,
    /// 95th-percentile seconds per run (nearest rank).
    pub p95_s: f64,
    /// 99th-percentile seconds per run (nearest rank).
    pub p99_s: f64,
    /// Fastest run.
    pub min_s: f64,
    /// Number of measured runs.
    pub reps: usize,
}

impl TimingStats {
    /// Ratio of another (slower) operation's mean time to this one's —
    /// the paper's "20× ∼ 30× faster" statements.
    ///
    /// # Panics
    /// Panics if this mean is zero.
    pub fn speedup_over(&self, slower: &TimingStats) -> f64 {
        assert!(self.mean_s > 0.0, "zero mean time");
        slower.mean_s / self.mean_s
    }
}

/// Times `f` after `warmup` unmeasured calls, measuring `reps` calls.
///
/// # Panics
/// Panics if `reps == 0`.
pub fn time_inference(mut f: impl FnMut(), warmup: usize, reps: usize) -> TimingStats {
    assert!(reps > 0, "reps must be positive");
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        yollo_obs::histogram!("eval.inference_ns").record(dt.as_nanos() as u64);
        times.push(dt.as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    TimingStats {
        mean_s: times.iter().sum::<f64>() / reps as f64,
        p50_s: quantile(&times, 0.50),
        p95_s: quantile(&times, 0.95),
        p99_s: quantile(&times, 0.99),
        min_s: times[0],
        reps,
    }
}

/// The `q`-quantile of an ascending-sorted non-empty slice: its element
/// at [`yollo_obs::nearest_rank`].
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[yollo_obs::nearest_rank(q, sorted.len() as u64) as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_sleep_roughly() {
        let stats = time_inference(
            || std::thread::sleep(std::time::Duration::from_millis(2)),
            1,
            5,
        );
        assert!(stats.mean_s >= 0.002);
        assert!(stats.min_s <= stats.p50_s);
        assert!(stats.p50_s <= stats.p95_s);
        assert!(stats.p95_s <= stats.p99_s);
        assert_eq!(stats.reps, 5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let times: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&times, 0.50), 50.0);
        assert_eq!(quantile(&times, 0.95), 95.0);
        assert_eq!(quantile(&times, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn speedup_ratio() {
        let fast = TimingStats {
            mean_s: 0.01,
            p50_s: 0.01,
            p95_s: 0.01,
            p99_s: 0.01,
            min_s: 0.01,
            reps: 1,
        };
        let slow = TimingStats {
            mean_s: 0.25,
            p50_s: 0.25,
            p95_s: 0.25,
            p99_s: 0.25,
            min_s: 0.25,
            reps: 1,
        };
        assert!((fast.speedup_over(&slow) - 25.0).abs() < 1e-12);
    }
}
