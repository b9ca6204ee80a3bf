//! The time abstraction that makes the batching state machine
//! deterministic under test.
//!
//! The scheduler never calls [`std::time::Instant::now`] or sleeps
//! directly: it reads a [`Clock`]. The threaded server plugs in
//! [`SystemClock`]; tests and the router's event loop plug in a
//! [`VirtualClock`] they advance by hand, so every deadline fires at an
//! exact, reproducible nanosecond with no real sleeping and no flaky
//! timing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_ns(&self) -> u64;
}

/// The real wall clock: nanoseconds since the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    base: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            base: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// A manually-advanced clock for deterministic tests: time moves only when
/// the test says so.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A clock at t = 0 ns.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute time.
    ///
    /// # Panics
    /// Panics if `ns` would move time backwards.
    pub fn set(&self, ns: u64) {
        let prev = self.now.swap(ns, Ordering::SeqCst);
        assert!(prev <= ns, "virtual clock moved backwards: {prev} -> {ns}");
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_moves_only_on_demand() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(250);
        assert_eq!(c.now_ns(), 250);
        c.set(1_000);
        assert_eq!(c.now_ns(), 1_000);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn virtual_clock_rejects_time_travel() {
        let c = VirtualClock::new();
        c.set(10);
        c.set(5);
    }

    #[test]
    fn system_clock_is_monotonic_nonzero() {
        let c = SystemClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
