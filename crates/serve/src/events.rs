//! Bounded retention for the [`RouterEvent`] log.
//!
//! The event log is the router's determinism fingerprint, but a
//! million-request soak produces several million events — retaining them
//! all would dominate the run's memory. [`EventLog`] therefore keeps
//! three things instead of an unbounded `Vec`:
//!
//! 1. a **rolling fingerprint** ([`yollo_obs::Fingerprint64`]) over every
//!    event ever pushed — two runs agree on their whole event streams iff
//!    they agree on the digest;
//! 2. the **total count** of events pushed;
//! 3. a **bounded tail** of the most recent events, for debugging and for
//!    small runs (where the tail *is* the complete log —
//!    [`EventLog::is_complete`] says so, and every existing
//!    reconciliation/fingerprint test keeps working on it).

use std::collections::VecDeque;

use yollo_obs::Fingerprint64;

use crate::router::{RouterEvent, RouterEventKind};

/// Default bounded tail: large enough that every pre-existing test and
/// bench scenario (hundreds of requests, thousands of events) retains its
/// complete log, small enough that a multi-million-event soak stays at a
/// few megabytes.
pub const DEFAULT_EVENT_TAIL: usize = 65_536;

/// The router's event log: rolling fingerprint + total + bounded tail.
#[derive(Debug)]
pub struct EventLog {
    /// How many of the most recent events stay in memory (0 keeps none).
    tail: usize,
    fingerprint: Fingerprint64,
    total: u64,
    buf: VecDeque<RouterEvent>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(DEFAULT_EVENT_TAIL)
    }
}

impl EventLog {
    /// An empty log keeping the `tail` most recent events.
    pub fn new(tail: usize) -> Self {
        EventLog {
            tail,
            fingerprint: Fingerprint64::new(),
            total: 0,
            buf: VecDeque::new(),
        }
    }

    /// Appends one event: absorbs it into the fingerprint, bumps the
    /// total, and retains it in the tail (evicting the oldest retained
    /// event when the tail is full).
    pub fn push(&mut self, ev: RouterEvent) {
        self.fingerprint.push_all(&event_words(&ev));
        self.total += 1;
        if self.tail == 0 {
            return;
        }
        if self.buf.len() == self.tail {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    /// The rolling digest over *every* event ever pushed.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.digest()
    }

    /// Total events pushed (retained or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events currently retained.
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// True when every pushed event is still retained — i.e. the tail is
    /// the complete log and per-event reconciliation is sound.
    pub fn is_complete(&self) -> bool {
        self.buf.len() as u64 == self.total
    }

    /// Changes the tail length in place. Shrinking it drops the oldest
    /// retained events; the fingerprint and total are unaffected (they
    /// always cover the whole stream).
    pub fn set_tail(&mut self, tail: usize) {
        self.tail = tail;
        while self.buf.len() > tail {
            self.buf.pop_front();
        }
    }

    /// The retained events, oldest first.
    pub fn to_vec(&self) -> Vec<RouterEvent> {
        self.buf.iter().copied().collect()
    }
}

/// Canonical word encoding of one event for fingerprinting: time, seq,
/// kind tag and the kind's payload. Every field participates, so any
/// divergence in timing, routing or outcome changes the digest.
fn event_words(ev: &RouterEvent) -> [u64; 5] {
    let (tag, a, b) = match ev.kind {
        RouterEventKind::Routed { replica, attempt } => (0u64, replica as u64, attempt as u64),
        RouterEventKind::Hedged { replica } => (1, replica as u64, 0),
        RouterEventKind::Delivered { replica, ok } => (2, replica as u64, ok as u64),
        RouterEventKind::DeadlineExceeded => (3, 0, 0),
        RouterEventKind::Shed => (4, 0, 0),
        RouterEventKind::DegradedHit => (5, 0, 0),
        RouterEventKind::Unavailable => (6, 0, 0),
        RouterEventKind::CircuitOpened { replica } => (7, replica as u64, 0),
        RouterEventKind::CircuitClosed { replica } => (8, replica as u64, 0),
        RouterEventKind::ProbeFailed { replica } => (9, replica as u64, 0),
    };
    [ev.at_ns, ev.seq, tag, a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, seq: u64, kind: RouterEventKind) -> RouterEvent {
        RouterEvent { at_ns, seq, kind }
    }

    #[test]
    fn bounded_tail_keeps_fingerprint_over_the_whole_stream() {
        let mut bounded = EventLog::new(4);
        let mut full = EventLog::new(100);
        for i in 0..100u64 {
            let e = ev(i * 10, i, RouterEventKind::Shed);
            bounded.push(e);
            full.push(e);
        }
        assert_eq!(bounded.total(), 100);
        assert_eq!(bounded.retained(), 4);
        assert!(!bounded.is_complete());
        assert!(full.is_complete());
        assert_eq!(
            bounded.fingerprint(),
            full.fingerprint(),
            "fingerprint must cover evicted events"
        );
        let tail = bounded.to_vec();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 96, "tail keeps the most recent events");
        assert_eq!(tail[3].seq, 99);
    }

    #[test]
    fn small_runs_stay_complete_under_the_default_tail() {
        let mut log = EventLog::default();
        for i in 0..1000u64 {
            log.push(ev(
                i,
                i,
                RouterEventKind::Delivered {
                    replica: 0,
                    ok: true,
                },
            ));
        }
        assert!(log.is_complete());
        assert_eq!(log.to_vec().len(), 1000);
    }

    #[test]
    fn every_event_field_feeds_the_fingerprint() {
        let base = ev(
            5,
            7,
            RouterEventKind::Routed {
                replica: 1,
                attempt: 2,
            },
        );
        let variants = [
            ev(
                6,
                7,
                RouterEventKind::Routed {
                    replica: 1,
                    attempt: 2,
                },
            ),
            ev(
                5,
                8,
                RouterEventKind::Routed {
                    replica: 1,
                    attempt: 2,
                },
            ),
            ev(
                5,
                7,
                RouterEventKind::Routed {
                    replica: 2,
                    attempt: 2,
                },
            ),
            ev(
                5,
                7,
                RouterEventKind::Routed {
                    replica: 1,
                    attempt: 3,
                },
            ),
            ev(5, 7, RouterEventKind::Hedged { replica: 1 }),
        ];
        let digest = |e: RouterEvent| {
            let mut log = EventLog::default();
            log.push(e);
            log.fingerprint()
        };
        let d0 = digest(base);
        for v in variants {
            assert_ne!(d0, digest(v), "{v:?} must hash differently from {base:?}");
        }
    }

    #[test]
    fn shrinking_retention_trims_but_keeps_totals() {
        let mut log = EventLog::default();
        for i in 0..10u64 {
            log.push(ev(i, i, RouterEventKind::Unavailable));
        }
        assert!(log.is_complete());
        let fp = log.fingerprint();
        log.set_tail(3);
        assert_eq!(log.retained(), 3);
        assert_eq!(log.total(), 10);
        assert_eq!(log.fingerprint(), fp);
        assert_eq!(log.to_vec()[0].seq, 7);
    }
}
