//! Per-request flight records and SLO accounting for the router tier.
//!
//! A [`FlightRecord`] is the router's own account of one request: where it
//! was routed, how many attempts it took, which batch served it, and how
//! its latency splits into queue wait vs model service. The records are
//! *reconcilable* against the [`RouterEvent`] fingerprint
//! ([`reconcile_flights`]) — the two are produced by different code paths,
//! so agreement is evidence neither is lying — and aggregate into an
//! [`SloReport`] (availability, deadline-miss rate, hedge economics,
//! retry amplification, latency percentiles split into queue vs service).
//!
//! [`validate_request_chains`] checks the *trace* side of the same story:
//! every request trace must form a causally complete span tree from
//! admission to terminal outcome.

use std::collections::BTreeMap;

use yollo_obs::{nearest_rank, SpanEvent, StreamHistogram};

use crate::router::{Priority, RouterEvent, RouterEventKind, NO_REQUEST};

/// How a request's flight ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// Delivered a prediction.
    Ok,
    /// Delivered a terminal error (not a deadline expiry).
    Error,
    /// The end-to-end deadline passed first.
    DeadlineExceeded,
    /// Shed at admission (class capacity).
    Shed,
    /// Answered from a replica cache in degraded mode.
    DegradedHit,
    /// Every replica down and nothing cached.
    Unavailable,
}

impl FlightOutcome {
    /// Stable numeric code, used as the `outcome` span arg.
    pub fn code(self) -> u64 {
        match self {
            FlightOutcome::Ok => 0,
            FlightOutcome::Error => 1,
            FlightOutcome::DeadlineExceeded => 2,
            FlightOutcome::Shed => 3,
            FlightOutcome::DegradedHit => 4,
            FlightOutcome::Unavailable => 5,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FlightOutcome::Ok => "ok",
            FlightOutcome::Error => "error",
            FlightOutcome::DeadlineExceeded => "deadline_exceeded",
            FlightOutcome::Shed => "shed",
            FlightOutcome::DegradedHit => "degraded_hit",
            FlightOutcome::Unavailable => "unavailable",
        }
    }
}

/// The router's account of one request, assembled as the request moves
/// through admission → attempts → batch → terminal response. All times
/// are on the router's clock (deterministic under a virtual clock).
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Router request sequence number (matches [`RouterEvent::seq`]).
    pub seq: u64,
    /// Trace id of the request's span tree (0 when tracing is off).
    pub trace: u64,
    /// Priority class.
    pub class: Priority,
    /// Whether the request entered the pending table (vs being answered
    /// or rejected at admission).
    pub accepted: bool,
    /// The first replica an attempt was dispatched to.
    pub first_replica: Option<usize>,
    /// The replica whose answer was delivered.
    pub served_by: Option<usize>,
    /// Dispatch attempts made (excluding hedges).
    pub attempts: usize,
    /// Whether a hedged duplicate was dispatched.
    pub hedged: bool,
    /// Whether the hedge's answer won.
    pub hedge_won: bool,
    /// Replica-local id of the batch that served the request (0 = none).
    pub batch_id: u64,
    /// Admission time.
    pub admitted_ns: u64,
    /// Admission → terminal response.
    pub total_ns: u64,
    /// Time the winning attempt spent queued in the replica's batcher.
    pub queue_ns: u64,
    /// Model service time of the batch that served the request (under a
    /// virtual clock this is the [`crate::ServiceModel`] cost).
    pub service_ns: u64,
    /// How the flight ended.
    pub outcome: FlightOutcome,
}

/// Exact nearest-rank percentiles of one latency component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (all zeros when empty; see
    /// [`yollo_obs::nearest_rank`]).
    pub fn of(samples: &mut [u64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        let n = samples.len() as u64;
        let rank = |q: f64| samples[nearest_rank(q, n) as usize - 1];
        Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }
}

/// Service-level accounting aggregated from [`FlightRecord`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Flights recorded (valid submissions, accepted or not).
    pub submitted: u64,
    /// Flights that entered the pending table.
    pub accepted: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Answered [`crate::ServeError::Unavailable`].
    pub unavailable: u64,
    /// Answered from a cache in degraded mode.
    pub degraded_hits: u64,
    /// Terminal `Ok` deliveries.
    pub delivered_ok: u64,
    /// Terminal error deliveries (excluding deadline expiries).
    pub delivered_err: u64,
    /// Terminal deadline expiries.
    pub deadline_exceeded: u64,
    /// `(ok + degraded) / (accepted + degraded)` — the fraction of
    /// non-shed load that got an answer (same formula as
    /// [`crate::RouterStats::availability`]).
    pub availability: f64,
    /// `deadline_exceeded / accepted`.
    pub deadline_miss_rate: f64,
    /// Flights that dispatched a hedged duplicate.
    pub hedges: u64,
    /// Flights whose hedge answered first.
    pub hedge_wins: u64,
    /// `hedge_wins / hedges` (0 when no hedges).
    pub hedge_win_rate: f64,
    /// Dispatch attempts summed over accepted flights.
    pub total_attempts: u64,
    /// `total_attempts / accepted` — 1.0 means no retries at all.
    pub retry_amplification: f64,
    /// End-to-end latency percentiles of answered flights.
    pub total: Percentiles,
    /// Queue-wait percentiles of `Ok` flights (admission → batch flush).
    pub queue: Percentiles,
    /// Service-time percentiles of `Ok` flights (batch flush → answer).
    pub service: Percentiles,
}

impl SloReport {
    /// Aggregates `flights` into a report: the [`SloAccumulator`]'s
    /// counters and rates, with exact nearest-rank percentiles.
    pub fn from_flights(flights: &[FlightRecord]) -> SloReport {
        let mut acc = SloAccumulator::new();
        let (mut total, mut queue, mut service) = (Vec::new(), Vec::new(), Vec::new());
        for f in flights {
            acc.push(f);
            match f.outcome {
                FlightOutcome::Ok => {
                    total.push(f.total_ns);
                    queue.push(f.queue_ns);
                    service.push(f.service_ns);
                }
                FlightOutcome::Error | FlightOutcome::DeadlineExceeded => total.push(f.total_ns),
                _ => {}
            }
        }
        SloReport {
            total: Percentiles::of(&mut total),
            queue: Percentiles::of(&mut queue),
            service: Percentiles::of(&mut service),
            ..acc.report()
        }
    }
}

/// Streaming form of [`SloReport::from_flights`]: fixed-size state
/// (counters plus three [`StreamHistogram`]s), so a
/// million-request soak can compute its SLO report without ever holding
/// the flight history. The only difference from the batch form is
/// percentile resolution: histogram percentiles are bucket-mid values
/// (exact to within a factor of two) instead of exact nearest-rank
/// samples. Counters, rates and availability are identical.
#[derive(Debug, Clone, Default)]
pub struct SloAccumulator {
    submitted: u64,
    accepted: u64,
    shed: u64,
    unavailable: u64,
    degraded_hits: u64,
    delivered_ok: u64,
    delivered_err: u64,
    deadline_exceeded: u64,
    hedges: u64,
    hedge_wins: u64,
    total_attempts: u64,
    total: StreamHistogram,
    queue: StreamHistogram,
    service: StreamHistogram,
}

impl SloAccumulator {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        SloAccumulator::default()
    }

    /// Absorbs one flight record (same classification as
    /// [`SloReport::from_flights`]).
    pub fn push(&mut self, f: &FlightRecord) {
        self.submitted += 1;
        if f.accepted {
            self.accepted += 1;
            self.total_attempts += f.attempts as u64;
        }
        if f.hedged {
            self.hedges += 1;
        }
        if f.hedge_won {
            self.hedge_wins += 1;
        }
        match f.outcome {
            FlightOutcome::Ok => {
                self.delivered_ok += 1;
                self.total.record(f.total_ns);
                self.queue.record(f.queue_ns);
                self.service.record(f.service_ns);
            }
            FlightOutcome::Error => {
                self.delivered_err += 1;
                self.total.record(f.total_ns);
            }
            FlightOutcome::DeadlineExceeded => {
                self.deadline_exceeded += 1;
                self.total.record(f.total_ns);
            }
            FlightOutcome::Shed => self.shed += 1,
            FlightOutcome::DegradedHit => self.degraded_hits += 1,
            FlightOutcome::Unavailable => self.unavailable += 1,
        }
    }

    /// Flights absorbed so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// The report so far. Can be called mid-stream; more flights can be
    /// absorbed afterwards.
    pub fn report(&self) -> SloReport {
        let pct = |h: &StreamHistogram| Percentiles {
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        };
        let answered = self.delivered_ok + self.degraded_hits;
        let offered = self.accepted + self.degraded_hits;
        SloReport {
            submitted: self.submitted,
            accepted: self.accepted,
            shed: self.shed,
            unavailable: self.unavailable,
            degraded_hits: self.degraded_hits,
            delivered_ok: self.delivered_ok,
            delivered_err: self.delivered_err,
            deadline_exceeded: self.deadline_exceeded,
            availability: answered as f64 / offered.max(1) as f64,
            deadline_miss_rate: self.deadline_exceeded as f64 / self.accepted.max(1) as f64,
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            hedge_win_rate: self.hedge_wins as f64 / self.hedges.max(1) as f64,
            total_attempts: self.total_attempts,
            retry_amplification: self.total_attempts as f64 / self.accepted.max(1) as f64,
            total: pct(&self.total),
            queue: pct(&self.queue),
            service: pct(&self.service),
        }
    }
}

/// Checks every flight record against the [`RouterEvent`] log: attempt
/// counts must match `Routed` events, hedging must match `Hedged` events,
/// and each flight's outcome must match its single terminal event.
///
/// # Errors
/// A human-readable description of the first disagreement.
pub fn reconcile_flights(flights: &[FlightRecord], events: &[RouterEvent]) -> Result<(), String> {
    #[derive(Default)]
    struct PerSeq {
        routed: usize,
        hedged: usize,
        terminals: Vec<&'static str>,
    }
    let mut by_seq: BTreeMap<u64, PerSeq> = BTreeMap::new();
    for ev in events {
        if ev.seq == NO_REQUEST {
            continue;
        }
        let slot = by_seq.entry(ev.seq).or_default();
        match ev.kind {
            RouterEventKind::Routed { .. } => slot.routed += 1,
            RouterEventKind::Hedged { .. } => slot.hedged += 1,
            RouterEventKind::Delivered { ok, .. } => {
                slot.terminals.push(if ok { "ok" } else { "error" })
            }
            RouterEventKind::DeadlineExceeded => slot.terminals.push("deadline_exceeded"),
            RouterEventKind::Shed => slot.terminals.push("shed"),
            RouterEventKind::DegradedHit => slot.terminals.push("degraded_hit"),
            RouterEventKind::Unavailable => slot.terminals.push("unavailable"),
            RouterEventKind::CircuitOpened { .. }
            | RouterEventKind::CircuitClosed { .. }
            | RouterEventKind::ProbeFailed { .. } => {}
        }
    }
    let mut seen = 0usize;
    for f in flights {
        let Some(slot) = by_seq.get(&f.seq) else {
            return Err(format!("flight seq {} has no events", f.seq));
        };
        seen += 1;
        if slot.terminals.len() != 1 {
            return Err(format!(
                "flight seq {} has {} terminal events: {:?}",
                f.seq,
                slot.terminals.len(),
                slot.terminals
            ));
        }
        if slot.terminals[0] != f.outcome.name() {
            return Err(format!(
                "flight seq {}: outcome {} but terminal event {}",
                f.seq,
                f.outcome.name(),
                slot.terminals[0]
            ));
        }
        if slot.routed != f.attempts {
            return Err(format!(
                "flight seq {}: {} attempts but {} Routed events",
                f.seq, f.attempts, slot.routed
            ));
        }
        if (slot.hedged > 0) != f.hedged {
            return Err(format!(
                "flight seq {}: hedged={} but {} Hedged events",
                f.seq, f.hedged, slot.hedged
            ));
        }
    }
    if seen != by_seq.len() {
        return Err(format!(
            "{} request seqs in the event log but {} flight records",
            by_seq.len(),
            seen
        ));
    }
    Ok(())
}

/// Summary of one validated pass over a span dump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainSummary {
    /// Traces rooted at `router.request`.
    pub router_requests: usize,
    /// Traces rooted at `serve.request` (direct submits).
    pub direct_requests: usize,
    /// Total spans across those traces.
    pub spans: usize,
}

/// Validates that every request trace in `spans` is causally complete:
/// each trace has exactly one root (`router.request` or `serve.request`),
/// every other span's parent resolves inside the same trace, a
/// `router.request` root carries an `outcome` arg and an `attempts` arg
/// that matches the number of `router.attempt` spans, and an `Ok` outcome
/// served by a batch has `serve.queued` / `serve.exec` spans under it.
///
/// # Errors
/// A human-readable description of the first broken chain.
pub fn validate_request_chains(spans: &[SpanEvent]) -> Result<ChainSummary, String> {
    let arg = |e: &SpanEvent, key: &str| -> Option<u64> {
        e.args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    };
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for e in spans {
        if e.trace != 0 {
            by_trace.entry(e.trace).or_default().push(e);
        }
    }
    let mut summary = ChainSummary::default();
    for (trace, evs) in &by_trace {
        let roots: Vec<&&SpanEvent> = evs.iter().filter(|e| e.id == *trace).collect();
        let Some(root) = roots.first() else {
            // A trace without its root (e.g. a bare `serve.batch` span or
            // spans lost to ring overflow) is not a request chain; only
            // request roots are validated.
            continue;
        };
        if roots.len() != 1 {
            return Err(format!("trace {trace} has {} roots", roots.len()));
        }
        let is_request = root.name == "router.request" || root.name == "serve.request";
        if !is_request {
            continue;
        }
        // Causal completeness: every non-root parent resolves in-trace.
        let ids: std::collections::BTreeSet<u64> = evs.iter().map(|e| e.id).collect();
        for e in evs {
            if e.id != *trace && !ids.contains(&e.parent) {
                return Err(format!(
                    "trace {trace}: span {} ({}) has dangling parent {}",
                    e.id, e.name, e.parent
                ));
            }
        }
        summary.spans += evs.len();
        if root.name == "serve.request" {
            summary.direct_requests += 1;
            continue;
        }
        summary.router_requests += 1;
        let attempts = evs.iter().filter(|e| e.name == "router.attempt").count() as u64;
        let declared = arg(root, "attempts").unwrap_or(0);
        if attempts != declared {
            return Err(format!(
                "trace {trace}: root declares {declared} attempts, {attempts} attempt spans"
            ));
        }
        let Some(outcome) = arg(root, "outcome") else {
            return Err(format!("trace {trace}: router.request root has no outcome"));
        };
        let batch = arg(root, "batch").unwrap_or(0);
        if outcome == FlightOutcome::Ok.code() && batch != 0 {
            let queued = evs.iter().any(|e| e.name == "serve.queued");
            let exec = evs.iter().any(|e| e.name == "serve.exec");
            if !queued || !exec {
                return Err(format!(
                    "trace {trace}: ok outcome via batch {batch} but queued/exec spans missing"
                ));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(seq: u64, outcome: FlightOutcome, attempts: usize, accepted: bool) -> FlightRecord {
        FlightRecord {
            seq,
            trace: 0,
            class: Priority::Standard,
            accepted,
            first_replica: Some(0),
            served_by: Some(0),
            attempts,
            hedged: false,
            hedge_won: false,
            batch_id: 1,
            admitted_ns: 0,
            total_ns: 100,
            queue_ns: 60,
            service_ns: 40,
            outcome,
        }
    }

    fn ev(seq: u64, kind: RouterEventKind) -> RouterEvent {
        RouterEvent {
            at_ns: 0,
            seq,
            kind,
        }
    }

    #[test]
    fn reconcile_accepts_a_consistent_log() {
        let flights = vec![
            flight(0, FlightOutcome::Ok, 1, true),
            flight(1, FlightOutcome::Shed, 0, false),
        ];
        let events = vec![
            ev(
                0,
                RouterEventKind::Routed {
                    replica: 0,
                    attempt: 1,
                },
            ),
            ev(
                0,
                RouterEventKind::Delivered {
                    replica: 0,
                    ok: true,
                },
            ),
            ev(1, RouterEventKind::Shed),
        ];
        reconcile_flights(&flights, &events).expect("consistent");
    }

    #[test]
    fn reconcile_rejects_attempt_miscounts_and_wrong_outcomes() {
        let flights = vec![flight(0, FlightOutcome::Ok, 2, true)];
        let events = vec![
            ev(
                0,
                RouterEventKind::Routed {
                    replica: 0,
                    attempt: 1,
                },
            ),
            ev(
                0,
                RouterEventKind::Delivered {
                    replica: 0,
                    ok: true,
                },
            ),
        ];
        let err = reconcile_flights(&flights, &events).unwrap_err();
        assert!(err.contains("2 attempts"), "{err}");

        let flights = vec![flight(0, FlightOutcome::Error, 1, true)];
        let err = reconcile_flights(&flights, &events).unwrap_err();
        assert!(err.contains("terminal event"), "{err}");
    }

    #[test]
    fn slo_report_aggregates() {
        let mut flights = vec![
            flight(0, FlightOutcome::Ok, 1, true),
            flight(1, FlightOutcome::Ok, 2, true),
            flight(2, FlightOutcome::DeadlineExceeded, 1, true),
            flight(3, FlightOutcome::Shed, 0, false),
        ];
        flights[1].total_ns = 300;
        let r = SloReport::from_flights(&flights);
        assert_eq!(r.submitted, 4);
        assert_eq!(r.accepted, 3);
        assert_eq!(r.shed, 1);
        assert_eq!(r.delivered_ok, 2);
        assert_eq!(r.deadline_exceeded, 1);
        assert!((r.availability - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.deadline_miss_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.retry_amplification - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.total.p50, 100);
        assert_eq!(r.total.p99, 300);
        assert_eq!(r.queue.p50, 60);
        assert_eq!(r.service.p50, 40);
    }

    #[test]
    fn slo_accumulator_matches_batch_counters() {
        let mut flights = vec![
            flight(0, FlightOutcome::Ok, 1, true),
            flight(1, FlightOutcome::Ok, 2, true),
            flight(2, FlightOutcome::DeadlineExceeded, 1, true),
            flight(3, FlightOutcome::Shed, 0, false),
            flight(4, FlightOutcome::DegradedHit, 0, false),
            flight(5, FlightOutcome::Unavailable, 0, false),
            flight(6, FlightOutcome::Error, 3, true),
        ];
        flights[1].hedged = true;
        flights[1].hedge_won = true;
        let batch = SloReport::from_flights(&flights);
        let mut acc = SloAccumulator::new();
        for f in &flights {
            acc.push(f);
        }
        let streamed = acc.report();
        assert_eq!(acc.submitted(), 7);
        // Everything except percentile resolution must agree exactly.
        assert_eq!(streamed.submitted, batch.submitted);
        assert_eq!(streamed.accepted, batch.accepted);
        assert_eq!(streamed.shed, batch.shed);
        assert_eq!(streamed.unavailable, batch.unavailable);
        assert_eq!(streamed.degraded_hits, batch.degraded_hits);
        assert_eq!(streamed.delivered_ok, batch.delivered_ok);
        assert_eq!(streamed.delivered_err, batch.delivered_err);
        assert_eq!(streamed.deadline_exceeded, batch.deadline_exceeded);
        assert_eq!(streamed.hedges, batch.hedges);
        assert_eq!(streamed.hedge_wins, batch.hedge_wins);
        assert_eq!(streamed.total_attempts, batch.total_attempts);
        assert_eq!(streamed.availability, batch.availability);
        assert_eq!(streamed.deadline_miss_rate, batch.deadline_miss_rate);
        assert_eq!(streamed.hedge_win_rate, batch.hedge_win_rate);
        assert_eq!(streamed.retry_amplification, batch.retry_amplification);
        // Histogram percentiles land within a factor of two of exact.
        for (got, exact) in [
            (streamed.total.p50, batch.total.p50),
            (streamed.queue.p50, batch.queue.p50),
            (streamed.service.p50, batch.service.p50),
        ] {
            assert!(
                got >= exact / 2 && got <= exact * 2,
                "streamed {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = vec![10, 20, 30, 40];
        let p = Percentiles::of(&mut s);
        // ceil(0.5*4)=2 → 20; ceil(0.95*4)=4 → 40; ceil(0.99*4)=4 → 40
        assert_eq!(
            p,
            Percentiles {
                p50: 20,
                p95: 40,
                p99: 40
            }
        );
        assert_eq!(Percentiles::of(&mut Vec::new()), Percentiles::default());
    }
}
