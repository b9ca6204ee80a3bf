//! The router tier's shared types and its virtual-time driver.
//!
//! [`Router`] runs the router policy (`crate::policy`, which makes every
//! routing decision) over N [`ServerCore`] replicas on the caller's
//! [`Clock`], with no threads and no sleeps: it models replica occupancy
//! with a [`ServiceModel`], injects misbehavior from
//! [`yollo_core::ReplicaFaultPlan`]s (crash / hang / slow / flap) and runs
//! heartbeat probes. [`crate::RouterServer`] is the threaded driver.
//!
//! The whole chaos schedule replays bit-identically — the [`RouterEvent`]
//! log is the run's fingerprint. The log is held in an [`crate::EventLog`]: a
//! rolling fingerprint over every event plus a bounded tail (complete for
//! small runs, constant-memory for million-request soaks; see
//! [`Router::set_event_tail`]). [`RouterSim`] is the virtual-time event
//! loop that replays arrival scripts, and the [`crate::simtest`] harness
//! runs the same loop at soak scale.

use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

use yollo_core::{GroundingPrediction, ReplicaFaultPlan};
use yollo_synthref::Scene;
use yollo_tensor::Tensor;
use yollo_text::Vocab;

use crate::batcher::BatchBoundary;
use crate::clock::{Clock, VirtualClock};
use crate::error::ServeError;
use crate::events::EventLog;
use crate::health::{CircuitState, HealthConfig};
use crate::policy::{Action, Answer, Flight, FlightLog, InputCheck, Policy};
use crate::retry::RetryPolicy;
use crate::server::{Delivery, GroundingModel, Response, ServeConfig, ServeResult, ServerCore};
use crate::slo::{FlightRecord, SloReport};

/// Marks replica-level [`RouterEvent`]s that belong to no request.
pub const NO_REQUEST: u64 = u64::MAX;

/// Traffic priority classes, in descending importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Tail-latency-sensitive traffic; eligible for hedged dispatch.
    Interactive,
    /// The default class.
    Standard,
    /// Throughput traffic; first to be shed under overload.
    Bulk,
}

impl Priority {
    /// Dense index for per-class tables.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Bulk => 2,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Bulk => "bulk",
        }
    }
}

/// Virtual-time batch service cost, used by the deterministic scheduler to
/// model replica occupancy (a slow replica's queue backs up; a fast one
/// drains). All zeros (the default) makes batches instantaneous.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceModel {
    /// Fixed cost per batch.
    pub base_ns: u64,
    /// Marginal cost per batched request.
    pub per_item_ns: u64,
}

/// Tunables of the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Server replicas behind the router.
    pub replicas: usize,
    /// Ring points per replica (more = better balance).
    pub vnodes: usize,
    /// End-to-end per-request deadline from router admission (0 = none).
    pub deadline_ns: u64,
    /// Retry budget and back-off shape.
    pub retry: RetryPolicy,
    /// Hedge [`Priority::Interactive`] requests after this long without an
    /// answer (0 disables hedging).
    pub hedge_delay_ns: u64,
    /// Circuit-breaker tuning, applied to every replica.
    pub health: HealthConfig,
    /// Router-level inflight cap per priority class
    /// (`[interactive, standard, bulk]`); beyond it, that class is shed.
    pub class_capacity: [usize; 3],
    /// Seed for back-off jitter (deterministic per seed).
    pub seed: u64,
    /// Virtual-time service cost model for replica batches.
    pub service: ServiceModel,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            vnodes: 64,
            deadline_ns: 50_000_000, // 50 ms
            retry: RetryPolicy::default(),
            hedge_delay_ns: 0,
            health: HealthConfig::default(),
            class_capacity: [32, 64, 32],
            seed: 0x5EED,
            service: ServiceModel::default(),
        }
    }
}

/// What happened, when, to which request — the deterministic fingerprint
/// of a router run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterEvent {
    /// Clock reading of the event.
    pub at_ns: u64,
    /// Request sequence number, or [`NO_REQUEST`] for replica-level
    /// events.
    pub seq: u64,
    /// What happened.
    pub kind: RouterEventKind,
}

/// The event alphabet of [`RouterEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterEventKind {
    /// An attempt was dispatched to a replica.
    Routed {
        /// Target replica.
        replica: usize,
        /// 1-based attempt number.
        attempt: usize,
    },
    /// A hedged duplicate was dispatched.
    Hedged {
        /// Target replica.
        replica: usize,
    },
    /// A terminal answer was delivered to the client.
    Delivered {
        /// Replica that produced the answer (or last failed).
        replica: usize,
        /// Whether the answer was a prediction.
        ok: bool,
    },
    /// The request's deadline passed; the client got
    /// [`ServeError::DeadlineExceeded`].
    DeadlineExceeded,
    /// The request was shed at admission (class capacity).
    Shed,
    /// Answered from a replica cache while every circuit was open.
    DegradedHit,
    /// Every circuit open and no cached answer: [`ServeError::Unavailable`].
    Unavailable,
    /// A replica's circuit opened.
    CircuitOpened {
        /// The replica.
        replica: usize,
    },
    /// A replica's circuit closed again.
    CircuitClosed {
        /// The replica.
        replica: usize,
    },
    /// A heartbeat probe failed.
    ProbeFailed {
        /// The replica.
        replica: usize,
    },
}

/// Aggregate counters of one router's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests offered to [`Router::submit`] (valid or not).
    pub submitted: u64,
    /// Requests accepted into the pending table.
    pub accepted: u64,
    /// Requests shed at admission (class capacity).
    pub shed: u64,
    /// Requests answered from a cache in degraded mode.
    pub degraded_hits: u64,
    /// Requests shed because every replica was down and nothing cached.
    pub unavailable: u64,
    /// Terminal `Ok` deliveries.
    pub delivered_ok: u64,
    /// Terminal error deliveries (excluding deadline expiries).
    pub delivered_err: u64,
    /// Terminal deadline expiries.
    pub deadline_exceeded: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Hedged duplicates dispatched.
    pub hedges: u64,
    /// Requests whose hedge answered first.
    pub hedge_wins: u64,
    /// Failed attempts observed (including shed-at-replica).
    pub replica_failures: u64,
}

impl RouterStats {
    /// Fraction of non-shed load that got an `Ok` answer:
    /// `(ok + degraded hits) / (accepted + degraded hits)`.
    pub fn availability(&self) -> f64 {
        let answered = self.delivered_ok + self.degraded_hits;
        let offered = self.accepted + self.degraded_hits;
        answered as f64 / offered.max(1) as f64
    }
}

/// Wraps a replica's model with its [`ReplicaFaultPlan`]'s crash schedule:
/// the k-th request the replica processes panics the worker if the plan
/// says so. Hang / slow / flap faults are consumed by the router
/// scheduler, not here. The plan is shared (`Arc<Mutex>`) so tests can
/// inject faults after construction.
pub struct FaultedModel<M> {
    inner: M,
    plan: Arc<Mutex<ReplicaFaultPlan>>,
    processed: AtomicUsize,
}

impl<M> FaultedModel<M> {
    /// Wraps `inner` with a shared fault plan.
    pub fn new(inner: M, plan: Arc<Mutex<ReplicaFaultPlan>>) -> Self {
        FaultedModel {
            inner,
            plan,
            processed: AtomicUsize::new(0),
        }
    }
}

impl<M: GroundingModel> GroundingModel for FaultedModel<M> {
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction> {
        let start = self.processed.fetch_add(queries.len(), Ordering::SeqCst);
        // Consume the crash injection *before* panicking, with the lock
        // released, so a poisoned mutex never outlives the caught panic.
        let crash = {
            let mut plan = self.plan.lock().expect("fault plan poisoned");
            (start + 1..=start + queries.len()).find(|&k| plan.take_crash_request(k))
        };
        if let Some(k) = crash {
            panic!("injected replica crash at request {k}");
        }
        self.inner.predict_batch(images, queries)
    }
}

struct Replica<M: GroundingModel> {
    core: ServerCore<FaultedModel<M>>,
    plan: Arc<Mutex<ReplicaFaultPlan>>,
    busy_until_ns: u64,
    /// Virtual service cost charged per batch id, so a delivered request
    /// can attribute its service time even though the core's wall-clock
    /// measurement is ~0 under a virtual clock.
    batch_cost: HashMap<u64, u64>,
}

/// One request in flight: the policy's [`Flight`] plus its I/O — the
/// request itself, the caller's channel, and the outstanding attempts'
/// replica and response handle.
struct Pending {
    flight: Flight,
    scene: Scene,
    query: String,
    tx: Sender<Delivery>,
    primary: Option<(usize, Response)>,
    hedge: Option<(usize, Response)>,
}

/// A streaming [`RouterEvent`] callback — see [`Router::set_event_observer`].
pub type EventObserver = Box<dyn FnMut(&RouterEvent) + Send>;

/// The deterministic multi-replica router. See the module docs.
pub struct Router<M: GroundingModel> {
    input: InputCheck,
    policy: Policy,
    clock: Arc<dyn Clock>,
    replicas: Vec<Replica<M>>,
    pending: Vec<Pending>,
    next_probe_ns: u64,
}

impl<M: GroundingModel> Router<M> {
    /// A router over `cfg.replicas` fresh [`ServerCore`]s on `clock`;
    /// `factory(i)` builds replica `i`'s model. Every replica starts with
    /// an empty fault plan — inject faults with [`Router::set_fault_plan`].
    pub fn new(
        cfg: RouterConfig,
        serve_cfg: ServeConfig,
        vocab: Vocab,
        clock: Arc<dyn Clock>,
        mut factory: impl FnMut(usize) -> M,
    ) -> Self {
        let replicas = (0..cfg.replicas)
            .map(|i| {
                let plan = Arc::new(Mutex::new(ReplicaFaultPlan::new()));
                let model = FaultedModel::new(factory(i), Arc::clone(&plan));
                Replica {
                    core: ServerCore::with_clock(
                        model,
                        vocab.clone(),
                        serve_cfg.clone(),
                        Arc::clone(&clock),
                    ),
                    plan,
                    busy_until_ns: 0,
                    batch_cost: HashMap::new(),
                }
            })
            .collect();
        let next_probe_ns = cfg.health.probe_interval_ns.max(1);
        Router {
            input: InputCheck::new(&serve_cfg),
            policy: Policy::new(cfg, FlightLog::Keep(Vec::new()), Some(EventLog::default())),
            clock,
            replicas,
            pending: Vec::new(),
            next_probe_ns,
        }
    }

    /// Replaces replica `r`'s fault plan (crash faults are consumed from
    /// the new plan; hang / slow / flap read from it).
    pub fn set_fault_plan(&mut self, replica: usize, plan: ReplicaFaultPlan) {
        *self.replicas[replica].plan.lock().expect("fault plan") = plan;
    }

    /// Admits one request at the current clock reading. The returned
    /// [`Response`] resolves with exactly one terminal result: an answer,
    /// a shed, or a deadline expiry — never nothing.
    pub fn submit(
        &mut self,
        scene: &Scene,
        query: &str,
        class: Priority,
    ) -> Result<Response, ServeError> {
        self.submit_with_budget(scene, query, class, None)
    }

    /// [`Router::submit`] with a per-request deadline budget overriding
    /// [`RouterConfig::deadline_ns`]: `Some(b)` gives the request `b`
    /// nanoseconds from admission (`Some(0)` disables its deadline);
    /// `None` applies the configured default. The simulation workload
    /// generator uses this to draw deadlines from a distribution.
    pub fn submit_with_budget(
        &mut self,
        scene: &Scene,
        query: &str,
        class: Priority,
        budget_ns: Option<u64>,
    ) -> Result<Response, ServeError> {
        let now = self.clock.now_ns();
        let key = self.input.key(scene, query);
        let (flight, action) = self.policy.arrive(now, key, class, budget_ns)?;
        let (tx, rx) = channel();
        let mut req = Pending {
            flight,
            scene: scene.clone(),
            query: query.to_owned(),
            tx,
            primary: None,
            hedge: None,
        };
        // A dispatched request is stepped at once: a replica cache hit
        // answers at admission.
        let dispatching = matches!(action, Action::Dispatch { .. });
        let mut answer = self.perform(&mut req, now, action);
        if answer.is_none() && dispatching {
            answer = self.step(&mut req, now);
        }
        match answer {
            None => self.pending.push(req),
            Some((Err(e), _)) if !req.flight.accepted() => return Err(e),
            Some((result, meta)) => {
                let _ = req.tx.send(Delivery { result, meta });
            }
        }
        Ok(Response::from_rx(rx))
    }

    /// Runs everything due at the current clock reading: heartbeat probes,
    /// replica batch execution (respecting hang windows and service-time
    /// occupancy), then one policy step per pending request, in sequence
    /// order so the event log is a deterministic fingerprint. Returns how
    /// many units of progress were made; call until 0 for a fixed point at
    /// this instant.
    pub fn tick(&mut self) -> usize {
        let now = self.clock.now_ns();
        let mut progress = self.run_probes(now);
        progress += self.tick_replicas(now);
        let mut kept = Vec::with_capacity(self.pending.len());
        for mut req in mem::take(&mut self.pending) {
            let before = req.flight.progress();
            if let Some((result, meta)) = self.step(&mut req, now) {
                let _ = req.tx.send(Delivery { result, meta });
                progress += 1;
            } else {
                if req.flight.progress() != before {
                    progress += 1;
                }
                kept.push(req);
            }
        }
        self.pending = kept;
        progress
    }

    /// The earliest future instant at which [`Router::tick`] has work, or
    /// `None` when nothing is outstanding. Drivers on a [`VirtualClock`]
    /// jump time here between ticks.
    pub fn next_event_ns(&self) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let now = self.clock.now_ns();
        let mut next = u64::MAX;
        if self.policy.config().health.probe_interval_ns > 0 {
            next = self.next_probe_ns;
        }
        for req in &self.pending {
            next = next.min(req.flight.next_due_ns());
            // An answer hidden behind a busy replica becomes visible when
            // the batch completes.
            for (r, _) in [&req.primary, &req.hedge].into_iter().flatten() {
                let busy = self.replicas[*r].busy_until_ns;
                if busy > now {
                    next = next.min(busy);
                }
            }
        }
        for rep in &self.replicas {
            if let Some(d) = rep.core.next_deadline_ns() {
                let t = d.max(now).max(rep.busy_until_ns);
                let plan = rep.plan.lock().expect("fault plan");
                next = next.min(plan.hung_until(t).unwrap_or(t));
            }
        }
        (next != u64::MAX).then_some(next)
    }

    /// Requests currently outstanding inside the router.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The retained events so far, oldest first. Under the default tail
    /// this is the complete log for small runs (check
    /// [`Router::events_complete`]); for soak-scale runs it is the tail,
    /// and [`Router::events_fingerprint`] covers the whole stream.
    pub fn events(&self) -> Vec<RouterEvent> {
        self.policy.events().to_vec()
    }

    /// Rolling digest over *every* event pushed, retained or evicted —
    /// the run's constant-memory determinism fingerprint.
    pub fn events_fingerprint(&self) -> u64 {
        self.policy.events().fingerprint()
    }

    /// Total events pushed (retained or not).
    pub fn events_total(&self) -> u64 {
        self.policy.events().total()
    }

    /// True while every pushed event is still retained (the tail is the
    /// whole log, so per-event reconciliation is sound).
    pub fn events_complete(&self) -> bool {
        self.policy.events().is_complete()
    }

    /// Keeps at most `tail` of the most recent events (the default is
    /// [`crate::DEFAULT_EVENT_TAIL`]). The fingerprint and total always
    /// cover the whole stream regardless.
    pub fn set_event_tail(&mut self, tail: usize) {
        self.policy.events_mut().set_tail(tail);
    }

    /// Registers a streaming observer called once per event, in push
    /// order, before anything else can run — the hook the simulation
    /// invariant checker uses to validate million-event runs without
    /// retaining them. Observation cannot affect router behavior.
    pub fn set_event_observer(&mut self, observer: EventObserver) {
        self.policy.set_observer(observer);
    }

    /// The sequence number the next valid submission will be assigned.
    pub fn upcoming_seq(&self) -> u64 {
        self.policy.upcoming_seq()
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> RouterStats {
        self.policy.stats()
    }

    /// Per-request flight records so far, in terminal order. One record
    /// per valid submission — accepted or not — reconcilable against
    /// [`Router::events`] with [`crate::reconcile_flights`]. Empty once
    /// [`Router::stream_flights`] is on.
    pub fn flight_records(&self) -> &[FlightRecord] {
        self.policy.flight_records()
    }

    /// Folds flight records into a fixed-size SLO accumulator instead of
    /// keeping them, so a million-request soak never holds its flight
    /// history; [`Router::slo_report`] then reads the accumulator
    /// (percentiles at histogram resolution).
    pub fn stream_flights(&mut self) {
        self.policy.stream_flights();
    }

    /// SLO accounting aggregated from the flight records so far.
    pub fn slo_report(&self) -> SloReport {
        self.policy.slo_report()
    }

    /// Replica `r`'s current circuit position.
    pub fn circuit_state(&self, replica: usize) -> CircuitState {
        self.policy.circuit_state(replica)
    }

    /// Entries currently held by replica `r`'s response cache.
    pub fn replica_cache_len(&self, replica: usize) -> usize {
        self.replicas[replica].core.cache_len()
    }

    /// Every batch replica `r` has flushed, in order — its batch-boundary
    /// fingerprint.
    pub fn replica_boundaries(&self, replica: usize) -> &[BatchBoundary] {
        self.replicas[replica].core.boundaries()
    }

    // ---------------------------------------------------------- internals

    /// Steps one request with whatever its attempts have answered, and
    /// carries out the policy's action. `Some` when the request ended.
    fn step(&mut self, req: &mut Pending, now: u64) -> Option<Answer> {
        let primary = self.poll(&mut req.primary, now);
        let hedge = self.poll(&mut req.hedge, now);
        let action = self.policy.step(&mut req.flight, now, primary, hedge);
        self.perform(req, now, action)
    }

    /// An attempt's answer, once its replica is no longer busy — a batch
    /// started at `t` completes at `t + service cost`, which is what makes
    /// a slowed replica answer late. Service time is the core's
    /// measurement or, under a virtual clock where that is ~0, the
    /// [`ServiceModel`] cost charged for the batch.
    fn poll(&self, slot: &mut Option<(usize, Response)>, now: u64) -> Option<Answer> {
        let (r, resp) = slot.as_ref()?;
        let rep = &self.replicas[*r];
        if rep.busy_until_ns > now {
            return None;
        }
        let (result, mut meta) = resp.try_now_with_meta()?;
        let cost = rep.batch_cost.get(&meta.batch_id).copied().unwrap_or(0);
        meta.service_ns = meta.service_ns.max(cost);
        *slot = None;
        Some((result, meta))
    }

    /// Carries out `action` and every action it leads to at `now`, until
    /// the policy waits (`None`) or answers.
    fn perform(&mut self, req: &mut Pending, now: u64, mut action: Action) -> Option<Answer> {
        loop {
            action = match action {
                Action::Wait => return None,
                Action::Answer(result, meta) => return Some((result, meta)),
                Action::Dispatch {
                    replica,
                    hedge,
                    ctx,
                } => {
                    let deadline = req.flight.deadline_ns();
                    let core = &mut self.replicas[replica].core;
                    match core.submit_traced(&req.scene, &req.query, deadline, ctx) {
                        Ok(resp) => {
                            let slot = if hedge {
                                &mut req.hedge
                            } else {
                                &mut req.primary
                            };
                            *slot = Some((replica, resp));
                            return None;
                        }
                        Err(e) => self.policy.refused(&mut req.flight, now, hedge, e),
                    }
                }
                Action::LookupCache(order) => {
                    let hit = order.into_iter().find_map(|r| {
                        let core = &mut self.replicas[r].core;
                        core.cache_lookup(&req.scene, &req.query).map(|p| (r, p))
                    });
                    self.policy.degraded(&mut req.flight, now, hit)
                }
            };
        }
    }

    /// Runs every heartbeat probe due at or before `now`. A probe fails
    /// while the replica is hung or its health signal is flapped down.
    fn run_probes(&mut self, now: u64) -> usize {
        let interval = self.policy.config().health.probe_interval_ns;
        if interval == 0 {
            return 0;
        }
        let mut fired = 0;
        while self.next_probe_ns <= now {
            let t = self.next_probe_ns;
            for r in 0..self.replicas.len() {
                let plan = self.replicas[r].plan.lock().expect("fault plan");
                let ok = !plan.is_hung_at(t) && !plan.is_flapped_down(t);
                drop(plan);
                self.policy.probe(t, r, ok);
            }
            self.next_probe_ns = t.saturating_add(interval);
            fired += 1;
        }
        fired
    }

    /// Runs due batches on every replica that is neither hung nor busy,
    /// charging virtual service time per batch.
    fn tick_replicas(&mut self, now: u64) -> usize {
        let svc = self.policy.config().service;
        let mut progress = 0;
        for rep in &mut self.replicas {
            let (hung, slow) = {
                let plan = rep.plan.lock().expect("fault plan");
                (plan.is_hung_at(now), plan.slow_factor())
            };
            if hung {
                continue;
            }
            // Even a busy replica expires overdue requests — expiry is
            // queue bookkeeping, not model work.
            rep.core.expire();
            if rep.busy_until_ns > now {
                continue;
            }
            while rep.core.tick_one() > 0 {
                progress += 1;
                let (size, batch_id) = rep
                    .core
                    .boundaries()
                    .last()
                    .map_or((0, 0), |b| (b.size, b.batch_id));
                let cost = svc
                    .base_ns
                    .saturating_add(svc.per_item_ns.saturating_mul(size as u64));
                let cost = (cost as f64 * slow) as u64;
                if cost > 0 {
                    // Remember the charge so delivered requests can report
                    // it as their service time.
                    rep.batch_cost.insert(batch_id, cost);
                    rep.busy_until_ns = now.saturating_add(cost);
                    break;
                }
            }
        }
        progress
    }
}

/// One scripted router request: at `at_ns`, submit `query` against scene
/// index `scene` with priority `class`.
#[derive(Debug, Clone)]
pub struct RouterArrival {
    /// Absolute virtual submission time.
    pub at_ns: u64,
    /// Index into the scene list.
    pub scene: usize,
    /// The referring expression.
    pub query: String,
    /// Priority class.
    pub class: Priority,
}

impl RouterArrival {
    /// Convenience constructor.
    pub fn new(at_ns: u64, scene: usize, query: impl Into<String>, class: Priority) -> Self {
        RouterArrival {
            at_ns,
            scene,
            query: query.into(),
            class,
        }
    }
}

/// What one simulated router run did.
#[derive(Debug)]
pub struct RouterReport {
    /// Terminal result of every *accepted* request, in submission order.
    /// The chaos acceptance invariant: this has one entry per accepted
    /// request — none stranded, none doubled.
    pub outcomes: Vec<ServeResult>,
    /// Requests rejected at submission (shed / invalid / unavailable).
    pub rejected: Vec<ServeError>,
    /// The retained events (the full log while `events_complete` is
    /// true — guaranteed for small runs under the default tail).
    pub events: Vec<RouterEvent>,
    /// Rolling digest over every event pushed — the run's constant-memory
    /// determinism fingerprint.
    pub events_fingerprint: u64,
    /// Total events pushed (retained or evicted).
    pub events_total: u64,
    /// True when `events` is the complete log (no eviction happened).
    pub events_complete: bool,
    /// Aggregate counters.
    pub stats: RouterStats,
    /// Per-request flight records, reconcilable against `events` with
    /// [`crate::reconcile_flights`].
    pub flights: Vec<FlightRecord>,
}

/// The virtual-time event loop: replays arrivals against a [`Router`] on
/// a [`VirtualClock`], advancing time event by event. Arrival scripts
/// ([`RouterSim::run`]) and the soak harness ([`crate::run_simtest`]) both
/// run on it.
pub struct RouterSim<M: GroundingModel> {
    router: Router<M>,
    clock: Arc<VirtualClock>,
}

impl<M: GroundingModel> RouterSim<M> {
    /// A simulation starting at virtual t = 0.
    pub fn new(
        cfg: RouterConfig,
        serve_cfg: ServeConfig,
        vocab: Vocab,
        factory: impl FnMut(usize) -> M,
    ) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let router = Router::new(
            cfg,
            serve_cfg,
            vocab,
            Arc::clone(&clock) as Arc<dyn Clock>,
            factory,
        );
        RouterSim { router, clock }
    }

    /// The router under simulation (to inject fault plans or inspect
    /// state).
    pub fn router_mut(&mut self) -> &mut Router<M> {
        &mut self.router
    }

    /// The router under simulation.
    pub fn router(&self) -> &Router<M> {
        &self.router
    }

    /// Replays `arrivals` (sorted by `at_ns`) against `scenes`, then runs
    /// the router to quiescence. Every accepted request has a terminal
    /// outcome in the returned report.
    ///
    /// # Panics
    /// Panics if the script is unsorted, indexes a missing scene, or the
    /// router livelocks (only possible with no deadline configured).
    pub fn run(&mut self, scenes: &[Scene], arrivals: &[RouterArrival]) -> RouterReport {
        let mut responses: Vec<Response> = Vec::new();
        let mut rejected = Vec::new();
        self.play(
            arrivals.iter().map(|a| (a.at_ns, a)),
            |router, a| match router.submit(&scenes[a.scene], &a.query, a.class) {
                Ok(resp) => responses.push(resp),
                Err(e) => rejected.push(e),
            },
        );
        let outcomes = responses
            .into_iter()
            .map(|r| {
                r.try_now()
                    .expect("every accepted request has a terminal response")
            })
            .collect();
        let router = &self.router;
        RouterReport {
            outcomes,
            rejected,
            events: router.events(),
            events_fingerprint: router.events_fingerprint(),
            events_total: router.events_total(),
            events_complete: router.events_complete(),
            stats: router.stats(),
            flights: router.flight_records().to_vec(),
        }
    }

    /// Submits each `(at_ns, arrival)` through `submit` at its instant —
    /// after every router event due up to then — and then runs the router
    /// to quiescence. Returns the final virtual time.
    ///
    /// # Panics
    /// Panics if the arrivals are unsorted, a due event makes no
    /// progress, quiescence takes a million time steps, or a request is
    /// left stranded.
    pub(crate) fn play<A>(
        &mut self,
        arrivals: impl IntoIterator<Item = (u64, A)>,
        mut submit: impl FnMut(&mut Router<M>, A),
    ) -> u64 {
        for (at_ns, arrival) in arrivals {
            assert!(
                at_ns >= self.clock.now_ns(),
                "arrival script must be sorted by time"
            );
            self.run_until(Some(at_ns));
            submit(&mut self.router, arrival);
            while self.router.tick() > 0 {}
        }
        self.run_until(None);
        assert_eq!(self.router.pending_len(), 0, "requests left stranded");
        self.clock.now_ns()
    }

    /// Fires every router event due up to `until` (all of them when
    /// `None`, with a livelock guard), leaving the clock at `until`.
    fn run_until(&mut self, until: Option<u64>) {
        let mut steps = 0u32;
        loop {
            while self.router.tick() > 0 {}
            match self.router.next_event_ns() {
                Some(t) if until.is_none_or(|u| t <= u) => {
                    assert!(
                        t > self.clock.now_ns(),
                        "router made no progress on a due event at {t}"
                    );
                    steps += 1;
                    assert!(
                        until.is_some() || steps < 1_000_000,
                        "router failed to quiesce"
                    );
                    self.clock.set(t);
                }
                _ => break,
            }
        }
        if let Some(u) = until {
            self.clock.set(u.max(self.clock.now_ns()));
        }
    }
}
