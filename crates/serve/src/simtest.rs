//! Deterministic million-request simulation testing for the router tier.
//!
//! A FoundationDB-style soak harness: everything — arrival times, scene
//! popularity, priority mix, deadline budgets, fault schedules, back-off
//! jitter — derives from one root seed, and the whole system runs on a
//! [`crate::VirtualClock`], so a multi-million-request scenario replays
//! bit-identically in seconds of wall time. The pieces:
//!
//! * [`SimRng`] / [`derive_seed`] — a splitmix64 generator and a seed
//!   derivation scheme giving every randomness consumer (workload, faults,
//!   router jitter) an independent stream of the root seed, so adding a
//!   draw to one consumer never perturbs another;
//! * [`WorkloadGen`] — a lazy open-loop workload: Poisson (exponential
//!   inter-arrival) or bursty arrivals, Zipf-skewed scene popularity,
//!   weighted Interactive/Standard/Bulk class mix, and per-request
//!   deadline budgets drawn from a weighted choice set. Arrivals are
//!   generated on demand — a 2M-request run never materialises its script;
//! * [`gen_fault_plans`] — randomized multi-replica chaos composed from
//!   [`ReplicaFaultPlan`] primitives (crash loops, permanent crashes, hang
//!   windows, slow factors, flapping), always leaving one seeded survivor
//!   replica fault-free;
//! * [`InvariantChecker`] — an *online* checker fed by the router's event
//!   observer and drained flight records: monotone virtual time, exactly
//!   one terminal response per request, no answer after its deadline,
//!   per-class admission within capacity, and (at the end) event counts
//!   consistent with [`RouterStats`] and the streamed [`SloReport`].
//!   Constant memory: only the open-request set is retained, never the
//!   event or flight history;
//! * [`run_simtest`] — builds the world ([`sim_world`]), streams the
//!   workload through the [`RouterSim`] event loop to quiescence, and
//!   returns a [`SimtestOutcome`] (SLO report, stats, event fingerprint,
//!   violations).
//!
//! Liveness under arbitrary fault schedules comes from deadlines: every
//! request the workload emits carries a finite budget, so even a scenario
//! that hangs every faulted replica terminates — the survivor answers what
//! it can and deadlines clear the rest.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use yollo_core::{GroundingPrediction, ReplicaFaultPlan};
use yollo_detect::BBox;
use yollo_synthref::{ColorName, Scene, SceneBuilder, ShapeKind};
use yollo_tensor::Tensor;
use yollo_text::{tokenize, Vocab};

use crate::router::{
    Priority, RouterConfig, RouterEvent, RouterEventKind, RouterSim, RouterStats, ServiceModel,
    NO_REQUEST,
};
use crate::server::{GroundingModel, ServeConfig};
use crate::slo::SloReport;

/// Splitmix64: a tiny, fast, full-period generator with excellent
/// statistical quality for simulation purposes. Deliberately distinct
/// from the router's own [`crate::JitterRng`] stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A generator seeded at `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`. `n` must be non-zero. (Modulo bias is
    /// irrelevant at simulation `n` ≪ 2^64.)
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)` (`lo` when the range is empty).
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.below(hi - lo)
        }
    }

    /// True with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Index drawn from `weights` (proportional). All-zero weights pick 0.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return 0;
        }
        let mut draw = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if draw < w as u64 {
                return i;
            }
            draw -= w as u64;
        }
        weights.len() - 1
    }
}

/// Derives an independent stream seed from a root seed: every consumer
/// (workload = stream 0, faults = stream 1, router jitter = stream 2, …)
/// gets its own generator, so adding draws to one stream never shifts the
/// randomness another sees — the property that keeps scenario cells
/// independently reproducible.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut rng = SimRng::new(root ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

/// Shape of the simulated arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Poisson arrivals: exponential inter-arrival at the mean rate.
    Steady,
    /// Poisson arrivals with periodic bursts: every `period_ns`, the rate
    /// is multiplied by `factor` for `burst_ns`.
    Bursty {
        /// Burst cycle length.
        period_ns: u64,
        /// Burst duration at the start of each cycle.
        burst_ns: u64,
        /// Rate multiplier during a burst (≥ 1).
        factor: u64,
    },
}

/// Parameters of one seeded workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total requests to emit.
    pub requests: u64,
    /// Mean inter-arrival time at the base rate.
    pub mean_interarrival_ns: u64,
    /// Arrival process shape.
    pub load: LoadShape,
    /// Distinct scenes in the pool.
    pub scenes: usize,
    /// Distinct queries in the pool (picked uniformly).
    pub queries: usize,
    /// Zipf popularity exponent over scenes (0 = uniform; ~1 = web-like
    /// skew).
    pub zipf_exponent: f64,
    /// Relative weights of `[Interactive, Standard, Bulk]`.
    pub class_weights: [u32; 3],
    /// Weighted deadline-budget choices `(budget_ns, weight)`. Budgets
    /// must be non-zero: finite deadlines are what guarantee liveness
    /// under fault schedules.
    pub deadline_choices_ns: Vec<(u64, u32)>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            requests: 10_000,
            mean_interarrival_ns: 30_000, // ~33k req/s offered
            load: LoadShape::Steady,
            scenes: 64,
            queries: 8,
            zipf_exponent: 1.0,
            class_weights: [2, 5, 3],
            deadline_choices_ns: vec![
                (2_000_000, 2),  // tight: 2 ms
                (10_000_000, 6), // normal: 10 ms
                (50_000_000, 2), // loose: 50 ms
            ],
        }
    }
}

/// One generated arrival: indexes into the world's scene/query pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimArrival {
    /// Virtual arrival time.
    pub at_ns: u64,
    /// Scene pool index (Zipf-skewed).
    pub scene: usize,
    /// Query pool index (uniform).
    pub query: usize,
    /// Priority class.
    pub class: Priority,
    /// Per-request deadline budget (always non-zero).
    pub budget_ns: u64,
}

/// Lazy seeded arrival stream — `Iterator<Item = SimArrival>`. Never
/// materialises the script: state is one RNG, a clock and the Zipf table.
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: SimRng,
    /// Cumulative (unnormalised) Zipf weights over scene indices.
    zipf_cum: Vec<f64>,
    t_ns: u64,
    emitted: u64,
}

impl WorkloadGen {
    /// A workload stream for `spec` seeded at `seed`.
    ///
    /// # Panics
    /// Panics if the spec has no scenes, no queries, no deadline choices,
    /// or a zero deadline budget (liveness requires finite deadlines).
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        assert!(spec.requests > 0, "empty workload");
        assert!(spec.scenes > 0, "workload needs scenes");
        assert!(spec.queries > 0, "workload needs queries");
        assert!(spec.mean_interarrival_ns > 0, "zero arrival rate");
        assert!(
            !spec.deadline_choices_ns.is_empty()
                && spec.deadline_choices_ns.iter().all(|&(b, _)| b > 0),
            "every deadline budget must be finite and non-zero"
        );
        if let LoadShape::Bursty {
            period_ns,
            burst_ns,
            factor,
        } = spec.load
        {
            assert!(period_ns > 0 && burst_ns <= period_ns && factor >= 1);
        }
        let mut cum = 0.0;
        let zipf_cum = (0..spec.scenes)
            .map(|i| {
                cum += 1.0 / ((i + 1) as f64).powf(spec.zipf_exponent);
                cum
            })
            .collect();
        WorkloadGen {
            spec,
            rng: SimRng::new(seed),
            zipf_cum,
            t_ns: 0,
            emitted: 0,
        }
    }

    fn draw_scene(&mut self) -> usize {
        let total = *self.zipf_cum.last().expect("non-empty zipf table");
        let u = self.rng.next_f64() * total;
        self.zipf_cum.partition_point(|&c| c <= u)
    }

    fn draw_interarrival(&mut self) -> u64 {
        let mut mean = self.spec.mean_interarrival_ns as f64;
        if let LoadShape::Bursty {
            period_ns,
            burst_ns,
            factor,
        } = self.spec.load
        {
            if self.t_ns % period_ns < burst_ns {
                mean /= factor as f64;
            }
        }
        let u = self.rng.next_f64();
        ((-mean * (1.0 - u).ln()) as u64).max(1)
    }
}

impl Iterator for WorkloadGen {
    type Item = SimArrival;

    fn next(&mut self) -> Option<SimArrival> {
        if self.emitted == self.spec.requests {
            return None;
        }
        self.emitted += 1;
        self.t_ns += self.draw_interarrival();
        let scene = self.draw_scene();
        let query = self.rng.below(self.spec.queries as u64) as usize;
        let class = match self.rng.weighted(&self.spec.class_weights) {
            0 => Priority::Interactive,
            1 => Priority::Standard,
            _ => Priority::Bulk,
        };
        let choices = &self.spec.deadline_choices_ns;
        let weights: Vec<u32> = choices.iter().map(|&(_, w)| w).collect();
        let budget_ns = choices[self.rng.weighted(&weights)].0;
        Some(SimArrival {
            at_ns: self.t_ns,
            scene,
            query,
            class,
            budget_ns,
        })
    }
}

/// Parameters of one randomized fault schedule. Probabilities are per
/// replica per fault family; the schedule always exempts one seeded
/// survivor replica so availability has a floor to measure.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Virtual time span fault windows are placed within.
    pub horizon_ns: u64,
    /// Expected per-replica request count, scaling crash indices.
    pub expected_requests_per_replica: u64,
    /// Chance of a crash loop (several injected worker panics).
    pub crash_prob: f64,
    /// Chance of a permanent crash-from-request-k (circuit stays open).
    pub crash_forever_prob: f64,
    /// Chance of 1–3 hang windows.
    pub hang_prob: f64,
    /// Chance of a slow factor in `[1.5, 4)`.
    pub slow_prob: f64,
    /// Chance of periodic flapping.
    pub flap_prob: f64,
}

impl FaultSpec {
    /// A broad chaos mix over the given horizon.
    pub fn chaos(horizon_ns: u64, expected_requests_per_replica: u64) -> Self {
        FaultSpec {
            horizon_ns,
            expected_requests_per_replica,
            crash_prob: 0.6,
            crash_forever_prob: 0.15,
            hang_prob: 0.5,
            slow_prob: 0.5,
            flap_prob: 0.3,
        }
    }
}

/// Composes a randomized per-replica fault schedule from
/// [`ReplicaFaultPlan`] primitives. One rng-chosen survivor replica gets
/// an empty plan; every other replica independently draws crash loops,
/// permanent crashes, hang windows, slow factors and flapping per `spec`.
pub fn gen_fault_plans(
    spec: &FaultSpec,
    replicas: usize,
    rng: &mut SimRng,
) -> Vec<ReplicaFaultPlan> {
    assert!(replicas > 0);
    let survivor = rng.below(replicas as u64) as usize;
    let horizon = spec.horizon_ns.max(2);
    let per_replica = spec.expected_requests_per_replica.max(10);
    (0..replicas)
        .map(|r| {
            let mut plan = ReplicaFaultPlan::new();
            if r == survivor {
                return plan;
            }
            if rng.chance(spec.crash_prob) {
                for _ in 0..=rng.below(4) {
                    plan = plan.crash_at_request(rng.range(1, per_replica) as usize);
                }
            }
            if rng.chance(spec.crash_forever_prob) {
                plan = plan.crash_from(rng.range(per_replica / 2, per_replica) as usize);
            }
            if rng.chance(spec.hang_prob) {
                for _ in 0..=rng.below(3) {
                    let from = rng.below(horizon - 1);
                    let len = rng.range(horizon / 100 + 1, horizon / 10 + 2);
                    plan = plan.hang_between(from, (from + len).max(from + 1));
                }
            }
            if rng.chance(spec.slow_prob) {
                plan = plan.slow_by(1.5 + 2.5 * rng.next_f64());
            }
            if rng.chance(spec.flap_prob) {
                plan = plan.flap(rng.range(horizon / 20 + 1, horizon / 5 + 2));
            }
            plan
        })
        .collect()
}

/// One invariant violation, with enough context to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Virtual time of the offending observation.
    pub at_ns: u64,
    /// Request sequence number ([`NO_REQUEST`] for stream-level checks).
    pub seq: u64,
    /// What was violated.
    pub what: String,
}

#[derive(Debug)]
struct OpenReq {
    deadline_ns: u64,
    class: Priority,
    dispatched: bool,
}

/// Streaming invariant checker over a router run. Fed three ways:
/// [`InvariantChecker::expect_submit`] before each submission (the
/// harness knows the deadline it granted), the router's event observer
/// ([`InvariantChecker::on_event`]), and
/// [`InvariantChecker::finish`] against the final [`RouterStats`] and
/// streamed [`SloReport`]. State is the open-request set plus counters —
/// never the history — so it checks a 2M-request run in bounded memory.
///
/// Checked online:
/// 1. **monotone virtual time** — request events never move backwards,
///    and neither do maintenance events (health probes, circuit
///    transitions) among themselves. The two streams are checked
///    separately because the router logs probe firings at their
///    *scheduled* virtual time, which may causally trail a batch
///    completion that was logged first;
/// 2. **exactly one terminal** — every submission gets exactly one
///    terminal event (`Delivered` / `DeadlineExceeded` / `Shed` /
///    `DegradedHit` / `Unavailable`), and no event follows it;
/// 3. **no answer after deadline** — `Delivered` / `DegradedHit` at or
///    before the request's deadline; `DeadlineExceeded` never before it;
/// 4. **class accounting** — accepted in-flight per class never exceeds
///    the configured capacity, and sheds are counted per class.
///
/// Checked at [`InvariantChecker::finish`]:
/// 5. **no stranded requests** — the open set is empty;
/// 6. **report consistency** — event-derived counts equal both
///    [`RouterStats`] and the [`SloReport`] built from flight records
///    (three independently produced accounts of the same run).
#[derive(Debug)]
pub struct InvariantChecker {
    class_capacity: [usize; 3],
    last_at_ns: u64,
    last_maint_at_ns: u64,
    open: BTreeMap<u64, OpenReq>,
    open_by_class: [usize; 3],
    max_open: usize,
    events_seen: u64,
    /// Counts derived from the events (`shed` is kept per class).
    seen: RouterStats,
    shed_by_class: [u64; 3],
    violations: Vec<InvariantViolation>,
}

/// Cap on retained violations: enough to diagnose, bounded by design.
const MAX_VIOLATIONS: usize = 64;

impl InvariantChecker {
    /// A checker for a router configured with `class_capacity`.
    pub fn new(class_capacity: [usize; 3]) -> Self {
        InvariantChecker {
            class_capacity,
            last_at_ns: 0,
            last_maint_at_ns: 0,
            open: BTreeMap::new(),
            open_by_class: [0; 3],
            max_open: 0,
            events_seen: 0,
            seen: RouterStats::default(),
            shed_by_class: [0; 3],
            violations: Vec::new(),
        }
    }

    fn violate(&mut self, at_ns: u64, seq: u64, what: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations
                .push(InvariantViolation { at_ns, seq, what });
        }
    }

    /// Declares the submission the harness is about to make: `seq` must be
    /// the router's [`crate::Router::upcoming_seq`], `deadline_ns` the absolute
    /// deadline the granted budget implies.
    pub fn expect_submit(&mut self, seq: u64, deadline_ns: u64, class: Priority) {
        self.seen.submitted += 1;
        let prev = self.open.insert(
            seq,
            OpenReq {
                deadline_ns,
                class,
                dispatched: false,
            },
        );
        if prev.is_some() {
            self.violate(self.last_at_ns, seq, "seq submitted twice".into());
        }
        self.max_open = self.max_open.max(self.open.len());
    }

    /// Absorbs one router event (wire this as the router's event
    /// observer).
    pub fn on_event(&mut self, ev: &RouterEvent) {
        self.events_seen += 1;
        // Probe/circuit events are logged at their scheduled tick, which
        // may causally trail request events already logged — each stream
        // must be monotone on its own.
        let maint = ev.seq == NO_REQUEST;
        let cursor = if maint {
            self.last_maint_at_ns
        } else {
            self.last_at_ns
        };
        if ev.at_ns < cursor {
            self.violate(
                ev.at_ns,
                ev.seq,
                format!("virtual time moved backwards from {cursor}"),
            );
        }
        if maint {
            self.last_maint_at_ns = cursor.max(ev.at_ns);
        } else {
            self.last_at_ns = cursor.max(ev.at_ns);
        }

        if ev.seq == NO_REQUEST {
            match ev.kind {
                RouterEventKind::CircuitOpened { .. }
                | RouterEventKind::CircuitClosed { .. }
                | RouterEventKind::ProbeFailed { .. } => {}
                _ => self.violate(
                    ev.at_ns,
                    ev.seq,
                    format!("request event {:?} without a seq", ev.kind),
                ),
            }
            return;
        }

        let Some(req) = self.open.get_mut(&ev.seq) else {
            self.violate(
                ev.at_ns,
                ev.seq,
                format!("event {:?} for unknown or already-terminated seq", ev.kind),
            );
            return;
        };
        let (deadline, class, was_dispatched) = (req.deadline_ns, req.class, req.dispatched);
        let ci = class.index();
        if matches!(ev.kind, RouterEventKind::Routed { .. }) {
            req.dispatched = true;
        }

        let mut terminal = true;
        let late = ev.at_ns > deadline;
        let problem: Option<String> = match ev.kind {
            RouterEventKind::Routed { attempt, .. } => {
                terminal = false;
                if was_dispatched {
                    (attempt < 2).then(|| "re-dispatch with attempt < 2".into())
                } else {
                    self.seen.accepted += 1;
                    self.open_by_class[ci] += 1;
                    let (open, cap) = (self.open_by_class[ci], self.class_capacity[ci]);
                    (open > cap).then(|| {
                        format!(
                            "class {} in-flight {open} exceeds capacity {cap}",
                            class.name()
                        )
                    })
                }
            }
            RouterEventKind::Hedged { .. } => {
                terminal = false;
                (!was_dispatched).then(|| "hedge before any dispatch".into())
            }
            RouterEventKind::Delivered { ok, .. } => {
                if ok {
                    self.seen.delivered_ok += 1;
                } else {
                    self.seen.delivered_err += 1;
                }
                late.then(|| format!("delivered after deadline {deadline}"))
            }
            RouterEventKind::DeadlineExceeded => {
                self.seen.deadline_exceeded += 1;
                if deadline == u64::MAX {
                    Some("deadline expiry without a deadline".into())
                } else {
                    (ev.at_ns < deadline)
                        .then(|| format!("deadline expiry before deadline {deadline}"))
                }
            }
            RouterEventKind::Shed => {
                self.shed_by_class[ci] += 1;
                was_dispatched.then(|| "shed after dispatch".into())
            }
            RouterEventKind::DegradedHit => {
                self.seen.degraded_hits += 1;
                late.then(|| format!("degraded answer after deadline {deadline}"))
            }
            RouterEventKind::Unavailable => {
                self.seen.unavailable += 1;
                was_dispatched.then(|| "unavailable after dispatch".into())
            }
            RouterEventKind::CircuitOpened { .. }
            | RouterEventKind::CircuitClosed { .. }
            | RouterEventKind::ProbeFailed { .. } => {
                terminal = false;
                Some(format!("replica event {:?} carries a request seq", ev.kind))
            }
        };
        if let Some(what) = problem {
            self.violate(ev.at_ns, ev.seq, what);
        }
        if terminal {
            self.open.remove(&ev.seq);
            if was_dispatched {
                self.open_by_class[ci] -= 1;
            }
        }
    }

    /// Final cross-checks once the router has quiesced: no request left
    /// open, and the event-derived counts agree with both the router's
    /// own [`RouterStats`] and the flight-record-derived [`SloReport`].
    pub fn finish(&mut self, stats: &RouterStats, slo: &SloReport) {
        if !self.open.is_empty() {
            let stranded: Vec<u64> = self.open.keys().take(8).copied().collect();
            self.violate(
                self.last_at_ns,
                NO_REQUEST,
                format!(
                    "{} requests stranded without a terminal: {stranded:?}…",
                    self.open.len()
                ),
            );
        }
        // Every count the events determine, as the events, the router's
        // stats and the SLO report each tell it.
        let seen = RouterStats {
            shed: self.shed_by_class.iter().sum(),
            ..self.seen
        };
        let by_stats = RouterStats {
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            replica_failures: 0,
            ..*stats
        };
        let by_slo = RouterStats {
            submitted: slo.submitted,
            accepted: slo.accepted,
            shed: slo.shed,
            degraded_hits: slo.degraded_hits,
            unavailable: slo.unavailable,
            delivered_ok: slo.delivered_ok,
            delivered_err: slo.delivered_err,
            deadline_exceeded: slo.deadline_exceeded,
            ..RouterStats::default()
        };
        for (report, want) in [("stats", by_stats), ("slo", by_slo)] {
            if seen != want {
                self.violations.push(InvariantViolation {
                    at_ns: self.last_at_ns,
                    seq: NO_REQUEST,
                    what: format!("events say {seen:?}, {report} says {want:?}"),
                });
            }
        }
        self.violations.truncate(MAX_VIOLATIONS);
    }

    /// Violations recorded so far (empty = clean; capped at 64).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Peak simultaneously-open requests (a bounded-memory witness).
    pub fn max_open(&self) -> usize {
        self.max_open
    }

    /// Events absorbed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

/// A trivially cheap deterministic grounding model for soak runs: the
/// prediction is a pure function of the query tokens and one image pixel,
/// so two same-seed runs produce bit-identical responses at negligible
/// per-batch cost.
pub struct SimModel;

impl GroundingModel for SimModel {
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction> {
        let b = queries.len();
        let per = images.numel() / b.max(1);
        let data = images.as_slice();
        (0..b)
            .map(|i| {
                let pixel = data[i * per];
                let q_sum = queries[i].iter().sum::<usize>() as f64;
                GroundingPrediction {
                    bbox: BBox {
                        x: q_sum,
                        y: pixel.abs(),
                        w: 4.0,
                        h: 4.0,
                    },
                    score: 0.5,
                    attention: vec![1.0],
                }
            })
            .collect()
    }
}

/// Scene edge for the soak world: small enough that a cache-missed render
/// (C×H×W floats) is cheap at millions of requests.
const SIM_SCENE_W: usize = 16;
const SIM_SCENE_H: usize = 12;

/// Builds the simulation world: `scenes` distinct small scenes, a query
/// pool, a vocabulary covering it, a [`ServeConfig`] matching the scene
/// shape, and a [`RouterConfig`] with `replicas` replicas and a virtual
/// service-time model. `seed` drives the router's jitter stream.
pub fn sim_world(
    replicas: usize,
    scenes: usize,
    seed: u64,
) -> (RouterConfig, ServeConfig, Vocab, Vec<Scene>, Vec<String>) {
    let shapes = [ShapeKind::Circle, ShapeKind::Square, ShapeKind::Triangle];
    let colors = [ColorName::Red, ColorName::Blue, ColorName::Green];
    let scene_pool: Vec<Scene> = (0..scenes)
        .map(|i| {
            SceneBuilder::new(SIM_SCENE_W, SIM_SCENE_H)
                .object(
                    shapes[i % shapes.len()],
                    colors[(i / shapes.len()) % colors.len()],
                    (i % 8) as f64,
                    (i % 5) as f64,
                    4.0,
                    4.0,
                )
                .object(
                    shapes[(i + 1) % shapes.len()],
                    colors[i % colors.len()],
                    ((i * 3) % 9 + 6) as f64,
                    ((i * 7) % 6 + 5) as f64,
                    3.0,
                    3.0,
                )
                .build()
        })
        .collect();
    let queries: Vec<String> = [
        "the red circle",
        "the blue square",
        "the green triangle",
        "the circle left of the square",
        "the square above the triangle",
        "the red item",
        "the blue item right of the circle",
        "the triangle below the square",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let toks =
        tokenize("the a red blue green circle square triangle left right of above below item");
    let vocab = Vocab::build([toks.iter().map(String::as_str)], 1);
    let serve_cfg = ServeConfig {
        max_batch: 8,
        max_wait_ns: 200_000, // 0.2 ms
        queue_capacity: 512,
        cache_capacity: 256,
        image_width: SIM_SCENE_W,
        image_height: SIM_SCENE_H,
        ..ServeConfig::default()
    };
    let router_cfg = RouterConfig {
        replicas,
        vnodes: 32,
        deadline_ns: 10_000_000, // fallback; the workload overrides per request
        hedge_delay_ns: 400_000, // hedge Interactive after 0.4 ms
        class_capacity: [64, 128, 64],
        seed: derive_seed(seed, 2),
        // Cheap enough that a fault-free cell at the default 30 µs mean
        // inter-arrival stays under capacity (a full batch of 8 costs
        // 260 µs ≈ 32.5 µs/request/replica) while chaos cells still build
        // real queues when replicas slow down or hang.
        service: ServiceModel {
            base_ns: 100_000,
            per_item_ns: 20_000,
        },
        ..RouterConfig::default()
    };
    (router_cfg, serve_cfg, vocab, scene_pool, queries)
}

/// One scenario cell of the simulation matrix.
#[derive(Debug, Clone)]
pub struct SimtestConfig {
    /// Human-readable cell name (grid coordinates).
    pub name: String,
    /// Requests to simulate.
    pub requests: u64,
    /// Router replicas.
    pub replicas: usize,
    /// Root seed; every randomness stream derives from it.
    pub seed: u64,
    /// Arrival shape.
    pub load: LoadShape,
    /// Fault schedule (`None` = fault-free).
    pub faults: Option<FaultSpec>,
    /// Distinct scenes in the pool.
    pub scenes: usize,
    /// Mean inter-arrival time at the base rate.
    pub mean_interarrival_ns: u64,
}

impl SimtestConfig {
    /// A matrix cell with the standard world parameters.
    pub fn cell(
        name: impl Into<String>,
        requests: u64,
        replicas: usize,
        seed: u64,
        load: LoadShape,
        faults: Option<FaultSpec>,
    ) -> Self {
        SimtestConfig {
            name: name.into(),
            requests,
            replicas,
            seed,
            load,
            faults,
            scenes: 64,
            mean_interarrival_ns: 30_000,
        }
    }

    /// A chaos spec sized to this cell's load (horizon ≈ the run's
    /// virtual duration, crash indices ≈ per-replica request share).
    pub fn chaos(&self) -> FaultSpec {
        let horizon_ns = self.requests.saturating_mul(self.mean_interarrival_ns);
        FaultSpec::chaos(
            horizon_ns.max(1_000_000),
            self.requests / self.replicas.max(1) as u64,
        )
    }
}

/// What one simulation cell produced.
#[derive(Debug, Clone)]
pub struct SimtestOutcome {
    /// Cell name.
    pub name: String,
    /// Requests submitted.
    pub requests: u64,
    /// Streamed SLO report (counters exact; percentiles at histogram
    /// resolution).
    pub slo: SloReport,
    /// The router's own counters.
    pub stats: RouterStats,
    /// Rolling fingerprint over the full event stream — the determinism
    /// witness two same-seed runs must agree on.
    pub events_fingerprint: u64,
    /// Total events in the stream.
    pub events_total: u64,
    /// Invariant violations (empty = clean).
    pub violations: Vec<InvariantViolation>,
    /// Peak simultaneously-open requests.
    pub max_open: usize,
    /// Final virtual clock reading.
    pub virtual_ns: u64,
}

/// Runs one scenario cell to quiescence and returns its outcome.
///
/// The driver is open-loop: arrivals stream from [`WorkloadGen`] (never
/// materialised) through the [`RouterSim`] event loop, responses are
/// dropped on arrival (terminal outcomes are observed through flight
/// records and events), flights fold into the router's SLO accumulator,
/// and the [`InvariantChecker`] rides the router's event observer — so
/// memory stays bounded regardless of request count.
///
/// # Panics
/// Panics if the router livelocks (fails to quiesce within the guard) —
/// impossible while every request carries a finite deadline, which
/// [`WorkloadGen`] enforces.
pub fn run_simtest(cfg: &SimtestConfig) -> SimtestOutcome {
    let (router_cfg, serve_cfg, vocab, scenes, queries) =
        sim_world(cfg.replicas, cfg.scenes, cfg.seed);
    let checker = Arc::new(Mutex::new(InvariantChecker::new(router_cfg.class_capacity)));
    let mut sim = RouterSim::new(router_cfg, serve_cfg, vocab, |_| SimModel);
    let router = sim.router_mut();
    // Soak posture: constant-memory events and flights; the fingerprint
    // covers the full stream regardless.
    router.set_event_tail(1024);
    router.stream_flights();
    let observer = Arc::clone(&checker);
    router.set_event_observer(Box::new(move |ev| {
        observer.lock().expect("invariant checker").on_event(ev)
    }));
    if let Some(spec) = &cfg.faults {
        let mut frng = SimRng::new(derive_seed(cfg.seed, 1));
        for (r, plan) in gen_fault_plans(spec, cfg.replicas, &mut frng)
            .into_iter()
            .enumerate()
        {
            router.set_fault_plan(r, plan);
        }
    }

    let spec = WorkloadSpec {
        requests: cfg.requests,
        mean_interarrival_ns: cfg.mean_interarrival_ns,
        load: cfg.load,
        scenes: cfg.scenes,
        queries: queries.len(),
        ..WorkloadSpec::default()
    };
    let arrivals = WorkloadGen::new(spec, derive_seed(cfg.seed, 0)).map(|a| (a.at_ns, a));
    let virtual_ns = sim.play(arrivals, |router, a| {
        checker.lock().expect("invariant checker").expect_submit(
            router.upcoming_seq(),
            a.at_ns.saturating_add(a.budget_ns),
            a.class,
        );
        let _ = router.submit_with_budget(
            &scenes[a.scene],
            &queries[a.query],
            a.class,
            Some(a.budget_ns),
        );
    });

    let router = sim.router();
    let stats = router.stats();
    let report = router.slo_report();
    let mut checker = checker.lock().expect("invariant checker");
    checker.finish(&stats, &report);
    SimtestOutcome {
        name: cfg.name.clone(),
        requests: cfg.requests,
        slo: report,
        stats,
        events_fingerprint: router.events_fingerprint(),
        events_total: router.events_total(),
        violations: checker.violations().to_vec(),
        max_open: checker.max_open(),
        virtual_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }

    #[test]
    fn workload_is_deterministic_sorted_and_skewed() {
        let spec = WorkloadSpec {
            requests: 5_000,
            ..WorkloadSpec::default()
        };
        let a: Vec<SimArrival> = WorkloadGen::new(spec.clone(), 7).collect();
        let b: Vec<SimArrival> = WorkloadGen::new(spec.clone(), 7).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5_000);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "sorted");
        assert!(a.iter().all(|x| x.budget_ns > 0));
        assert!(a
            .iter()
            .all(|x| x.scene < spec.scenes && x.query < spec.queries));
        // Zipf skew: the most popular scene beats a uniform share several
        // times over.
        let hot = a.iter().filter(|x| x.scene == 0).count();
        assert!(
            hot > 3 * a.len() / spec.scenes,
            "scene 0 got {hot} of {} — not skewed",
            a.len()
        );
        let c: Vec<SimArrival> = WorkloadGen::new(spec, 8).collect();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn bursty_load_raises_short_term_rate() {
        let period = 10_000_000;
        let spec = WorkloadSpec {
            requests: 20_000,
            load: LoadShape::Bursty {
                period_ns: period,
                burst_ns: period / 5,
                factor: 10,
            },
            ..WorkloadSpec::default()
        };
        let arrivals: Vec<SimArrival> = WorkloadGen::new(spec, 3).collect();
        let in_burst = arrivals
            .iter()
            .filter(|a| a.at_ns % period < period / 5)
            .count();
        // 20% of the time at 10x rate should collect well over half the
        // arrivals.
        assert!(
            in_burst > arrivals.len() / 2,
            "only {in_burst}/{} arrivals in burst windows",
            arrivals.len()
        );
    }

    #[test]
    fn fault_plans_leave_a_survivor() {
        let spec = FaultSpec::chaos(1_000_000_000, 10_000);
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let plans = gen_fault_plans(&spec, 4, &mut rng);
            assert_eq!(plans.len(), 4);
            let clean = plans
                .iter()
                .filter(|p| {
                    p.slow_factor() == 1.0
                        && !p.is_flapped_down(1)
                        && p.hung_until(0).is_none()
                        && p.hung_until(spec.horizon_ns / 2).is_none()
                })
                .count();
            assert!(clean >= 1, "seed {seed}: no survivor replica");
        }
    }

    #[test]
    fn small_fault_free_cell_is_clean_and_fully_available() {
        let cfg = SimtestConfig::cell("unit-steady", 2_000, 2, 11, LoadShape::Steady, None);
        let out = run_simtest(&cfg);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.stats.submitted, 2_000);
        assert!(out.slo.availability > 0.99, "{}", out.slo.availability);
        assert!(out.events_total > 0);
        assert!(out.max_open <= 64 + 128 + 64);
    }

    #[test]
    fn chaos_cell_is_clean_and_deterministic() {
        let mut cfg = SimtestConfig::cell("unit-chaos", 3_000, 3, 23, LoadShape::Steady, None);
        cfg.faults = Some(cfg.chaos());
        let a = run_simtest(&cfg);
        let b = run_simtest(&cfg);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.events_fingerprint, b.events_fingerprint);
        assert_eq!(a.events_total, b.events_total);
        assert_eq!(a.slo, b.slo);
        assert_eq!(a.stats, b.stats);
        // Chaos must actually have bitten something.
        assert!(
            a.stats.replica_failures > 0 || a.stats.deadline_exceeded > 0,
            "fault schedule had no effect: {:?}",
            a.stats
        );
    }

    #[test]
    fn invariant_checker_flags_planted_violations() {
        let mut c = InvariantChecker::new([1, 1, 1]);
        c.expect_submit(0, 1_000, Priority::Standard);
        c.on_event(&RouterEvent {
            at_ns: 500,
            seq: 0,
            kind: RouterEventKind::Routed {
                replica: 0,
                attempt: 1,
            },
        });
        // Answer after the deadline: violation.
        c.on_event(&RouterEvent {
            at_ns: 2_000,
            seq: 0,
            kind: RouterEventKind::Delivered {
                replica: 0,
                ok: true,
            },
        });
        assert!(!c.is_clean());
        assert!(c.violations()[0].what.contains("after deadline"));

        // A second terminal for the same seq: unknown-seq violation.
        let n = c.violations().len();
        c.on_event(&RouterEvent {
            at_ns: 2_100,
            seq: 0,
            kind: RouterEventKind::DeadlineExceeded,
        });
        assert!(c.violations().len() > n);

        // Time moving backwards: violation.
        let mut c = InvariantChecker::new([1, 1, 1]);
        c.expect_submit(0, u64::MAX, Priority::Bulk);
        c.on_event(&RouterEvent {
            at_ns: 100,
            seq: 0,
            kind: RouterEventKind::Routed {
                replica: 0,
                attempt: 1,
            },
        });
        c.on_event(&RouterEvent {
            at_ns: 50,
            seq: 0,
            kind: RouterEventKind::Delivered {
                replica: 0,
                ok: true,
            },
        });
        assert!(c.violations().iter().any(|v| v.what.contains("backwards")));

        // A stranded request surfaces at finish().
        let mut c = InvariantChecker::new([1, 1, 1]);
        c.expect_submit(7, 1_000, Priority::Interactive);
        c.finish(&RouterStats::default(), &SloReport::default());
        assert!(c.violations().iter().any(|v| v.what.contains("stranded")));
        // ...and so does its submission, which neither report counted.
        for report in ["stats", "slo"] {
            let says = format!("{report} says");
            assert!(c.violations().iter().any(|v| v.what.contains(&says)));
        }
    }
}
