//! `yollo-serve` — a dynamic-batching inference server for YOLLO.
//!
//! Visual grounding is one forward pass per request (the paper's whole
//! point), which makes serving throughput a batching problem: single
//! requests waste the batched forward pass, but waiting forever for a full
//! batch wastes latency. This crate implements the standard dynamic
//! batching compromise — flush at `max_batch` requests **or** after the
//! oldest request has waited `max_wait`, whichever comes first — plus the
//! operational trimmings a server needs:
//!
//! * **bounded admission**: at most `queue_capacity` requests in flight;
//!   beyond that, requests are shed with [`ServeError::Overloaded`] rather
//!   than queued without bound;
//! * **strict input validation**: queries longer than `max_tokens` are
//!   rejected ([`ServeError::QueryTooLong`]), never silently truncated;
//! * **response caching**: an [`LruCache`] keyed by
//!   [`yollo_core::RequestKey`] (scene content hash + normalised query)
//!   answers repeats without touching the model;
//! * **fault isolation**: a worker panic fails its batch with
//!   [`ServeError::WorkerFailed`] — every accepted request is answered
//!   exactly once, and the pool keeps serving.
//!
//! The scheduler reads time from a [`Clock`], so the exact flush schedule
//! is testable with a [`VirtualClock`] and no sleeps: [`ServerCore`] is
//! the deterministic single-threaded driver, and [`Server`] is the
//! threaded production pool on the same state machine.
//!
//! On top of single-server serving sits the **resilient router tier**: a
//! consistent-hash ring ([`HashRing`]) keeps each scene's traffic on one
//! replica, per-replica circuit breakers ([`HealthState`]) take failing
//! replicas out of rotation, and requests carry end-to-end deadlines with
//! jittered retries ([`RetryPolicy`]) and optional hedging. The tier is
//! **one policy, two drivers**: every routing decision, counter, span and
//! event comes from one sans-I/O router policy that takes events at an
//! explicit `now` and returns the next action. [`Router`] drives it on a
//! [`VirtualClock`] over [`ServerCore`] replicas with
//! [`yollo_core::ReplicaFaultPlan`] fault injection ([`RouterSim`] is its
//! event loop, and the one place arrival scripts are replayed, down to a
//! single replica); [`RouterServer`] drives it on threads over real
//! [`Server`] replicas.
//!
//! The whole tier is soak-tested by **deterministic simulation**
//! ([`run_simtest`] / [`SimtestConfig`]): seeded open-loop workloads and
//! randomized fault schedules drive millions of virtual-time requests
//! through [`RouterSim`]'s loop and a streaming invariant checker, and
//! identical seeds replay bit-identically (witnessed by the rolling event
//! fingerprint).
//!
//! ```no_run
//! use yollo_core::{Yollo, YolloConfig};
//! use yollo_serve::{ServeConfig, Server};
//! use yollo_synthref::{SceneBuilder, ShapeKind, ColorName};
//!
//! let cfg = YolloConfig::default();
//! let model = Yollo::new(cfg.clone(), 42);
//! let vocab = model.vocab().clone();
//! let server = Server::start(ServeConfig::for_model(&cfg), vocab, move || {
//!     Yollo::new(cfg.clone(), 42)
//! });
//! let scene = SceneBuilder::new(72, 48)
//!     .object(ShapeKind::Circle, ColorName::Red, 10.0, 10.0, 12.0, 12.0)
//!     .build();
//! let answer = server.submit(&scene, "the red circle").unwrap().wait();
//! println!("{:?}", answer.map(|p| p.bbox));
//! ```

mod batcher;
mod cache;
mod clock;
mod error;
mod events;
mod health;
mod policy;
mod retry;
mod ring;
mod router;
mod router_server;
mod server;
mod simtest;
mod slo;

pub use batcher::{Batch, BatchBoundary, Batcher, FlushReason};
pub use cache::LruCache;
pub use clock::{Clock, SystemClock, VirtualClock};
pub use error::ServeError;
pub use events::{EventLog, DEFAULT_EVENT_TAIL};
pub use health::{CircuitState, HealthConfig, HealthState};
pub use retry::{JitterRng, RetryPolicy};
pub use ring::HashRing;
pub use router::{
    EventObserver, FaultedModel, Priority, Router, RouterArrival, RouterConfig, RouterEvent,
    RouterEventKind, RouterReport, RouterSim, RouterStats, ServiceModel, NO_REQUEST,
};
pub use router_server::RouterServer;
pub use server::{
    GroundingModel, Response, ResponseMeta, ResponseSource, ServeConfig, ServeDtype, ServeResult,
    Server, ServerCore, YolloBackend,
};
pub use simtest::{
    derive_seed, run_simtest, sim_world, FaultSpec, InvariantChecker, InvariantViolation,
    LoadShape, SimArrival, SimModel, SimRng, SimtestConfig, SimtestOutcome, WorkloadGen,
    WorkloadSpec,
};
pub use slo::{
    reconcile_flights, validate_request_chains, ChainSummary, FlightOutcome, FlightRecord,
    Percentiles, SloAccumulator, SloReport,
};
