//! The serving engine: admission → dynamic batcher → model → responses.
//!
//! Two drivers share the same admission and batch-execution logic:
//!
//! * [`ServerCore`] — single-threaded and inline, driven by explicit
//!   [`ServerCore::tick`] calls against any [`Clock`]. This is the
//!   deterministic form used by the virtual-clock tests and by the
//!   router's replicas in [`crate::RouterSim`].
//! * [`Server`] — the production form: a worker pool blocking on a
//!   condvar, flushing batches as deadlines expire or batches fill.
//!
//! Every accepted request is answered exactly once — with a prediction, or
//! with [`ServeError::WorkerFailed`] if the worker processing its batch
//! panicked (the panic is caught; the pool keeps serving).

use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use yollo_core::{
    encode_query_strict, stack_images, GroundingPrediction, QuantizedYollo, RequestKey, Yollo,
    YolloConfig,
};
use yollo_obs::{alloc_child, alloc_root, counter, emit_span, histogram, TraceContext};
use yollo_synthref::Scene;
use yollo_tensor::Tensor;
use yollo_text::Vocab;

use crate::batcher::{Batch, BatchBoundary, Batcher};
use crate::cache::LruCache;
use crate::clock::{Clock, SystemClock};
use crate::error::ServeError;

/// The result of one grounding request.
pub type ServeResult = Result<GroundingPrediction, ServeError>;

/// Anything that can ground a padded batch. [`Yollo`] is the real
/// implementation; tests substitute deterministic or faulty stubs.
pub trait GroundingModel {
    /// Grounds `queries.len()` samples; `images` is `[B, C, H, W]`.
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction>;
}

impl GroundingModel for Yollo {
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction> {
        Yollo::predict_batch(self, images, queries)
    }
}

/// Numeric precision the serving backend runs the model at.
///
/// `F64` is the bitwise-reference path: the autodiff tape, identical to
/// training numerics. `F32` and `Int8` both run the tape-free flat NHWC
/// pass ([`yollo_core::QuantizedYollo`]): `F32` in its float mode, built
/// from the f64 weights at startup; `Int8` with calibrated INT8 GEMMs,
/// typically hot-loaded from a versioned model artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeDtype {
    /// Full-precision reference path (the tape).
    F64,
    /// The flat pass in float mode.
    F32,
    /// The flat pass with calibrated INT8 GEMMs.
    Int8,
}

impl ServeDtype {
    /// Parses `"f64"` / `"f32"` / `"int8"` (alias `"i8"`), case-insensitive.
    pub fn parse(s: &str) -> Option<ServeDtype> {
        match s.to_ascii_lowercase().as_str() {
            "f64" => Some(ServeDtype::F64),
            "f32" => Some(ServeDtype::F32),
            "int8" | "i8" => Some(ServeDtype::Int8),
            _ => None,
        }
    }

    /// The canonical lowercase name (`"f64"` / `"f32"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            ServeDtype::F64 => "f64",
            ServeDtype::F32 => "f32",
            ServeDtype::Int8 => "int8",
        }
    }
}

/// A [`Yollo`] model held at a serving precision. The [`GroundingModel`]
/// boundary stays `f64`: the flat pass takes the `f64` batch as is,
/// converting pixels to `f32` NHWC as it lays them out, and the
/// predictions come back as `f64` coordinates either way.
pub enum YolloBackend {
    /// The reference model on the tape, weights as trained.
    F64(Box<Yollo>),
    /// The tape-free flat pass, in float mode ([`ServeDtype::F32`]) or
    /// quantized ([`ServeDtype::Int8`]).
    Flat(Box<QuantizedYollo>),
}

impl YolloBackend {
    /// Wraps `model` at the requested precision. `F32` builds the flat
    /// pass once, up front ([`Yollo::fused`]), and never touches the tape.
    ///
    /// # Panics
    /// Panics for [`ServeDtype::Int8`]: a quantized backend needs a
    /// calibrated model — build one with [`YolloBackend::quantized`] or
    /// load an artifact via [`YolloBackend::from_artifact`].
    pub fn new(model: Yollo, dtype: ServeDtype) -> Self {
        match dtype {
            ServeDtype::F64 => YolloBackend::F64(Box::new(model)),
            ServeDtype::F32 => YolloBackend::quantized(model.fused()),
            ServeDtype::Int8 => panic!(
                "int8 backends need calibration: use YolloBackend::quantized or from_artifact"
            ),
        }
    }

    /// Wraps an already-calibrated quantized (or fused-float) model.
    pub fn quantized(model: QuantizedYollo) -> Self {
        YolloBackend::Flat(Box::new(model))
    }

    /// Hot-loads a quantized model from a versioned artifact file (the
    /// export of [`QuantizedYollo::export`]); validation is end-to-end
    /// (magic, version, CRC, per-tensor shapes).
    ///
    /// # Errors
    /// Typed [`yollo_core::ArtifactError`]s; corrupt files never panic.
    pub fn from_artifact(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, yollo_core::ArtifactError> {
        Ok(YolloBackend::quantized(QuantizedYollo::read(path)?))
    }

    /// The precision this backend runs at: a flat model reports `Int8`
    /// only once its GEMMs are quantized.
    pub fn dtype(&self) -> ServeDtype {
        match self {
            YolloBackend::F64(_) => ServeDtype::F64,
            YolloBackend::Flat(m) if m.is_quantized() => ServeDtype::Int8,
            YolloBackend::Flat(_) => ServeDtype::F32,
        }
    }
}

impl GroundingModel for YolloBackend {
    fn predict_batch(&self, images: Tensor, queries: &[Vec<usize>]) -> Vec<GroundingPrediction> {
        match self {
            YolloBackend::F64(m) => m.predict_batch(images, queries),
            YolloBackend::Flat(m) => m.predict_batch(images, queries),
        }
    }
}

/// Tunables of the serving stack.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush a partial batch once its oldest request has waited this long.
    pub max_wait_ns: u64,
    /// Maximum accepted-but-unanswered requests before shedding
    /// ([`ServeError::Overloaded`]).
    pub queue_capacity: usize,
    /// LRU response-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum query length in tokens; longer queries are rejected, never
    /// truncated.
    pub max_tokens: usize,
    /// Rendered scene channels.
    pub in_channels: usize,
    /// Expected scene width.
    pub image_width: usize,
    /// Expected scene height.
    pub image_height: usize,
    /// Worker threads in the [`Server`] pool (ignored by [`ServerCore`]).
    pub workers: usize,
    /// Per-request deadline, measured from admission: once it passes, the
    /// request is answered [`ServeError::DeadlineExceeded`] at batch
    /// formation instead of occupying a batch slot. 0 disables deadlines.
    pub default_deadline_ns: u64,
    /// Recycle (rebuild via the model factory) a [`Server`] worker's model
    /// after this many *consecutive* failed batches, so one poisoned model
    /// cannot fail every batch it takes. 0 disables recycling; ignored by
    /// [`ServerCore`].
    pub recycle_after: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let model = YolloConfig::default();
        ServeConfig {
            max_batch: 8,
            max_wait_ns: 2_000_000, // 2 ms
            queue_capacity: 64,
            cache_capacity: 128,
            max_tokens: model.max_query_len,
            in_channels: model.in_channels,
            image_width: model.image_width,
            image_height: model.image_height,
            workers: 2,
            default_deadline_ns: 0,
            recycle_after: 3,
        }
    }
}

impl ServeConfig {
    /// A config whose input contract (image size, channels, query length)
    /// matches `model`.
    pub fn for_model(model: &YolloConfig) -> Self {
        ServeConfig {
            max_tokens: model.max_query_len,
            in_channels: model.in_channels,
            image_width: model.image_width,
            image_height: model.image_height,
            ..ServeConfig::default()
        }
    }
}

/// Where a response came from, for per-request accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Answered from the response cache at admission.
    Cache,
    /// Answered by a worker running the request's batch.
    Batch,
    /// Answered at batch formation because the deadline passed.
    Expired,
    /// Answered by the router itself (degraded hit, router-side deadline,
    /// unavailability).
    Router,
}

/// Per-response accounting delivered alongside the result: which batch
/// served the request (0 = none) and how its latency splits into queue
/// wait vs model service, on the serving clock (deterministic under a
/// [`crate::VirtualClock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Where the answer came from.
    pub source: ResponseSource,
    /// The replica-local id of the batch that served the request, or 0
    /// when no batch ran ([`ResponseSource::Cache`] / `Expired` /
    /// `Router`).
    pub batch_id: u64,
    /// Time spent queued before the batch flushed (admission → flush).
    pub queue_ns: u64,
    /// Time spent in the model (flush → batch completion).
    pub service_ns: u64,
}

impl ResponseMeta {
    /// Meta for a response the caller answered itself, outside any batch.
    pub(crate) fn out_of_band(source: ResponseSource) -> Self {
        ResponseMeta {
            source,
            batch_id: 0,
            queue_ns: 0,
            service_ns: 0,
        }
    }
}

/// What travels on a response channel: the result plus its accounting.
pub(crate) struct Delivery {
    pub(crate) result: ServeResult,
    pub(crate) meta: ResponseMeta,
}

/// One admitted request travelling through the batcher.
struct Job {
    image: Vec<f64>,
    ids: Vec<usize>,
    key: RequestKey,
    tx: Sender<Delivery>,
    enqueued_ns: u64,
    deadline_ns: u64,
    /// Parent context for this job's queue/exec child spans: the request
    /// root for direct submits, the router's attempt span otherwise.
    ctx: TraceContext,
    /// Nonzero when the server owns the request's trace root (direct
    /// submits): the `serve.request` span is emitted at answer time.
    root: TraceContext,
    /// Admission time on the obs trace clock (real time, for span
    /// emission; `enqueued_ns` stays on the serving clock).
    enq_real_ns: u64,
}

/// A handle to one request's eventual result.
pub struct Response {
    rx: Receiver<Delivery>,
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Response { .. }")
    }
}

impl Response {
    /// Wraps a raw receiver (the router answers some requests itself —
    /// degraded cache hits, deadline expiries — through the same handle).
    pub(crate) fn from_rx(rx: Receiver<Delivery>) -> Self {
        Response { rx }
    }

    fn closed() -> Delivery {
        Delivery {
            result: Err(ServeError::WorkerFailed {
                detail: "response channel closed".to_owned(),
            }),
            meta: ResponseMeta::out_of_band(ResponseSource::Batch),
        }
    }

    /// Blocks until the result arrives.
    pub fn wait(self) -> ServeResult {
        self.wait_with_meta().0
    }

    /// Blocks until the result arrives; also returns its accounting.
    pub fn wait_with_meta(self) -> (ServeResult, ResponseMeta) {
        let d = self.rx.recv().unwrap_or_else(|_| Response::closed());
        (d.result, d.meta)
    }

    /// Blocks until the result arrives or `timeout` passes; `None` on
    /// timeout (the request stays in flight — the server will still answer
    /// into the abandoned channel).
    pub fn wait_for(&self, timeout: Duration) -> Option<ServeResult> {
        self.wait_for_with_meta(timeout).map(|(res, _)| res)
    }

    /// [`Response::wait_for`], also returning the accounting on arrival.
    pub fn wait_for_with_meta(&self, timeout: Duration) -> Option<(ServeResult, ResponseMeta)> {
        match self.rx.recv_timeout(timeout) {
            Ok(d) => Some((d.result, d.meta)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                let d = Response::closed();
                Some((d.result, d.meta))
            }
        }
    }

    /// The result if it is already available (cache hits are immediate).
    pub fn try_now(&self) -> Option<ServeResult> {
        self.try_now_with_meta().map(|(res, _)| res)
    }

    /// [`Response::try_now`], also returning the accounting.
    pub fn try_now_with_meta(&self) -> Option<(ServeResult, ResponseMeta)> {
        self.rx.try_recv().ok().map(|d| (d.result, d.meta))
    }
}

/// Mutable serving state shared by both drivers (and guarded by a mutex in
/// the threaded one).
struct ServeState {
    batcher: Batcher<Job>,
    cache: LruCache<RequestKey, GroundingPrediction>,
    inflight: usize,
    boundaries: Vec<BatchBoundary>,
    shutdown: bool,
}

impl ServeState {
    fn new(cfg: &ServeConfig) -> Self {
        ServeState {
            batcher: Batcher::new(cfg.max_batch, cfg.max_wait_ns),
            cache: LruCache::new(cfg.cache_capacity),
            inflight: 0,
            boundaries: Vec::new(),
            shutdown: false,
        }
    }
}

/// Emits the `serve.request` trace root for a request whose trace the
/// server owns (direct submits; router-owned requests get their root from
/// the router). No-op when `root` is [`TraceContext::NONE`].
fn emit_request_root(root: TraceContext, enq_real_ns: u64, args: &[(&'static str, u64)]) {
    if !root.is_none() {
        let now = yollo_obs::now_ns();
        emit_span(
            "serve.request",
            root,
            0,
            enq_real_ns,
            now.saturating_sub(enq_real_ns),
            args,
        );
    }
}

/// Validates and enqueues one request at time `now_ns`. On a cache hit the
/// response is already resolved and nothing is enqueued. `deadline_ns` is
/// the request's absolute expiry (`u64::MAX` = derive from the config's
/// `default_deadline_ns`, or no deadline if that is 0). `parent` is the
/// caller's trace context (the router's attempt span); when it is
/// [`TraceContext::NONE`] the server roots a fresh trace for the request.
#[allow(clippy::too_many_arguments)]
fn admit(
    cfg: &ServeConfig,
    vocab: &Vocab,
    state: &mut ServeState,
    now_ns: u64,
    scene: &Scene,
    query: &str,
    deadline_ns: u64,
    parent: TraceContext,
) -> Result<Response, ServeError> {
    counter!("serve.requests").incr();
    if state.shutdown {
        return Err(ServeError::ShuttingDown);
    }
    if (scene.width, scene.height) != (cfg.image_width, cfg.image_height) {
        return Err(ServeError::SceneMismatch {
            got: (scene.width, scene.height),
            want: (cfg.image_width, cfg.image_height),
        });
    }
    let ids = encode_query_strict(vocab, query, cfg.max_tokens)?;
    let enq_real_ns = yollo_obs::now_ns();
    let root = if parent.is_none() {
        alloc_root()
    } else {
        TraceContext::NONE
    };
    let ctx = if root.is_none() { parent } else { root };
    let key = RequestKey::new(scene, query);
    let (tx, rx) = channel();
    if let Some(pred) = state.cache.get(&key) {
        counter!("serve.cache.hits").incr();
        counter!("serve.responses").incr();
        let _ = tx.send(Delivery {
            result: Ok(pred.clone()),
            meta: ResponseMeta::out_of_band(ResponseSource::Cache),
        });
        emit_request_root(root, enq_real_ns, &[("cache", 1)]);
        return Ok(Response { rx });
    }
    counter!("serve.cache.misses").incr();
    if state.inflight >= cfg.queue_capacity {
        counter!("serve.shed").incr();
        return Err(ServeError::Overloaded {
            inflight: state.inflight,
            capacity: cfg.queue_capacity,
        });
    }
    state.inflight += 1;
    let deadline_ns = if deadline_ns != u64::MAX {
        deadline_ns
    } else if cfg.default_deadline_ns > 0 {
        now_ns.saturating_add(cfg.default_deadline_ns)
    } else {
        u64::MAX
    };
    let image = scene.render().into_vec();
    state.batcher.push_with_deadline(
        Job {
            image,
            ids,
            key,
            tx,
            enqueued_ns: now_ns,
            deadline_ns,
            ctx,
            root,
            enq_real_ns,
        },
        now_ns,
        deadline_ns,
    );
    Ok(Response { rx })
}

/// Answers every queued job whose deadline has passed with
/// [`ServeError::DeadlineExceeded`], freeing its queue slot. Returns how
/// many expired.
fn expire_jobs(state: &mut ServeState, now_ns: u64) -> usize {
    let expired = state.batcher.take_expired(now_ns);
    let n = expired.len();
    for job in expired {
        counter!("serve.deadline_exceeded").incr();
        counter!("serve.responses").incr();
        state.inflight -= 1;
        let waited_ns = now_ns.saturating_sub(job.enqueued_ns);
        emit_request_root(job.root, job.enq_real_ns, &[("expired", 1)]);
        let _ = job.tx.send(Delivery {
            result: Err(ServeError::DeadlineExceeded {
                waited_ns,
                deadline_ns: job.deadline_ns,
            }),
            meta: ResponseMeta {
                source: ResponseSource::Expired,
                batch_id: 0,
                queue_ns: waited_ns,
                service_ns: 0,
            },
        });
    }
    n
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_owned()
    }
}

/// What running one batch produced: the answer for every job, plus the
/// cache entries to insert (empty when the worker failed — failures are
/// never cached).
struct BatchOutcome {
    responses: Vec<(Sender<Delivery>, Delivery)>,
    inserts: Vec<(RequestKey, GroundingPrediction)>,
    size: usize,
    failed: bool,
}

impl BatchOutcome {
    /// Delivers every response. Call only after the serving state
    /// (inflight count, cache) reflects this batch, so that a client
    /// observing its answer also observes the freed queue slot.
    fn deliver(self) {
        for (tx, delivery) in self.responses {
            counter!("serve.responses").incr();
            let _ = tx.send(delivery);
        }
    }
}

/// Emits the per-job `serve.queued` / `serve.exec` child spans under the
/// job's context, covering admission → flush and flush → completion on
/// the obs trace clock.
fn emit_job_spans(job: &Job, batch_id: u64, flush_real_ns: u64, finish_real_ns: u64) {
    if job.ctx.is_none() {
        return;
    }
    let queued = alloc_child(job.ctx);
    emit_span(
        "serve.queued",
        queued,
        job.ctx.span,
        job.enq_real_ns,
        flush_real_ns.saturating_sub(job.enq_real_ns),
        &[("batch", batch_id)],
    );
    let exec = alloc_child(job.ctx);
    emit_span(
        "serve.exec",
        exec,
        job.ctx.span,
        flush_real_ns,
        finish_real_ns.saturating_sub(flush_real_ns),
        &[("batch", batch_id)],
    );
}

/// Runs the model on a flushed batch. The caller applies the outcome to
/// the serving state and then delivers the responses.
fn run_batch<M: GroundingModel + ?Sized>(
    model: &M,
    cfg: &ServeConfig,
    clock: &dyn Clock,
    batch: Batch<Job>,
) -> BatchOutcome {
    counter!("serve.batches").incr();
    histogram!("serve.batch_size").record(batch.items.len() as u64);
    let _span = yollo_obs::span!("serve.batch")
        .with_arg("batch", batch.id)
        .with_arg("size", batch.items.len() as u64);
    let started = clock.now_ns();
    let flush_real = yollo_obs::now_ns();
    let batch_id = batch.id;
    let flushed_at = batch.flushed_at_ns;
    let mut jobs = batch.items;
    let rows: Vec<Vec<f64>> = jobs.iter_mut().map(|j| mem::take(&mut j.image)).collect();
    let images = stack_images(&rows, cfg.in_channels, cfg.image_height, cfg.image_width);
    let queries: Vec<Vec<usize>> = jobs.iter().map(|j| j.ids.clone()).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| model.predict_batch(images, &queries)));
    let finished = clock.now_ns();
    let finish_real = yollo_obs::now_ns();
    histogram!("serve.batch_ns").record(finished.saturating_sub(started));
    let size = jobs.len();
    let service_ns = finished.saturating_sub(flushed_at);
    for job in &jobs {
        histogram!("serve.request_ns").record(finished.saturating_sub(job.enqueued_ns));
        histogram!("serve.queue_ns").record(flushed_at.saturating_sub(job.enqueued_ns));
        histogram!("serve.service_ns").record(service_ns);
        emit_job_spans(job, batch_id, flush_real, finish_real);
    }
    let meta_of = |job: &Job| ResponseMeta {
        source: ResponseSource::Batch,
        batch_id,
        queue_ns: flushed_at.saturating_sub(job.enqueued_ns),
        service_ns,
    };
    let detail = match outcome {
        Ok(preds) if preds.len() == jobs.len() => {
            let mut responses = Vec::with_capacity(size);
            let mut inserts = Vec::with_capacity(size);
            for (job, pred) in jobs.into_iter().zip(preds) {
                let meta = meta_of(&job);
                emit_request_root(job.root, job.enq_real_ns, &[("batch", batch_id)]);
                inserts.push((job.key, pred.clone()));
                responses.push((
                    job.tx,
                    Delivery {
                        result: Ok(pred),
                        meta,
                    },
                ));
            }
            return BatchOutcome {
                responses,
                inserts,
                size,
                failed: false,
            };
        }
        Ok(preds) => format!(
            "model returned {} predictions for {} requests",
            preds.len(),
            jobs.len()
        ),
        Err(payload) => panic_message(payload),
    };
    counter!("serve.worker_panics").incr();
    let responses = jobs
        .into_iter()
        .map(|job| {
            let meta = meta_of(&job);
            emit_request_root(
                job.root,
                job.enq_real_ns,
                &[("batch", batch_id), ("failed", 1)],
            );
            let err = ServeError::WorkerFailed {
                detail: detail.clone(),
            };
            (
                job.tx,
                Delivery {
                    result: Err(err),
                    meta,
                },
            )
        })
        .collect();
    BatchOutcome {
        responses,
        inserts: Vec::new(),
        size,
        failed: true,
    }
}

/// The deterministic, single-threaded serving engine.
///
/// Nothing happens between calls: [`ServerCore::submit`] only admits and
/// enqueues, [`ServerCore::tick`] flushes and executes whatever batches are
/// due at the current clock reading. With a [`crate::VirtualClock`] the
/// whole flush schedule is an exact function of the submitted arrival
/// script — run it twice, get identical [`BatchBoundary`] sequences.
pub struct ServerCore<M: GroundingModel> {
    model: M,
    vocab: Vocab,
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
    state: ServeState,
}

impl<M: GroundingModel> ServerCore<M> {
    /// A core on the system clock.
    pub fn new(model: M, vocab: Vocab, cfg: ServeConfig) -> Self {
        ServerCore::with_clock(model, vocab, cfg, Arc::new(SystemClock::new()))
    }

    /// A core on an explicit clock — the test and router entry point.
    pub fn with_clock(model: M, vocab: Vocab, cfg: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        let state = ServeState::new(&cfg);
        ServerCore {
            model,
            vocab,
            cfg,
            clock,
            state,
        }
    }

    /// Admits one request at the current clock reading; nothing runs
    /// until the next [`ServerCore::tick`].
    pub fn submit(&mut self, scene: &Scene, query: &str) -> Result<Response, ServeError> {
        self.submit_with_deadline(scene, query, u64::MAX)
    }

    /// Admits one request that expires at the absolute time `deadline_ns`
    /// (on this core's clock); `u64::MAX` falls back to the config's
    /// `default_deadline_ns`. The router uses this to propagate one
    /// end-to-end deadline through retries on different replicas.
    pub fn submit_with_deadline(
        &mut self,
        scene: &Scene,
        query: &str,
        deadline_ns: u64,
    ) -> Result<Response, ServeError> {
        self.submit_traced(scene, query, deadline_ns, TraceContext::NONE)
    }

    /// [`ServerCore::submit_with_deadline`] under an explicit trace
    /// context: the request's queue and execution spans become children of
    /// `parent` (the router's attempt span) instead of rooting a fresh
    /// trace.
    pub fn submit_traced(
        &mut self,
        scene: &Scene,
        query: &str,
        deadline_ns: u64,
        parent: TraceContext,
    ) -> Result<Response, ServeError> {
        let now = self.clock.now_ns();
        admit(
            &self.cfg,
            &self.vocab,
            &mut self.state,
            now,
            scene,
            query,
            deadline_ns,
            parent,
        )
    }

    /// Answers every queued request whose deadline has passed
    /// ([`ServeError::DeadlineExceeded`]) without letting it occupy a batch
    /// slot. Returns how many expired. [`ServerCore::tick`] calls this
    /// automatically; it is public for drivers that interleave their own
    /// scheduling (the router).
    pub fn expire(&mut self) -> usize {
        let now = self.clock.now_ns();
        expire_jobs(&mut self.state, now)
    }

    /// Flushes and executes every batch due at the current clock reading.
    /// Returns how many batches ran.
    pub fn tick(&mut self) -> usize {
        let mut ran = 0;
        while self.tick_one() > 0 {
            ran += 1;
        }
        ran
    }

    /// Expires overdue requests, then flushes and executes **at most one**
    /// due batch. Returns how many batches ran (0 or 1). The router uses
    /// this to charge per-batch service time between batches.
    pub fn tick_one(&mut self) -> usize {
        let now = self.clock.now_ns();
        expire_jobs(&mut self.state, now);
        match self.state.batcher.poll(now) {
            Some(batch) => {
                self.finish(batch);
                1
            }
            None => 0,
        }
    }

    /// Forces out all pending requests regardless of deadlines (drain /
    /// shutdown); already-expired requests are still answered
    /// `DeadlineExceeded` rather than fed to the model. Returns how many
    /// batches ran.
    pub fn drain(&mut self) -> usize {
        let mut ran = 0;
        let now = self.clock.now_ns();
        expire_jobs(&mut self.state, now);
        while let Some(batch) = self.state.batcher.flush_all(now) {
            self.finish(batch);
            ran += 1;
        }
        ran
    }

    /// Looks up the response cache without admitting anything (the router's
    /// cache-only degraded mode when every replica is unhealthy). A hit
    /// bumps recency, exactly like an admitted hit.
    pub fn cache_lookup(&mut self, scene: &Scene, query: &str) -> Option<GroundingPrediction> {
        let key = RequestKey::new(scene, query);
        self.state.cache.get(&key).cloned()
    }

    fn finish(&mut self, batch: Batch<Job>) {
        let size = batch.items.len();
        self.state.boundaries.push(BatchBoundary {
            at_ns: batch.flushed_at_ns,
            size,
            reason: batch.reason,
            batch_id: batch.id,
        });
        let mut outcome = run_batch(&self.model, &self.cfg, self.clock.as_ref(), batch);
        for (k, v) in mem::take(&mut outcome.inserts) {
            self.state.cache.insert(k, v);
        }
        self.state.inflight -= size;
        outcome.deliver();
    }

    /// Every flush so far, in order — the determinism fingerprint.
    pub fn boundaries(&self) -> &[BatchBoundary] {
        &self.state.boundaries
    }

    /// Accepted-but-unanswered requests.
    pub fn inflight(&self) -> usize {
        self.state.inflight
    }

    /// When the oldest pending request must flush, if anything is pending.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.state.batcher.next_deadline_ns()
    }

    /// Entries currently held by the response cache.
    pub fn cache_len(&self) -> usize {
        self.state.cache.len()
    }
}

struct Shared {
    cfg: ServeConfig,
    vocab: Vocab,
    clock: SystemClock,
    state: Mutex<ServeState>,
    cond: Condvar,
}

/// The threaded production server: a pool of workers each owning its own
/// model instance (models are not `Send`, so each worker builds one from
/// the factory on its own thread).
///
/// Dropping the server shuts it down: pending requests are force-flushed
/// and answered, then the workers exit.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` workers on the system clock. `factory` is
    /// called once per worker thread to build that worker's model.
    pub fn start<M, F>(cfg: ServeConfig, vocab: Vocab, factory: F) -> Self
    where
        M: GroundingModel,
        F: Fn() -> M + Send + Sync + 'static,
    {
        let n = cfg.workers.max(1);
        let state = ServeState::new(&cfg);
        let shared = Arc::new(Shared {
            cfg,
            vocab,
            clock: SystemClock::new(),
            state: Mutex::new(state),
            cond: Condvar::new(),
        });
        let factory = Arc::new(factory);
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let factory = Arc::clone(&factory);
                thread::Builder::new()
                    .name(format!("yollo-serve-{i}"))
                    .spawn(move || worker_loop(&shared, factory.as_ref()))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Admits one request; the worker pool answers it asynchronously.
    pub fn submit(&self, scene: &Scene, query: &str) -> Result<Response, ServeError> {
        self.submit_traced(scene, query, TraceContext::NONE)
    }

    /// [`Server::submit`] under an explicit trace context (the router's
    /// attempt span); [`TraceContext::NONE`] roots a fresh trace.
    pub fn submit_traced(
        &self,
        scene: &Scene,
        query: &str,
        parent: TraceContext,
    ) -> Result<Response, ServeError> {
        let now = self.shared.clock.now_ns();
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        let resp = admit(
            &self.shared.cfg,
            &self.shared.vocab,
            &mut st,
            now,
            scene,
            query,
            u64::MAX,
            parent,
        )?;
        drop(st);
        self.shared.cond.notify_one();
        Ok(resp)
    }

    /// Looks up the response cache without admitting anything (the
    /// router's cache-only degraded mode), like
    /// [`ServerCore::cache_lookup`].
    pub fn cache_lookup(&self, scene: &Scene, query: &str) -> Option<GroundingPrediction> {
        let key = RequestKey::new(scene, query);
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        st.cache.get(&key).cloned()
    }

    /// Accepted-but-unanswered requests right now.
    pub fn inflight(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .inflight
    }

    /// Every flush so far, in order.
    pub fn boundaries(&self) -> Vec<BatchBoundary> {
        self.shared
            .state
            .lock()
            .expect("serve state poisoned")
            .boundaries
            .clone()
    }

    /// Stops accepting requests, force-flushes the queue (every pending
    /// request is still answered) and joins the workers.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("serve state poisoned");
            st.shutdown = true;
        }
        self.shared.cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<M, F>(shared: &Shared, factory: &F)
where
    M: GroundingModel,
    F: Fn() -> M,
{
    // Cap timed waits so a worker re-reads the clock at least every
    // millisecond, whatever deadline it is waiting for.
    const MAX_WAIT: Duration = Duration::from_millis(1);
    let mut model = factory();
    let mut consecutive_failures = 0usize;
    let mut st = shared.state.lock().expect("serve state poisoned");
    loop {
        let now = shared.clock.now_ns();
        expire_jobs(&mut st, now);
        let due = st.batcher.poll(now).or_else(|| {
            if st.shutdown {
                st.batcher.flush_all(now)
            } else {
                None
            }
        });
        if let Some(batch) = due {
            st.boundaries.push(BatchBoundary {
                at_ns: batch.flushed_at_ns,
                size: batch.items.len(),
                reason: batch.reason,
                batch_id: batch.id,
            });
            drop(st);
            let mut outcome = run_batch(&model, &shared.cfg, &shared.clock, batch);
            if outcome.failed {
                consecutive_failures += 1;
                histogram!("serve.worker.consecutive_failures").record(consecutive_failures as u64);
                // A model that poisons every batch it takes is replaced
                // rather than left to fail forever: rebuild it from the
                // factory once the streak reaches the configured limit.
                if shared.cfg.recycle_after > 0 && consecutive_failures >= shared.cfg.recycle_after
                {
                    counter!("serve.worker_recycles").incr();
                    model = factory();
                    consecutive_failures = 0;
                }
            } else if outcome.size > 0 {
                consecutive_failures = 0;
            }
            // More work may have queued while the model ran.
            shared.cond.notify_one();
            st = shared.state.lock().expect("serve state poisoned");
            for (k, v) in mem::take(&mut outcome.inserts) {
                st.cache.insert(k, v);
            }
            st.inflight -= outcome.size;
            drop(st);
            // State reflects the batch before anyone sees an answer.
            outcome.deliver();
            st = shared.state.lock().expect("serve state poisoned");
            continue;
        }
        if st.shutdown {
            return;
        }
        st = match st.batcher.next_deadline_ns() {
            None => shared.cond.wait(st).expect("serve state poisoned"),
            Some(deadline) => {
                let remaining = Duration::from_nanos(deadline.saturating_sub(now).max(1));
                shared
                    .cond
                    .wait_timeout(st, remaining.min(MAX_WAIT))
                    .expect("serve state poisoned")
                    .0
            }
        };
    }
}
