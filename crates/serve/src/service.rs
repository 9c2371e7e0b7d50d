//! The worker pool itself: [`ServeEngine`] owns N threads that pull
//! `(corpus, query)` jobs off a shared [`Queue`](crate::queue::Queue),
//! resolve the document through a snapshot LRU keyed on content stamps,
//! resolve the compiled query through a `(query, doc_stamp)` LRU, and
//! evaluate under the request's [`Budget`] — anchored at submission
//! time, so queueing delay counts against the deadline.
//!
//! # Fault tolerance
//!
//! The pool is built so that one bad request cannot take the service
//! down, and overload degrades loudly instead of silently:
//!
//! * **Panic isolation** — evaluation runs inside `catch_unwind`; a
//!   panicking request surfaces as [`ServeError::WorkerPanicked`] on
//!   its own ticket, the worker rebuilds its engine (post-unwind state
//!   is suspect) and keeps serving.  A panic that escapes the fence
//!   kills the thread, but a respawn sentry replaces it, so queued
//!   requests never hang on a shrunken pool.
//! * **Admission control** — the queue is bounded
//!   ([`ServeBuilder::queue_capacity`]); a full queue fast-rejects with
//!   [`ServeError::Overloaded`] on the ticket rather than stretching
//!   every deadline in line.  [`ServeEngine::query_with_retry`] layers
//!   deterministic exponential backoff on top for callers that prefer
//!   to wait out a burst.
//! * **Quarantine** — a snapshot that fails validation (bad magic,
//!   checksum mismatch, truncation) is renamed aside to `*.corrupt` via
//!   [`quarantine_snapshot`](minctx_core::quarantine_snapshot), so a
//!   corrupt file is inspected once, not re-read on every request.

use crate::chaos;
use crate::live::LiveCount;
use crate::queue::{PushError, Queue};
use crate::shard::ShardedLru;
use minctx_core::{
    open_snapshot_or_quarantine, quarantine_snapshot, snapshot_stamp, Budget, CompiledQuery,
    Context, Engine, EvalError, Exhausted, SnapshotError, Strategy, Value,
};
use minctx_obs::{Counter, Histogram, Phase, Recorder, Registry};
use minctx_syntax::parse_xpath;
use minctx_xml::Document;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What a request evaluates against: a persistent snapshot on disk
/// (mapped once per content stamp, shared by every worker) or an
/// already-parsed document the caller holds.
#[derive(Debug, Clone)]
pub enum Corpus {
    /// Path to a snapshot written by
    /// [`write_snapshot`](minctx_core::write_snapshot).  The service
    /// peeks only the 104-byte header per request (to learn the content
    /// stamp) and maps the full file once per distinct stamp.
    Snapshot(PathBuf),
    /// A parsed document shared by reference; zero per-request I/O.
    Document(Arc<Document>),
}

/// What a [`Ticket`] can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The evaluation itself failed (parse error, snapshot error,
    /// [`EvalError::BudgetExhausted`], ...).
    Eval(EvalError),
    /// The worker thread panicked while serving *this* request.  The
    /// panic was contained: the worker rebuilt its engine and the pool
    /// is healthy — only this request is lost.  Retryable.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request was shed at admission: the queue already held
    /// `capacity` jobs.  Nothing was enqueued; the service never saw
    /// the request.  Retryable after backoff.
    Overloaded {
        /// The queue capacity the request bounced off.
        capacity: usize,
    },
    /// The service shut down before answering — the engine was dropped
    /// while this request was queued.
    Disconnected,
}

impl ServeError {
    /// Whether resubmitting the same request can plausibly succeed:
    /// admission-control sheds, contained worker panics, and deadline
    /// exhaustion (a fresh submission re-anchors the deadline clock).
    /// Fuel exhaustion is deterministic and `Disconnected` is final, so
    /// neither is retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::WorkerPanicked { .. }
                | ServeError::Eval(EvalError::BudgetExhausted {
                    cause: Exhausted::Deadline,
                })
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Eval(e) => write!(f, "{e}"),
            ServeError::WorkerPanicked { message } => {
                write!(f, "worker panicked while serving this request: {message}")
            }
            ServeError::Overloaded { capacity } => {
                write!(f, "request shed: queue full at capacity {capacity}")
            }
            ServeError::Disconnected => write!(f, "service shut down before answering"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for ServeError {
    fn from(e: EvalError) -> ServeError {
        ServeError::Eval(e)
    }
}

/// Deterministic exponential backoff for [`ServeEngine::query_with_retry`]:
/// retry `r` (zero-based) sleeps `min(base_delay · 2^r, max_delay)`.
/// No jitter — retry schedules stay reproducible in tests and chaos
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 5 ms base, 100 ms cap.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Total attempts including the first (clamped to at least 1).
    pub fn attempts(mut self, n: u32) -> RetryPolicy {
        self.attempts = n.max(1);
        self
    }

    /// Sleep before the first retry; doubles per retry.
    pub fn base_delay(mut self, d: Duration) -> RetryPolicy {
        self.base_delay = d;
        self
    }

    /// Upper bound on any single sleep.
    pub fn max_delay(mut self, d: Duration) -> RetryPolicy {
        self.max_delay = d;
        self
    }

    /// The sleep taken before zero-based retry `retry`.
    pub fn delay_before(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(20);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// The reply handle for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Value, ServeError>>,
}

impl Ticket {
    /// Blocks until the worker pool answers.
    pub fn wait(self) -> Result<Value, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(mpsc::RecvError) => Err(ServeError::Disconnected),
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Value, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }

    /// Blocks at most `timeout`; `None` if the request is still in
    /// flight when it elapses (the ticket remains usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Value, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

struct Job {
    corpus: Corpus,
    query: Arc<str>,
    budget: Budget,
    /// Submission instant — deadlines are anchored here, so time spent
    /// waiting in the queue counts against the request's budget.
    submitted: Instant,
    reply: mpsc::Sender<Result<Value, ServeError>>,
}

/// Monotone service counters, readable while the pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    pub requests: u64,
    pub query_hits: u64,
    pub query_misses: u64,
    pub snapshot_hits: u64,
    pub snapshot_misses: u64,
    /// Requests fast-rejected at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Panics contained by the evaluation fence
    /// ([`ServeError::WorkerPanicked`] tickets).
    pub panics: u64,
    /// Worker threads replaced after a panic escaped the fence.
    pub worker_respawns: u64,
    /// High-watermark queue depth observed at admission.
    pub max_queue_depth: u64,
    /// High-watermark queue wait (submission → worker pickup).
    pub max_queue_wait: Duration,
    /// Median queue wait, from the `serve/queue_wait_us` histogram
    /// (bucketed — exact to ~3%; [`Duration::ZERO`] before any pickup).
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait, same source and precision.
    pub queue_wait_p99: Duration,
}

/// Per-engine metrics: every counter and histogram is a handle into the
/// engine's *private* [`Registry`] (not the process-global one — two
/// pools in one process must not mix their numbers), rendered by
/// [`ServeEngine::metrics_text`].  The two high-watermark atomics stay
/// exact alongside the bucketed histograms.
struct Metrics {
    registry: Registry,
    requests: Counter,
    query_hits: Counter,
    query_misses: Counter,
    snapshot_hits: Counter,
    snapshot_misses: Counter,
    shed: Counter,
    panics: Counter,
    worker_respawns: Counter,
    /// Queue depth observed at each admission.
    queue_depth: Histogram,
    /// Submission → worker-pickup wait, in microseconds.
    queue_wait_us: Histogram,
    /// Submission → reply latency in microseconds, split by outcome.
    latency_ok_us: Histogram,
    latency_error_us: Histogram,
    latency_budget_us: Histogram,
    latency_panic_us: Histogram,
    latency_shed_us: Histogram,
    max_queue_depth: AtomicU64,
    max_queue_wait_micros: AtomicU64,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        Metrics {
            requests: registry.counter("serve/requests"),
            query_hits: registry.counter("serve/query_hits"),
            query_misses: registry.counter("serve/query_misses"),
            snapshot_hits: registry.counter("serve/snapshot_hits"),
            snapshot_misses: registry.counter("serve/snapshot_misses"),
            shed: registry.counter("serve/shed"),
            panics: registry.counter("serve/panics"),
            worker_respawns: registry.counter("serve/worker_respawns"),
            queue_depth: registry.histogram("serve/queue_depth"),
            queue_wait_us: registry.histogram("serve/queue_wait_us"),
            latency_ok_us: registry.histogram("serve/latency_ok_us"),
            latency_error_us: registry.histogram("serve/latency_error_us"),
            latency_budget_us: registry.histogram("serve/latency_budget_exhausted_us"),
            latency_panic_us: registry.histogram("serve/latency_panic_us"),
            latency_shed_us: registry.histogram("serve/latency_shed_us"),
            max_queue_depth: AtomicU64::new(0),
            max_queue_wait_micros: AtomicU64::new(0),
            registry,
        }
    }

    /// The per-outcome latency histogram a finished request records into.
    fn latency_for(&self, reply: &Result<Value, ServeError>) -> &Histogram {
        match reply {
            Ok(_) => &self.latency_ok_us,
            Err(ServeError::Eval(EvalError::BudgetExhausted { .. })) => &self.latency_budget_us,
            Err(ServeError::Eval(_)) => &self.latency_error_us,
            Err(ServeError::WorkerPanicked { .. }) => &self.latency_panic_us,
            Err(ServeError::Overloaded { .. }) => &self.latency_shed_us,
            Err(ServeError::Disconnected) => &self.latency_error_us,
        }
    }
}

/// State every worker shares.
struct Shared {
    queue: Queue<Job>,
    /// Mapped snapshots keyed by content stamp: the stamp is derived
    /// from document content (with the snapshot bit set), so two paths
    /// to the same bytes share one mapping, and a rewritten file is
    /// re-mapped under its new stamp — no mtime heuristics.
    snapshots: ShardedLru<u64, Arc<Document>>,
    /// Compiled queries keyed by `(query text, doc stamp)`: compilation
    /// bakes in document name-codes, so the same XPath against a
    /// different document is a different entry.
    queries: ShardedLru<(Arc<str>, u64), Arc<CompiledQuery>>,
    metrics: Metrics,
    /// Request-lifecycle recorder ([`ServeBuilder::request_log`]): one
    /// [`Phase::Serve`] span per served request.  Disabled by default.
    recorder: Recorder,
    /// Threads currently in a worker loop — originals and respawns
    /// alike.  [`ServeEngine::drop`] spins this to zero so no worker
    /// (not even an unjoined respawn) outlives the engine's teardown
    /// accounting.  The handoff protocol lives in [`LiveCount`].
    live_workers: LiveCount,
}

/// Configuration for a [`ServeEngine`]; `ServeEngine::builder()` is the
/// entry point, [`build`](ServeBuilder::build) spawns the pool.
#[derive(Debug, Clone)]
pub struct ServeBuilder {
    workers: usize,
    strategy: Strategy,
    optimize: Option<bool>,
    threads: usize,
    snapshot_cache_capacity: usize,
    query_cache_capacity: usize,
    shards: usize,
    default_budget: Budget,
    queue_capacity: usize,
    recorder: Recorder,
}

impl Default for ServeBuilder {
    fn default() -> ServeBuilder {
        ServeBuilder {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            strategy: Strategy::OptMinContext,
            optimize: None,
            threads: 1,
            snapshot_cache_capacity: 8,
            query_cache_capacity: 256,
            shards: 8,
            default_budget: Budget::UNLIMITED,
            queue_capacity: 1024,
            recorder: Recorder::disabled(),
        }
    }
}

impl ServeBuilder {
    /// Worker thread count (default: `min(4, available_parallelism)`).
    pub fn workers(mut self, n: usize) -> ServeBuilder {
        self.workers = n.max(1);
        self
    }

    /// Evaluation strategy for every worker (default: `OptMinContext`).
    pub fn strategy(mut self, s: Strategy) -> ServeBuilder {
        self.strategy = s;
        self
    }

    /// Force the rewrite pipeline on or off (default: the engine's own
    /// default, which honors `MINCTX_NO_OPTIMIZER`).
    pub fn optimizer(mut self, on: bool) -> ServeBuilder {
        self.optimize = Some(on);
        self
    }

    /// Intra-query data-parallel threads per worker engine (default 1 —
    /// purely sequential, the pre-existing path).  Values above 1 give
    /// each worker's engine a [`Engine::with_threads`] pool, so the large
    /// scans inside the axis kernels are cut into ranges across that many
    /// threads; total thread pressure is roughly `workers × threads`,
    /// so raise this only when workers are few and documents are large.
    pub fn threads(mut self, n: usize) -> ServeBuilder {
        self.threads = n.max(1);
        self
    }

    /// Distinct mapped snapshots kept resident (default 8).
    pub fn snapshot_cache_capacity(mut self, n: usize) -> ServeBuilder {
        self.snapshot_cache_capacity = n.max(1);
        self
    }

    /// Distinct `(query, document)` compilations kept resident
    /// (default 256).
    pub fn query_cache_capacity(mut self, n: usize) -> ServeBuilder {
        self.query_cache_capacity = n.max(1);
        self
    }

    /// Lock shards per cache (default 8).  A cache too small to give
    /// every shard two entries uses fewer (see [`ShardedLru::new`]): the
    /// default 8-snapshot cache runs on 4.
    pub fn shards(mut self, n: usize) -> ServeBuilder {
        self.shards = n.max(1);
        self
    }

    /// Budget applied to requests submitted via
    /// [`ServeEngine::query`]; per-request budgets override it.
    pub fn default_budget(mut self, b: Budget) -> ServeBuilder {
        self.default_budget = b;
        self
    }

    /// Admission-control bound: requests beyond this many queued jobs
    /// are fast-rejected with [`ServeError::Overloaded`] (default 1024,
    /// clamped to at least 1).
    pub fn queue_capacity(mut self, n: usize) -> ServeBuilder {
        self.queue_capacity = n.max(1);
        self
    }

    /// Attaches a request-log [`Recorder`]: every served request emits
    /// one [`Phase::Serve`] span (query text, outcome, queue wait, fuel
    /// budget) into the recorder's sink.  Pair with
    /// [`minctx_obs::JsonLinesSink`] (optionally
    /// [`with_sampling`](minctx_obs::JsonLinesSink::with_sampling)) for
    /// a sampled JSON-lines request log.  Default: disabled, near-free.
    pub fn request_log(mut self, recorder: Recorder) -> ServeBuilder {
        self.recorder = recorder;
        self
    }

    /// Spawns the worker pool.
    pub fn build(self) -> ServeEngine {
        let shared = Arc::new(Shared {
            queue: Queue::bounded(self.queue_capacity),
            snapshots: ShardedLru::new(self.snapshot_cache_capacity, self.shards),
            queries: ShardedLru::new(self.query_cache_capacity, self.shards),
            metrics: Metrics::new(),
            recorder: self.recorder,
            live_workers: LiveCount::new(),
        });
        let cfg = WorkerConfig {
            strategy: self.strategy,
            optimize: self.optimize,
            threads: self.threads,
        };
        let workers = (0..self.workers)
            .map(|i| spawn_worker(&shared, cfg, i).expect("failed to spawn serve worker"))
            .collect();
        ServeEngine {
            shared,
            workers,
            default_budget: self.default_budget,
        }
    }
}

/// Everything needed to (re)build a worker's private engine.
#[derive(Debug, Clone, Copy)]
struct WorkerConfig {
    strategy: Strategy,
    optimize: Option<bool>,
    threads: usize,
}

impl WorkerConfig {
    fn fresh_engine(&self) -> Engine {
        let mut engine = Engine::new(self.strategy);
        if let Some(on) = self.optimize {
            engine = engine.with_optimizer(on);
        }
        if self.threads > 1 {
            engine = engine.with_threads(self.threads);
        }
        engine
    }
}

/// Spawns one worker thread.  The live count adopts the worker *before*
/// the spawn (and abandons it on failure) so the count never dips to
/// zero between a dying worker and its replacement.
fn spawn_worker(
    shared: &Arc<Shared>,
    cfg: WorkerConfig,
    index: usize,
) -> std::io::Result<JoinHandle<()>> {
    shared.live_workers.adopt();
    let shared2 = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("minctx-serve-{index}"))
        .spawn(move || {
            let _sentry = RespawnSentry {
                shared: Arc::clone(&shared2),
                cfg,
                index,
            };
            worker_loop(&shared2, cfg);
        });
    if spawned.is_err() {
        shared.live_workers.abandon();
    }
    spawned
}

/// Runs on every worker exit path.  A clean exit (queue closed) just
/// decrements the live count; an exit by panic — something escaped the
/// evaluation fence — first spawns a replacement, so the pool never
/// shrinks and queued jobs never wait on dead threads.
struct RespawnSentry {
    shared: Arc<Shared>,
    cfg: WorkerConfig,
    index: usize,
}

impl Drop for RespawnSentry {
    fn drop(&mut self) {
        if thread::panicking() && !self.shared.queue.is_closed() {
            self.shared.metrics.worker_respawns.inc();
            // Replacement first, own retire second ([`LiveCount::handoff`]):
            // the live count stays positive across the handoff.  The
            // replacement is detached; ServeEngine::drop waits on
            // `live_workers`, not on join handles.  A failed spawn here
            // must not panic (we're already unwinding — it would
            // abort); the pool just runs one thread short.
            self.shared
                .live_workers
                .handoff(|| drop(spawn_worker(&self.shared, self.cfg, self.index)));
        } else {
            self.shared.live_workers.retire();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, cfg: WorkerConfig) {
    // Each worker owns its engine — and with it a private scratch
    // pool — so evaluation never shares mutable state across threads.
    let mut engine = cfg.fresh_engine();
    while let Some(job) = shared.queue.pop() {
        // A panic here escapes the fence and kills the worker; the
        // sentry respawns it.  (Chaos site: Worker.)
        chaos::tick(chaos::Site::Worker);
        shared.metrics.requests.inc();
        let waited = job.submitted.elapsed();
        shared.metrics.queue_wait_us.record_micros(waited);
        shared
            .metrics
            .max_queue_wait_micros
            .fetch_max(waited.as_micros() as u64, Ordering::Relaxed);
        let mut span = shared.recorder.span(Phase::Serve);
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_one(&engine, shared, &job)));
        let reply = match outcome {
            Ok(r) => r.map_err(ServeError::Eval),
            Err(payload) => {
                shared.metrics.panics.inc();
                // The unwound engine's internal caches and scratch pool
                // are in an unknown state; rebuild from config.
                engine = cfg.fresh_engine();
                Err(ServeError::WorkerPanicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        span.attr_str("query", || job.query.to_string());
        span.attr_str("outcome", || outcome_name(&reply).to_string());
        span.attr_u64("wait_us", waited.as_micros() as u64);
        drop(span);
        shared
            .metrics
            .latency_for(&reply)
            .record_micros(job.submitted.elapsed());
        // A dropped Ticket just discards the answer.
        let _ = job.reply.send(reply);
    }
}

/// A stable outcome label for request-log spans (matches the per-outcome
/// latency histogram split).
fn outcome_name(reply: &Result<Value, ServeError>) -> &'static str {
    match reply {
        Ok(_) => "ok",
        Err(ServeError::Eval(EvalError::BudgetExhausted { .. })) => "budget_exhausted",
        Err(ServeError::Eval(_)) => "error",
        Err(ServeError::WorkerPanicked { .. }) => "panic",
        Err(ServeError::Overloaded { .. }) => "shed",
        Err(ServeError::Disconnected) => "disconnected",
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve document and compiled query through the shared caches, then
/// evaluate under the request's meter.  Cache misses compute outside
/// any shard lock; a race on a cold key costs one duplicated
/// compilation, never a stall.  Runs inside the worker's panic fence.
fn serve_one(engine: &Engine, shared: &Shared, job: &Job) -> Result<Value, EvalError> {
    // Contained chaos site: a panic here must resolve THIS ticket as
    // WorkerPanicked and leave the pool healthy.
    chaos::tick(chaos::Site::Eval);
    let doc = match &job.corpus {
        Corpus::Document(doc) => Arc::clone(doc),
        Corpus::Snapshot(path) => {
            let stamp = match snapshot_stamp(path) {
                Ok(s) => s,
                Err(e) => {
                    // The header peek already proves the file is not a
                    // valid snapshot (unless the failure was plain I/O)
                    // — quarantine it now, same as a full-open failure.
                    if !matches!(e, SnapshotError::Io(_)) {
                        let _ = quarantine_snapshot(path);
                    }
                    return Err(EvalError::Snapshot(Arc::new(e)));
                }
            };
            match shared.snapshots.get(&stamp) {
                Some(doc) => {
                    shared.metrics.snapshot_hits.inc();
                    doc
                }
                None => {
                    shared.metrics.snapshot_misses.inc();
                    let doc = Arc::new(
                        open_snapshot_or_quarantine(path)
                            .map_err(|e| EvalError::Snapshot(Arc::new(e)))?,
                    );
                    shared.snapshots.insert(stamp, Arc::clone(&doc));
                    doc
                }
            }
        }
    };
    let key = (Arc::clone(&job.query), doc.stamp());
    let compiled = match shared.queries.get(&key) {
        Some(c) => {
            shared.metrics.query_hits.inc();
            c
        }
        None => {
            shared.metrics.query_misses.inc();
            let query = parse_xpath(&job.query)?;
            let c = Arc::new(engine.compile_uncached(&doc, &query));
            shared.queries.insert(key, Arc::clone(&c));
            c
        }
    };
    let mut meter = job.budget.meter_at(job.submitted);
    engine.evaluate_compiled_metered(&doc, &compiled, Context::document(&doc), &mut meter)
}

/// A shared-snapshot query service: N worker threads, two sharded LRUs
/// (mapped snapshots by content stamp, compiled queries by
/// `(query, doc_stamp)`), per-request fuel/deadline budgets, a bounded
/// admission queue, and panic-isolated workers (see the module docs'
/// *Fault tolerance* section).
///
/// Dropping the engine closes the queue, drains already-queued jobs,
/// joins every original worker, and waits for any respawned workers to
/// exit.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    default_budget: Budget,
}

impl ServeEngine {
    /// A pool with default configuration; see [`ServeEngine::builder`]
    /// for the knobs.
    pub fn new() -> ServeEngine {
        ServeBuilder::default().build()
    }

    pub fn builder() -> ServeBuilder {
        ServeBuilder::default()
    }

    /// Submits a request under the pool's default budget.
    pub fn query(&self, corpus: Corpus, query: &str) -> Ticket {
        self.query_with_budget(corpus, query, self.default_budget)
    }

    /// Submits a request with its own budget.  The deadline clock starts
    /// *now* — queueing delay counts, so a saturated pool sheds load as
    /// `BudgetExhausted` instead of stretching tail latency unboundedly.
    ///
    /// If the queue is at capacity the request is shed immediately: the
    /// ticket resolves to [`ServeError::Overloaded`] without the job
    /// ever entering the queue.
    pub fn query_with_budget(&self, corpus: Corpus, query: &str, budget: Budget) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            corpus,
            query: Arc::from(query),
            budget,
            submitted: Instant::now(),
            reply: tx,
        };
        match self.shared.queue.push(job) {
            Ok(depth) => {
                self.shared.metrics.queue_depth.record(depth as u64);
                self.shared
                    .metrics
                    .max_queue_depth
                    .fetch_max(depth as u64, Ordering::Relaxed);
            }
            Err(PushError::Full { item, capacity }) => {
                self.shared.metrics.shed.inc();
                self.shared
                    .metrics
                    .latency_shed_us
                    .record_micros(item.submitted.elapsed());
                let _ = item.reply.send(Err(ServeError::Overloaded { capacity }));
            }
            // Closed can only happen mid-drop; dropping the job drops
            // its sender and the ticket reports Disconnected.
            Err(PushError::Closed(_)) => {}
        }
        Ticket { rx }
    }

    /// Submits synchronously, retrying transient failures
    /// ([`ServeError::is_retryable`]) under `policy`'s deterministic
    /// exponential backoff.  Returns the first success, the first
    /// permanent error, or — attempts exhausted — the last transient
    /// error.
    pub fn query_with_retry(
        &self,
        corpus: Corpus,
        query: &str,
        budget: Budget,
        policy: RetryPolicy,
    ) -> Result<Value, ServeError> {
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                thread::sleep(policy.delay_before(attempt - 1));
            }
            match self.query_with_budget(corpus.clone(), query, budget).wait() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt always runs"))
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads currently serving — equals
    /// [`worker_count`](ServeEngine::worker_count) whenever the pool is
    /// healthy, including after panics (respawns replace the dead).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.get()
    }

    /// Jobs currently queued (racy; diagnostics only).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The admission-control bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> ServeStats {
        let m = &self.shared.metrics;
        let wait = m.queue_wait_us.snapshot();
        ServeStats {
            requests: m.requests.get(),
            query_hits: m.query_hits.get(),
            query_misses: m.query_misses.get(),
            snapshot_hits: m.snapshot_hits.get(),
            snapshot_misses: m.snapshot_misses.get(),
            shed: m.shed.get(),
            panics: m.panics.get(),
            worker_respawns: m.worker_respawns.get(),
            max_queue_depth: m.max_queue_depth.load(Ordering::Relaxed),
            max_queue_wait: Duration::from_micros(m.max_queue_wait_micros.load(Ordering::Relaxed)),
            queue_wait_p50: Duration::from_micros(wait.quantile(0.50).unwrap_or(0)),
            queue_wait_p99: Duration::from_micros(wait.quantile(0.99).unwrap_or(0)),
        }
    }

    /// The pool's metrics in Prometheus text exposition format: every
    /// `serve/*` counter and histogram (queue depth/wait, per-outcome
    /// latency).  The registry is per-engine, so two pools in one
    /// process each expose their own numbers.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render_prometheus()
    }

    /// [`ServeEngine::metrics_text`] as a JSON object (same registry).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.registry.render_json()
    }
}

impl Default for ServeEngine {
    fn default() -> ServeEngine {
        ServeEngine::new()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Respawned workers are detached (spawned mid-unwind, nobody
        // holds their handles); they exit promptly once the closed
        // queue drains.  Wait them out so "no leaked worker" holds by
        // the time drop returns.
        while self.shared.live_workers.get() > 0 {
            thread::yield_now();
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("live_workers", &self.live_workers())
            .field("default_budget", &self.default_budget)
            .field("stats", &self.stats())
            .finish()
    }
}
