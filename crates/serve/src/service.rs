//! The worker pool itself: [`ServeEngine`] owns N threads that pull
//! `(corpus, query)` jobs off a shared [`Queue`],
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
//! * **Panic isolation** — each popped job is served inside one
//!   `catch_unwind`; a panicking request surfaces as
//!   [`ServeError::WorkerPanicked`] on its own ticket and the worker
//!   keeps serving on the pool's one [`Engine`]: the unwound evaluation
//!   dropped the scratch it had popped, and the serve path never holds
//!   the engine's compile-cache lock, so nothing it shares is left half
//!   written.  Nothing outside the fence can panic, so the N threads
//!   [`ServeBuilder::build`] spawns serve until the engine is dropped.
//! * **Admission control** — the queue is bounded
//!   ([`ServeBuilder::queue_capacity`]); a full queue fast-rejects with
//!   [`ServeError::Overloaded`] on the ticket rather than stretching
//!   every deadline in line.
//! * **Quarantine** — a snapshot that fails validation (bad magic,
//!   checksum mismatch, truncation) is renamed aside to `*.corrupt` via
//!   [`quarantine_snapshot`], so a
//!   corrupt file is inspected once, not re-read on every request.

use crate::chaos;
use crate::lru::SharedLru;
use crate::queue::{PushError, Queue};
use minctx_core::{Budget, CompiledQuery, Context, Engine, EvalError, Strategy, Value};
use minctx_obs::{Counter, Histogram, Phase, Recorder, Registry};
use minctx_syntax::parse_xpath;
use minctx_xml::snapshot::{
    open_snapshot_or_quarantine, quarantine_snapshot, snapshot_stamp, SnapshotError,
};
use minctx_xml::Document;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What a request evaluates against: a persistent snapshot on disk
/// (mapped once per content stamp, shared by every worker) or an
/// already-parsed document the caller holds.
#[derive(Debug, Clone)]
pub enum Corpus {
    /// Path to a snapshot written by
    /// [`write_snapshot`](minctx_xml::snapshot::write_snapshot).  The service
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
    /// panic was contained and the pool is healthy — only this request
    /// is lost.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request was shed at admission: the queue already held
    /// `capacity` jobs.  Nothing was enqueued; the service never saw
    /// the request.
    Overloaded {
        /// The queue capacity the request bounced off.
        capacity: usize,
    },
    /// The reply channel closed with no answer: the job met a closed
    /// queue.  Every popped job is answered, and dropping the engine
    /// serves out the queue before its workers exit, so the pool itself
    /// never leaves a ticket here.
    Disconnected,
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
    /// Panics contained by the per-job fence
    /// ([`ServeError::WorkerPanicked`] tickets).
    pub panics: u64,
    /// High-watermark queue depth observed at admission: the exact
    /// `max` of the `serve/queue_depth` histogram.
    pub max_queue_depth: u64,
    /// Median queue wait, from the `serve/queue_wait_us` histogram
    /// (bucketed — exact to ~3%; [`Duration::ZERO`] before any pickup).
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait, same source and precision.
    pub queue_wait_p99: Duration,
}

/// Per-engine metrics: every counter and histogram is a handle into the
/// engine's *private* [`Registry`] (not the process-global one — two
/// pools in one process must not mix their numbers), rendered by
/// [`ServeEngine::metrics_text`].
struct Metrics {
    registry: Registry,
    requests: Counter,
    query_hits: Counter,
    query_misses: Counter,
    snapshot_hits: Counter,
    snapshot_misses: Counter,
    shed: Counter,
    panics: Counter,
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
            queue_depth: registry.histogram("serve/queue_depth"),
            queue_wait_us: registry.histogram("serve/queue_wait_us"),
            latency_ok_us: registry.histogram("serve/latency_ok_us"),
            latency_error_us: registry.histogram("serve/latency_error_us"),
            latency_budget_us: registry.histogram("serve/latency_budget_exhausted_us"),
            latency_panic_us: registry.histogram("serve/latency_panic_us"),
            latency_shed_us: registry.histogram("serve/latency_shed_us"),
            registry,
        }
    }

    /// A finished request's outcome: the stable label its request-log
    /// span carries and the latency histogram it records into, from one
    /// match so the two cannot disagree.
    fn outcome(&self, reply: &Result<Value, ServeError>) -> (&'static str, &Histogram) {
        match reply {
            Ok(_) => ("ok", &self.latency_ok_us),
            Err(ServeError::Eval(EvalError::BudgetExhausted { .. })) => {
                ("budget_exhausted", &self.latency_budget_us)
            }
            Err(ServeError::Eval(_)) => ("error", &self.latency_error_us),
            Err(ServeError::WorkerPanicked { .. }) => ("panic", &self.latency_panic_us),
            Err(ServeError::Overloaded { .. }) => ("shed", &self.latency_shed_us),
            Err(ServeError::Disconnected) => ("disconnected", &self.latency_error_us),
        }
    }
}

/// State every worker shares.
struct Shared {
    queue: Queue<Job>,
    /// The one engine every worker evaluates on: OPTMINCONTEXT, optimizer
    /// per [`ServeBuilder::optimizer`].  Its scratch pool lends each
    /// concurrent evaluation its own [`Scratch`](minctx_xml::Scratch).
    engine: Engine,
    /// Mapped snapshots keyed by content stamp: the stamp is derived
    /// from document content (with the snapshot bit set), so two paths
    /// to the same bytes share one mapping, and a rewritten file is
    /// re-mapped under its new stamp — no mtime heuristics.
    snapshots: SharedLru<u64, Arc<Document>>,
    /// Compiled queries keyed by `(query text, doc stamp)`: compilation
    /// bakes in document name-codes, so the same XPath against a
    /// different document is a different entry.
    queries: SharedLru<(Arc<str>, u64), Arc<CompiledQuery>>,
    metrics: Metrics,
    /// Request-lifecycle recorder ([`ServeBuilder::request_log`]): one
    /// [`Phase::Serve`] span per served request.  Disabled by default.
    recorder: Recorder,
}

/// Distinct `(query, document)` compilations the shared query cache
/// keeps resident.
pub const QUERY_CACHE_CAPACITY: usize = 256;

/// Configuration for a [`ServeEngine`]; `ServeEngine::builder()` is the
/// entry point, [`build`](ServeBuilder::build) spawns the pool.
#[derive(Debug)]
pub struct ServeBuilder {
    workers: usize,
    /// The engine the workers share: OPTMINCONTEXT, optimizer per
    /// [`ServeBuilder::optimizer`] (default: on).
    engine: Engine,
    snapshot_cache_capacity: usize,
    queue_capacity: usize,
    recorder: Recorder,
}

impl Default for ServeBuilder {
    fn default() -> ServeBuilder {
        ServeBuilder {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            engine: Engine::new(Strategy::OptMinContext),
            snapshot_cache_capacity: 8,
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

    /// Turns the rewrite pipeline on or off (default: on).
    pub fn optimizer(mut self, on: bool) -> ServeBuilder {
        self.engine = self.engine.with_optimizer(on);
        self
    }

    /// Distinct mapped snapshots kept resident (default 8).
    pub fn snapshot_cache_capacity(mut self, n: usize) -> ServeBuilder {
        self.snapshot_cache_capacity = n.max(1);
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
    /// [`minctx_obs::JsonLinesSink`] for a JSON-lines request log.
    /// Default: disabled, near-free.
    pub fn request_log(mut self, recorder: Recorder) -> ServeBuilder {
        self.recorder = recorder;
        self
    }

    /// Spawns the worker pool.
    pub fn build(self) -> ServeEngine {
        let shared = Arc::new(Shared {
            queue: Queue::bounded(self.queue_capacity),
            engine: self.engine,
            snapshots: SharedLru::new(self.snapshot_cache_capacity),
            queries: SharedLru::new(QUERY_CACHE_CAPACITY),
            metrics: Metrics::new(),
            recorder: self.recorder,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("minctx-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        ServeEngine { shared, workers }
    }
}

/// One worker: pop, serve inside the panic fence, reply, until the queue
/// closes.  Every worker evaluates on `shared.engine`; the engine's
/// scratch pool gives each concurrent evaluation its own working memory.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // Outside the fence stay the request counter, the span, the
        // latency record and the reply, and none of them can panic:
        // counters and histograms are relaxed atomics on a bounded
        // bucket index, a `Sink` must not panic (`JsonLinesSink` catches
        // a panicking writer), and `send` to a dropped
        // ticket returns an error.  The span stays out so that an
        // unwinding job never drops it: a sink panicking mid-unwind
        // would abort the process.
        shared.metrics.requests.inc();
        let waited = job.submitted.elapsed();
        shared.metrics.queue_wait_us.record_micros(waited);
        let mut span = shared.recorder.span(Phase::Serve);
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_one(shared, &job)));
        let reply = match outcome {
            Ok(r) => r.map_err(ServeError::Eval),
            Err(payload) => {
                shared.metrics.panics.inc();
                Err(ServeError::WorkerPanicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        let (label, latency) = shared.metrics.outcome(&reply);
        span.attr_str("query", || job.query.to_string());
        span.attr_str("outcome", || label.to_string());
        span.attr_u64("wait_us", waited.as_micros() as u64);
        drop(span);
        latency.record_micros(job.submitted.elapsed());
        // A dropped Ticket just discards the answer.
        let _ = job.reply.send(reply);
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
/// the cache's lock; a race on a cold key costs one duplicated
/// compilation, never a stall.  Runs inside the worker's panic fence.
fn serve_one(shared: &Shared, job: &Job) -> Result<Value, EvalError> {
    let engine = &shared.engine;
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
            snapshot(shared, path, stamp)?
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

/// The snapshot at `path` whose header was peeked as `peeked`: from the
/// cache, or opened and cached under the stamp of what was opened.  A
/// writer may rename new content over `path` between the peek and the
/// open, so the opened document's stamp, not `peeked`, is its key.
fn snapshot(shared: &Shared, path: &Path, peeked: u64) -> Result<Arc<Document>, EvalError> {
    if let Some(doc) = shared.snapshots.get(&peeked) {
        shared.metrics.snapshot_hits.inc();
        return Ok(doc);
    }
    shared.metrics.snapshot_misses.inc();
    let doc =
        Arc::new(open_snapshot_or_quarantine(path).map_err(|e| EvalError::Snapshot(Arc::new(e)))?);
    shared.snapshots.insert(doc.stamp(), Arc::clone(&doc));
    Ok(doc)
}

/// A shared-snapshot query service: N worker threads, two shared LRUs
/// (mapped snapshots by content stamp, compiled queries by
/// `(query, doc_stamp)`), per-request fuel/deadline budgets, a bounded
/// admission queue, and panic-isolated workers (see the module docs'
/// *Fault tolerance* section).
///
/// Dropping the engine closes the queue, drains already-queued jobs and
/// joins every worker.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// A [`ServeBuilder`] with default configuration; `build` spawns the
    /// pool.
    pub fn builder() -> ServeBuilder {
        ServeBuilder::default()
    }

    /// Submits a request with no budget ([`Budget::UNLIMITED`]).
    pub fn query(&self, corpus: Corpus, query: &str) -> Ticket {
        self.query_with_budget(corpus, query, Budget::UNLIMITED)
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
            Ok(depth) => self.shared.metrics.queue_depth.record(depth as u64),
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
            max_queue_depth: m.queue_depth.snapshot().max,
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
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_xml::parse;
    use minctx_xml::snapshot::write_snapshot;

    #[test]
    fn optimizer_setting_reaches_the_shared_query_cache() {
        // `//b` compiles to one fused step with the rewriter on and to the
        // two-step expansion with it off; the pool's compilations are the
        // ones the shared cache holds.
        let doc = Arc::new(parse("<a><b/><c><b/></c></a>").unwrap());
        for (on, steps) in [(true, 1), (false, 2)] {
            let serve = ServeEngine::builder().workers(1).optimizer(on).build();
            let answer = serve
                .query(Corpus::Document(Arc::clone(&doc)), "//b")
                .wait()
                .unwrap();
            assert_eq!(answer.as_node_set().unwrap().len(), 2);
            let compiled = serve
                .shared
                .queries
                .get(&(Arc::from("//b"), doc.stamp()))
                .expect("the request compiled into the shared cache");
            assert_eq!(compiled.query().step_count(), steps, "optimizer({on})");
        }
    }

    #[test]
    fn a_snapshot_is_cached_under_the_stamp_of_what_was_opened() {
        // A writer renamed new content over the path between the header
        // peek and the open: the miss path holds the old content's stamp
        // and opens the new document.
        let path = |name: &str| {
            std::env::temp_dir().join(format!("minctx-serve-{}-{name}.mctx", std::process::id()))
        };
        let (old, new) = (path("stamp-old"), path("stamp-new"));
        write_snapshot(&parse("<a/>").unwrap(), &old).unwrap();
        write_snapshot(&parse("<b/>").unwrap(), &new).unwrap();
        let stale = snapshot_stamp(&old).unwrap();
        let serve = ServeEngine::builder().workers(1).build();
        let doc = snapshot(&serve.shared, &new, stale).unwrap();
        assert_ne!(doc.stamp(), stale);
        // No entry maps a stamp to a document with another stamp.
        let cache = &serve.shared.snapshots;
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&stale).is_none());
        let cached = cache.get(&doc.stamp()).map(|d| d.stamp());
        assert_eq!(cached, Some(doc.stamp()));
        // The old content is answered from itself, not from the new one.
        let answer = serve.query(Corpus::Snapshot(old.clone()), "count(/a)");
        assert_eq!(answer.wait(), Ok(Value::Number(1.0)));
        for p in [old, new] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
