//! The public entry point: [`Engine`], [`Strategy`], [`Context`], and the
//! [`Evaluator`] trait future backends plug into.
//!
//! The engine owns two pieces of cross-evaluation state aimed at the
//! serving scenario (one document, a fixed query set, many evaluations):
//!
//! * a **compiled-query cache** keyed on `(query stamp, document stamp)`,
//!   so node tests are resolved against the document's name table exactly
//!   once per `(Query, Document)` pair — repeated [`Engine::evaluate`]
//!   calls do zero name resolution;
//! * a reusable [`Scratch`] arena threaded into the evaluators, so the
//!   axis kernels' mark/flag bitmaps cost no per-call `O(|D|)`
//!   allocations in steady state.

use crate::budget::{Budget, BudgetMeter};
use crate::cache::LruCache;
use crate::compile::CompiledQuery;
use crate::error::EvalError;
use crate::explain::QueryProfile;
use crate::mincontext::MinContext;
use crate::naive::Naive;
use crate::tables::ContextValueTables;
use crate::value::Value;
use minctx_obs::{Phase, Recorder};
use minctx_syntax::{parse_xpath, Query};
use minctx_xml::{Document, NodeId, Scratch, WorkerPool};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An XPath 1.0 evaluation context: the triple `(x, k, n)` of Section 2.2
/// — context node, context position, context size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Context {
    pub node: NodeId,
    /// 1-based proximity position (`position()`).
    pub position: usize,
    /// Context size (`last()`).
    pub size: usize,
}

impl Context {
    /// The initial context for whole-document queries: the root node with
    /// position and size 1.
    pub fn document(doc: &Document) -> Context {
        Context {
            node: doc.root(),
            position: 1,
            size: 1,
        }
    }

    /// A context at `node` with position and size 1.
    pub fn at(node: NodeId) -> Context {
        Context {
            node,
            position: 1,
            size: 1,
        }
    }
}

/// Which evaluation algorithm an [`Engine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Context-at-a-time recursion without sharing — the exponential
    /// baseline of Section 1, modeling the XPath engines of the time.
    Naive,
    /// Bottom-up context-value tables over all contexts (VLDB 2002).
    ContextValueTable,
    /// MINCONTEXT (Section 3): polynomial time via relevant-context
    /// restriction and set-at-a-time path evaluation.
    MinContext,
    /// OPTMINCONTEXT (Section 4): MINCONTEXT plus backward axis
    /// propagation for existential predicates.
    OptMinContext,
    /// One-pass SAX-style streaming over XML text without materializing
    /// the arena, for the forward-axis fragment (the `minctx-stream`
    /// crate's `evaluate_reader`).  As an *arena* evaluator — i.e. when a
    /// [`Document`] has already been built and `evaluate` is called — this
    /// strategy delegates to [`Strategy::MinContext`], which is also the
    /// streaming differential suite's oracle.
    Streaming,
}

impl Strategy {
    /// The arena strategies, in baseline-to-best order (handy for
    /// differential tests and benchmark sweeps).  [`Strategy::Streaming`]
    /// is deliberately excluded: it is not a distinct arena algorithm
    /// (its arena path delegates to MINCONTEXT; the streaming path lives
    /// in `minctx-stream`).
    pub const ALL: [Strategy; 4] = [
        Strategy::Naive,
        Strategy::ContextValueTable,
        Strategy::MinContext,
        Strategy::OptMinContext,
    ];

    /// A short stable name (used in bench tables and CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::ContextValueTable => "cvt",
            Strategy::MinContext => "mincontext",
            Strategy::OptMinContext => "optmincontext",
            Strategy::Streaming => "streaming",
        }
    }

    /// Parses a strategy name as printed by [`Strategy::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Strategy> {
        Some(match s {
            "naive" => Strategy::Naive,
            "cvt" => Strategy::ContextValueTable,
            "mincontext" => Strategy::MinContext,
            "optmincontext" => Strategy::OptMinContext,
            "streaming" => Strategy::Streaming,
            _ => return None,
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`, so callers' width/alignment specifiers
        // (bench tables, consumer logs) are honored.
        f.pad(self.as_str())
    }
}

/// An evaluation backend.  The four in-tree strategies implement it; so
/// can out-of-tree backends (streaming, index-backed, parallel) — the
/// [`Engine`] only needs something that maps `(document, compiled query,
/// context)` to a [`Value`].
///
/// Backends receive the query pre-compiled (node tests resolved, see
/// [`CompiledQuery`]), a caller-owned [`Scratch`] for the axis kernels'
/// working memory, and a [`BudgetMeter`] they must charge their work
/// against — every strategy honors fuel and deadline limits, surfacing
/// [`EvalError::BudgetExhausted`] when one trips (see
/// [`Budget`](crate::Budget) for the accounting contract).
pub trait Evaluator {
    /// The strategy this evaluator implements (for diagnostics).
    fn strategy(&self) -> Strategy;

    /// Evaluates a compiled query at a context, charging work to `meter`.
    fn evaluate(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
    ) -> Result<Value, EvalError>;
}

/// Default compiled-query cache capacity; beyond it the least-recently
/// used compilation is evicted (see [`Engine::with_cache_capacity`]).
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The query-evaluation entry point: a [`Strategy`] plus evaluation
/// options, a compiled-query cache, and reusable evaluation scratch.
///
/// ```
/// use minctx_core::{Engine, Strategy};
/// use minctx_xml::parse;
///
/// let doc = parse("<a><b>1</b><b>2</b></a>").unwrap();
/// let engine = Engine::new(Strategy::MinContext);
/// let v = engine.evaluate_str(&doc, "count(/a/b)").unwrap();
/// assert_eq!(v.number(&doc), 2.0);
/// ```
pub struct Engine {
    strategy: Strategy,
    budget: Budget,
    /// Run the [`rewrite`](crate::rewrite::rewrite) pipeline before
    /// compiling queries.  On by default; `MINCTX_NO_OPTIMIZER` in the
    /// environment flips the default off (the no-optimizer CI job), and
    /// [`Engine::with_optimizer`] overrides either way.
    optimize: bool,
    /// `(query stamp, document stamp)` → compiled query, LRU-bounded at
    /// [`Engine::cache_capacity`] entries.
    cache: Mutex<LruCache<(u64, u64), Arc<CompiledQuery>>>,
    /// Reusable axis-kernel working memory for this engine's evaluations.
    /// Pool of scratch arenas: evaluations pop one and return it, so
    /// concurrent evaluations on a shared engine never serialize on the
    /// working memory (the lock is held only for the pop/push).
    scratch_pool: Mutex<Vec<Scratch>>,
    /// Query-lifecycle trace recorder.  Disabled by default — the spans in
    /// the parse/rewrite/compile/evaluate paths then cost one branch each
    /// and never read the clock (see [`Engine::with_recorder`]).
    recorder: Recorder,
    /// Worker count for parallel evaluation; 1 (the default) means fully
    /// sequential — no pool exists and every axis kernel runs its scan as
    /// one range on the calling thread.
    threads: usize,
    /// The work-splitting pool, present iff `threads > 1`.  Clones share
    /// it (the pool serializes concurrent regions internally).
    pool: Option<Arc<WorkerPool>>,
}

/// Scratch arenas retained in the pool; beyond this, returning scratches
/// are dropped (bounds idle memory after a concurrency burst).
const SCRATCH_POOL_CAP: usize = 16;

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("strategy", &self.strategy)
            .field("budget", &self.budget)
            .field("optimize", &self.optimize)
            .field("cached_queries", &self.cached_queries())
            .field("recorder", &self.recorder)
            .field("threads", &self.threads)
            .finish()
    }
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            strategy: self.strategy,
            budget: self.budget,
            optimize: self.optimize,
            // Compiled queries are immutable and Arc-shared: cheap to keep.
            cache: Mutex::new(self.cache.lock().expect("engine cache poisoned").clone()),
            scratch_pool: Mutex::new(Vec::new()),
            // Clones share the sink: a cloned serving engine keeps tracing
            // into the same stream.
            recorder: self.recorder.clone(),
            threads: self.threads,
            // Clones share the pool; regions are serialized inside it.
            pool: self.pool.clone(),
        }
    }
}

/// The optimizer default: on, unless `MINCTX_NO_OPTIMIZER` is set to
/// anything but `0`/empty (the CI job that re-runs the suite with every
/// query evaluated as written).
fn optimizer_default() -> bool {
    match std::env::var_os("MINCTX_NO_OPTIMIZER") {
        None => true,
        Some(v) => v.is_empty() || v == "0",
    }
}

impl Engine {
    /// An engine running the given strategy.
    pub fn new(strategy: Strategy) -> Engine {
        Engine {
            strategy,
            budget: Budget::UNLIMITED,
            optimize: optimizer_default(),
            cache: Mutex::new(LruCache::new(DEFAULT_CACHE_CAPACITY)),
            scratch_pool: Mutex::new(Vec::new()),
            recorder: Recorder::disabled(),
            threads: 1,
            pool: None,
        }
    }

    /// Sets the worker count for parallel evaluation.  With `n > 1` the
    /// MINCONTEXT/OPTMINCONTEXT evaluators hand a pool of `n` workers to
    /// the axis kernels, which cut a large scan — a postings slice, or the
    /// arena ordinals `following`/`preceding` select under a non-name test
    /// — into index ranges, run the same kernel body on each
    /// and concatenate in range order, so results are **bit-identical**
    /// to sequential evaluation.  That is all the setting means: fuel
    /// spent, budget outcomes and EXPLAIN routes do not depend on `n`,
    /// and scans below a fixed size gate stay on the calling thread.  The
    /// default — and `n = 1` — builds no pool at all.
    pub fn with_threads(mut self, n: usize) -> Engine {
        let n = n.max(1);
        self.threads = n;
        self.pool = (n > 1).then(|| Arc::new(WorkerPool::new(n)));
        self
    }

    /// The configured worker count (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The MINCONTEXT evaluator configured for this engine: optimized or
    /// not, sharing the engine's pool if it has one.
    pub(crate) fn mincontext(&self, optimized: bool) -> MinContext {
        MinContext {
            optimized,
            pool: self.pool.clone(),
        }
    }

    /// Attaches a query-lifecycle trace [`Recorder`].  With an enabled
    /// recorder, each [`Engine::evaluate_str`] / compile / evaluate call
    /// emits parse, rewrite, compile, and evaluate spans (wall time plus
    /// phase attributes such as IR node counts and fuel spent) into the
    /// recorder's sink.  The default recorder is disabled and near-free.
    pub fn with_recorder(mut self, recorder: Recorder) -> Engine {
        self.recorder = recorder;
        self
    }

    /// The engine's trace recorder (disabled unless one was attached).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Caps the abstract work units (fuel) an evaluation may spend;
    /// exceeding the cap yields [`EvalError::BudgetExhausted`].  Every
    /// strategy meters its work — including the polynomial ones, whose
    /// charges bound worst-case latency on a shared serving engine, and
    /// the streaming engine's per-event accounting.
    pub fn with_budget(mut self, fuel: u64) -> Engine {
        self.budget.fuel = Some(fuel);
        self
    }

    /// Caps the wall-clock time an evaluation may take; exceeding it
    /// yields [`EvalError::BudgetExhausted`].  The deadline is polled
    /// every ~50k charged work units, so enforcement granularity is well
    /// under a millisecond of evaluator work.
    pub fn with_timeout(mut self, timeout: Duration) -> Engine {
        self.budget.timeout = Some(timeout);
        self
    }

    /// Bounds the compiled-query cache at `capacity` entries (least
    /// recently used compilations are evicted beyond it).  Clears the
    /// cache.  The default is 256.
    pub fn with_cache_capacity(self, capacity: usize) -> Engine {
        Engine {
            cache: Mutex::new(LruCache::new(capacity)),
            ..self
        }
    }

    /// The compiled-query cache's entry bound.
    pub fn cache_capacity(&self) -> usize {
        self.cache.lock().expect("engine cache poisoned").capacity()
    }

    /// Enables or disables the query-IR rewriter
    /// ([`rewrite`](crate::rewrite::rewrite): step fusion, reverse-axis
    /// normalization, predicate hoisting/constant folding, subexpression
    /// sharing — one traversal of the query, linear in its size).  On by
    /// default; rewriting is semantics-preserving, so the toggle exists
    /// for differential testing and for measuring what the rules buy.
    /// Clears the compiled-query cache, which may hold compilations from
    /// the previous setting.
    pub fn with_optimizer(self, on: bool) -> Engine {
        self.cache.lock().expect("engine cache poisoned").clear();
        Engine {
            optimize: on,
            ..self
        }
    }

    /// Whether the rewrite pipeline runs before compilation.
    pub fn optimizer(&self) -> bool {
        self.optimize
    }

    /// The engine's strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The configured fuel cap, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget.fuel
    }

    /// The full budget configuration (fuel and timeout).
    pub fn budget_config(&self) -> Budget {
        self.budget
    }

    /// The pluggable backend for this engine's strategy.
    pub fn evaluator(&self) -> Box<dyn Evaluator> {
        match self.strategy {
            Strategy::Naive => Box::new(Naive),
            Strategy::ContextValueTable => Box::new(ContextValueTables),
            // Arena evaluation under the streaming strategy uses
            // MINCONTEXT — the same evaluator the streaming differential
            // suite uses as its oracle — so `evaluate_reader`'s arena
            // fallback and a direct `evaluate` agree by construction.
            Strategy::MinContext | Strategy::Streaming => Box::new(self.mincontext(false)),
            Strategy::OptMinContext => Box::new(self.mincontext(true)),
        }
    }

    /// Compiles `query` against `doc` — running the rewrite pipeline
    /// (unless disabled) and resolving every node test once — or returns
    /// the cached compilation for this `(query, document)` pair.  The
    /// cache keys on the *original* query's stamp, so callers never observe
    /// the rewritten query's identity.
    pub fn compile(&self, doc: &Document, query: &Query) -> Arc<CompiledQuery> {
        let key = (query.stamp(), doc.stamp());
        {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            if let Some(cq) = cache.get(&key) {
                return Arc::clone(cq);
            }
        }
        // Rewrite + compile outside the lock: both are pure, and losing a
        // race merely compiles the same query twice.
        let cq = Arc::new(self.compile_uncached(doc, query));
        self.cache
            .lock()
            .expect("engine cache poisoned")
            .insert(key, Arc::clone(&cq));
        cq
    }

    /// Compiles without consulting or populating the engine's cache — for
    /// callers that maintain their own compiled-query store (the
    /// `minctx-serve` shared LRU) or evaluate ad-hoc strings.
    pub fn compile_uncached(&self, doc: &Document, query: &Query) -> CompiledQuery {
        if self.optimize {
            let rewritten = {
                let mut span = self.recorder.span(Phase::Rewrite);
                let (rewritten, trace) = crate::rewrite::rewrite_traced(query);
                span.attr_u64("passes", trace.passes as u64);
                span.attr_u64("fired", u64::from(trace.total()));
                rewritten
            };
            let mut span = self.recorder.span(Phase::Compile);
            span.attr_u64("nodes", rewritten.len() as u64);
            CompiledQuery::from_query(doc, rewritten)
        } else {
            let mut span = self.recorder.span(Phase::Compile);
            span.attr_u64("nodes", query.len() as u64);
            CompiledQuery::new(doc, query)
        }
    }

    /// Number of compiled queries currently cached (diagnostics and
    /// cache-behavior tests).
    pub fn cached_queries(&self) -> usize {
        self.cache.lock().expect("engine cache poisoned").len()
    }

    /// Parses, normalizes, lowers and evaluates an XPath 1.0 expression
    /// against the whole document (initial context = document root).
    ///
    /// Each call lowers a fresh [`Query`] whose stamp can never recur, so
    /// the compilation is deliberately *not* cached — ad-hoc strings would
    /// only fill the cache with dead entries and evict the genuinely hot
    /// compiled queries.  Callers evaluating the same expression
    /// repeatedly should parse once with [`minctx_syntax::parse_xpath`]
    /// and reuse the query (or compile it with [`Engine::compile`]).
    pub fn evaluate_str(&self, doc: &Document, query: &str) -> Result<Value, EvalError> {
        let query = {
            let mut span = self.recorder.span(Phase::Parse);
            let query = parse_xpath(query)?;
            span.attr_u64("nodes", query.len() as u64);
            query
        };
        let compiled = self.compile_uncached(doc, &query);
        self.evaluate_compiled(doc, &compiled, Context::document(doc))
    }

    /// Runs one *instrumented* evaluation of `query` at the document root
    /// and reports what happened: the IR before/after rewriting with the
    /// [`Rule`](crate::rewrite::Rule)s that fired, per-step kernel routing
    /// ([`AxisRoute`](minctx_xml::AxisRoute)) with cardinalities and wall
    /// times, how each predicated step's predicates ran
    /// ([`PredMode`](crate::PredMode): as a set, from backward sets alone,
    /// ranked among siblings, or per origin — then with the origins left
    /// after postings pruning),
    /// memo and backward-propagation traffic, and fuel spent under the
    /// engine's budget.
    ///
    /// The profiled run uses the MINCONTEXT evaluator (OPTMINCONTEXT when
    /// the engine's strategy is [`Strategy::OptMinContext`]) and honors
    /// the engine's budget and optimizer settings, but bypasses the
    /// compiled-query cache: EXPLAIN always measures a real compile.
    ///
    /// ```
    /// use minctx_core::{Engine, Strategy};
    /// use minctx_xml::parse;
    ///
    /// let doc = parse(r#"<a><item id="1"/><item/></a>"#).unwrap();
    /// let engine = Engine::new(Strategy::OptMinContext).with_optimizer(true);
    /// let profile = engine.explain(&doc, "//item[@id]").unwrap();
    /// println!("{profile}");
    /// assert_eq!(profile.result, "node-set n=1");
    /// // One fused step; its predicate is answered by intersecting the
    /// // two <item>s with the backward set seeded from the `id` postings.
    /// assert!(profile.plan_text().contains(
    ///     "descendant::item preds=1 mode=backward route=postings calls=1 in=1 out=1"
    /// ));
    /// // A positional predicate on `child` ranks the candidates among
    /// // their siblings; the `//` in front of it is never materialised.
    /// let profile = engine.explain(&doc, "//item[last()]").unwrap();
    /// let plan = profile.plan_text();
    /// assert!(plan.contains("descendant-or-self::node() elided calls=1"));
    /// assert!(plan.contains(
    ///     "child::item preds=1 mode=sibling-rank route=postings calls=1 in=2 out=1"
    /// ));
    /// // Where a candidate can have several origins it keeps per-origin
    /// // candidate lists — but only for origins that reach an <item>.
    /// let profile = engine.explain(&doc, "//*/following::item[1]").unwrap();
    /// assert!(profile.plan_text().contains(
    ///     "following::item preds=1 mode=per-origin origins=3→1 route=postings"
    /// ));
    /// ```
    pub fn explain(&self, doc: &Document, query: &str) -> Result<QueryProfile, EvalError> {
        crate::explain::explain(self, doc, query)
    }

    /// Evaluates a lowered query against the whole document.
    pub fn evaluate(&self, doc: &Document, query: &Query) -> Result<Value, EvalError> {
        self.evaluate_at(doc, query, Context::document(doc))
    }

    /// Opens a persistent document snapshot (see `minctx-index`) and
    /// evaluates `query` against it — a stored corpus is queried without
    /// ever touching the XML parser.
    ///
    /// This is the one-shot convenience: each call pays the snapshot's
    /// open-time integrity scan.  Serving loops should call
    /// [`minctx_index::open_snapshot`] once and [`Engine::evaluate`] the
    /// returned [`Document`] many times — snapshot stamps are stable
    /// across reopens, so the engine's compiled-query cache keeps
    /// hitting either way.
    pub fn evaluate_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        query: &Query,
    ) -> Result<Value, EvalError> {
        let doc = minctx_index::open_snapshot(path)
            .map_err(|e| EvalError::Snapshot(std::sync::Arc::new(e)))?;
        self.evaluate(&doc, query)
    }

    /// [`Engine::evaluate_snapshot`] for an unparsed XPath string (the
    /// string is lowered afresh per call, exactly like
    /// [`Engine::evaluate_str`]).
    pub fn evaluate_snapshot_str(
        &self,
        path: impl AsRef<std::path::Path>,
        query: &str,
    ) -> Result<Value, EvalError> {
        let doc = minctx_index::open_snapshot(path)
            .map_err(|e| EvalError::Snapshot(std::sync::Arc::new(e)))?;
        self.evaluate_str(&doc, query)
    }

    /// Evaluates a lowered query at an explicit context.
    ///
    /// The context must be valid for the document: its node in range and
    /// `1 ≤ position ≤ size ≤ |dom|` (every context arising during XPath
    /// evaluation satisfies this) — the evaluators' dense tables and
    /// packed memo keys rely on these bounds.
    pub fn evaluate_at(
        &self,
        doc: &Document,
        query: &Query,
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let compiled = self.compile(doc, query);
        self.evaluate_compiled(doc, &compiled, ctx)
    }

    /// Evaluates an already-compiled query at an explicit context; the
    /// no-per-call-work entry point for serving loops that hold on to the
    /// [`CompiledQuery`] themselves.  Metered under the engine's
    /// configured [`Budget`].
    pub fn evaluate_compiled(
        &self,
        doc: &Document,
        compiled: &CompiledQuery,
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let mut meter = self.budget.meter();
        self.evaluate_compiled_metered(doc, compiled, ctx, &mut meter)
    }

    /// [`Engine::evaluate_compiled`] with a caller-supplied meter —
    /// request loops build one per request (typically via
    /// [`Budget::meter_at`], anchoring the deadline at submit time so
    /// queue wait counts) instead of using the engine-wide budget.
    pub fn evaluate_compiled_metered(
        &self,
        doc: &Document,
        compiled: &CompiledQuery,
        ctx: Context,
        meter: &mut BudgetMeter,
    ) -> Result<Value, EvalError> {
        let reason = if compiled.doc_stamp() != doc.stamp() {
            Some("query was compiled against a different document")
        } else if ctx.node.index() >= doc.len() {
            Some("context node is not in the document")
        } else if ctx.position == 0 || ctx.position > ctx.size {
            Some("context position must satisfy 1 <= position <= size")
        } else if ctx.size > doc.len() {
            Some("context size exceeds the document's node count")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(EvalError::InvalidContext { reason });
        }
        let mut scratch = self
            .scratch_pool
            .lock()
            .expect("engine scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        let result = {
            let mut span = self.recorder.span(Phase::Evaluate);
            let spent_before = meter.spent();
            let result = self
                .evaluator()
                .evaluate(doc, compiled, ctx, &mut scratch, meter);
            span.attr_str("strategy", || self.strategy.as_str().to_string());
            span.attr_u64("fuel", meter.spent() - spent_before);
            span.attr_u64("ok", u64::from(result.is_ok()));
            result
        };
        let mut pool = self
            .scratch_pool
            .lock()
            .expect("engine scratch pool poisoned");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_xml::parse;

    #[test]
    fn strategy_name_round_trip() {
        for s in Strategy::ALL.into_iter().chain([Strategy::Streaming]) {
            assert_eq!(Strategy::from_str_opt(s.as_str()), Some(s));
        }
        assert_eq!(Strategy::from_str_opt("quantum"), None);
    }

    #[test]
    fn streaming_strategy_delegates_arena_evaluation_to_mincontext() {
        // Strategy::Streaming is the evaluate_reader marker; on an already
        // materialized document it evaluates via MINCONTEXT (the streaming
        // suite's oracle), not some fifth arena walker.
        let doc = parse("<a><b/><b/></a>").unwrap();
        let v = Engine::new(Strategy::Streaming)
            .evaluate_str(&doc, "count(//b)")
            .unwrap();
        assert_eq!(v, Value::Number(2.0));
        assert!(!Strategy::ALL.contains(&Strategy::Streaming));
    }

    #[test]
    fn engine_reports_configuration() {
        let e = Engine::new(Strategy::Naive)
            .with_budget(100)
            .with_timeout(Duration::from_millis(250));
        assert_eq!(e.strategy(), Strategy::Naive);
        assert_eq!(e.budget(), Some(100));
        assert_eq!(
            e.budget_config(),
            Budget::fuel(100).with_timeout(Duration::from_millis(250))
        );
        assert_eq!(e.evaluator().strategy(), Strategy::Naive);
        assert_eq!(
            Engine::new(Strategy::OptMinContext).evaluator().strategy(),
            Strategy::OptMinContext
        );
        assert_eq!(Engine::new(Strategy::MinContext).cache_capacity(), 256);
        assert_eq!(
            Engine::new(Strategy::MinContext)
                .with_cache_capacity(7)
                .cache_capacity(),
            7
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "gate-sized documents are minutes-long under the interpreter"
    )]
    fn threaded_engines_agree_with_sequential_evaluation() {
        // A document whose arena is past the kernels' size gate (2¹⁹
        // scanned items) without many elements: ITEMS <item> children
        // (half carrying @id), each padded with 24 more attributes, so
        // every arena scan is cut while the per-origin work stays small.
        const ITEMS: usize = 21_000;
        let pad: String = (0..24).map(|k| format!(" a{k}=\"{k}\"")).collect();
        let mut xml = String::from("<root>");
        for i in 0..ITEMS {
            if i % 2 == 0 {
                xml.push_str(&format!("<item id=\"{i}\"{pad}><sub/></item>"));
            } else {
                xml.push_str(&format!("<item{pad}><sub/></item>"));
            }
        }
        xml.push_str("</root>");
        let doc = parse(&xml).unwrap();

        let queries = [
            "/root/item",
            "//sub",
            "//item[@id]",
            "count(//item[sub])",
            "/root/item[position() mod 2 = 1]/sub",
            "/root/item/*",
            "/root/item/following::*",
            "count(//sub/preceding::*)",
        ];
        for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
            let seq = Engine::new(strategy);
            let par = Engine::new(strategy).with_threads(4);
            assert_eq!(par.threads(), 4);
            for q in queries {
                assert_eq!(
                    seq.evaluate_str(&doc, q).unwrap(),
                    par.evaluate_str(&doc, q).unwrap(),
                    "{strategy} {q}"
                );
            }
        }

        // threads(1) keeps the purely sequential engine: no pool at all.
        assert_eq!(
            Engine::new(Strategy::MinContext).with_threads(1).threads(),
            1
        );
        assert_eq!(
            Engine::new(Strategy::MinContext).with_threads(0).threads(),
            1
        );

        // EXPLAIN on a threaded engine attributes chunked steps (the
        // `following::*` step scans the arena's tail from ITEMS context
        // items; `/root/item/*` walks the child chains and `//sub` takes
        // the singleton-root shortcut, both inline); apart from that
        // attribution the plan — routes, fuel — is the sequential one.
        let par = Engine::new(Strategy::MinContext).with_threads(4);
        let walked = par.explain(&doc, "/root/item/*").unwrap().plan_text();
        assert!(!walked.contains(" par="), "a walk is never cut:\n{walked}");
        let scanned = "/root/item/following::*";
        let plan = par.explain(&doc, scanned).unwrap().plan_text();
        assert!(
            plan.contains(" par="),
            "threaded plan attributes chunks:\n{plan}"
        );
        let seq_plan = Engine::new(Strategy::MinContext)
            .explain(&doc, scanned)
            .unwrap()
            .plan_text();
        assert!(
            !seq_plan.contains(" par="),
            "sequential plan unchanged:\n{seq_plan}"
        );
        let strip = |plan: &str| {
            plan.lines()
                .map(|l| l.split(" par=").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&plan), strip(&seq_plan));
    }

    #[test]
    fn compiled_query_cache_evicts_least_recently_used() {
        // Capacity 2: compiling a third query evicts the stale one, and
        // the still-hot compilation survives (same Arc, no recompile).
        let doc = parse("<a><b/><c/><d/></a>").unwrap();
        let qb = minctx_syntax::parse_xpath("/a/b").unwrap();
        let qc = minctx_syntax::parse_xpath("/a/c").unwrap();
        let qd = minctx_syntax::parse_xpath("/a/d").unwrap();
        let e = Engine::new(Strategy::MinContext).with_cache_capacity(2);
        let cb = e.compile(&doc, &qb);
        let _cc = e.compile(&doc, &qc);
        assert_eq!(e.cached_queries(), 2);
        // Touch qb so qc becomes the LRU entry, then overflow with qd.
        assert!(Arc::ptr_eq(&cb, &e.compile(&doc, &qb)));
        let cd = e.compile(&doc, &qd);
        assert_eq!(e.cached_queries(), 2);
        // qb survived (same Arc); qc was evicted and recompiles fresh.
        assert!(Arc::ptr_eq(&cb, &e.compile(&doc, &qb)));
        assert!(Arc::ptr_eq(&cd, &e.compile(&doc, &qd)));
        let cc2 = e.compile(&doc, &qc);
        assert_eq!(e.cached_queries(), 2);
        // And the recompiled qc is resident again.
        assert!(Arc::ptr_eq(&cc2, &e.compile(&doc, &qc)));
    }

    #[test]
    fn optimizer_is_on_by_default_and_toggleable() {
        // The default tracks MINCTX_NO_OPTIMIZER (the no-optimizer CI job
        // runs this very test with it set).
        let e = Engine::new(Strategy::MinContext);
        assert_eq!(e.optimizer(), optimizer_default());
        let e = e.with_optimizer(false);
        assert!(!e.optimizer());
        assert!(e.with_optimizer(true).optimizer());
    }

    #[test]
    fn optimizer_rewrites_compiled_queries() {
        // `//b` compiles to a fused single-step path with the optimizer on
        // and to the two-step expansion with it off — and both evaluate to
        // the same nodes.
        let doc = parse("<a><b/><c><b/></c></a>").unwrap();
        let q = minctx_syntax::parse_xpath("//b").unwrap();
        let on = Engine::new(Strategy::MinContext).with_optimizer(true);
        let off = Engine::new(Strategy::MinContext).with_optimizer(false);
        assert_eq!(on.compile(&doc, &q).query().step_count(), 1);
        assert_eq!(off.compile(&doc, &q).query().step_count(), 2);
        assert_eq!(
            on.evaluate(&doc, &q).unwrap(),
            off.evaluate(&doc, &q).unwrap()
        );
    }

    #[test]
    fn round_negative_zero_is_observable_from_every_strategy() {
        // The §4.4 regression: round(-0.2) must carry negative zero into
        // division and format as plain "0".
        let doc = parse("<a/>").unwrap();
        for s in Strategy::ALL {
            for optimize in [false, true] {
                let e = Engine::new(s).with_optimizer(optimize);
                assert_eq!(
                    e.evaluate_str(&doc, "1 div round(-0.2)").unwrap(),
                    Value::Number(f64::NEG_INFINITY),
                    "{s} optimize={optimize}"
                );
                assert_eq!(
                    e.evaluate_str(&doc, "string(round(-0.2))").unwrap(),
                    Value::String("0".into()),
                    "{s} optimize={optimize}"
                );
            }
        }
    }

    #[test]
    fn recorder_emits_lifecycle_spans() {
        use minctx_obs::{AttrValue, CollectSink};
        let doc = parse("<a><b/><b/></a>").unwrap();
        let sink = Arc::new(CollectSink::new());
        let e = Engine::new(Strategy::MinContext)
            .with_optimizer(true)
            .with_recorder(Recorder::to_sink(sink.clone()));
        assert!(e.recorder().enabled());
        assert_eq!(
            e.evaluate_str(&doc, "count(//b)").unwrap(),
            Value::Number(2.0)
        );
        let spans = sink.take();
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Parse,
                Phase::Rewrite,
                Phase::Compile,
                Phase::Evaluate
            ]
        );
        let eval = spans.last().unwrap();
        assert_eq!(
            eval.attr("strategy"),
            Some(&AttrValue::Str("mincontext".to_string()))
        );
        assert_eq!(eval.attr("ok"), Some(&AttrValue::U64(1)));
        assert!(matches!(eval.attr("fuel"), Some(&AttrValue::U64(f)) if f > 0));
        // A cloned engine keeps tracing into the same sink; the default
        // engine traces nothing.
        e.clone().evaluate_str(&doc, "count(//b)").unwrap();
        assert_eq!(sink.take().len(), 4);
        Engine::new(Strategy::MinContext)
            .evaluate_str(&doc, "count(//b)")
            .unwrap();
        assert!(sink.take().is_empty());
    }

    #[test]
    fn evaluate_str_reports_parse_errors() {
        let doc = parse("<a/>").unwrap();
        let e = Engine::new(Strategy::MinContext);
        assert!(matches!(
            e.evaluate_str(&doc, "/a["),
            Err(EvalError::Parse(_))
        ));
    }

    #[test]
    fn evaluate_at_rejects_invalid_contexts() {
        let doc = parse("<a><b/></a>").unwrap();
        let q = minctx_syntax::parse_xpath("position()").unwrap();
        for s in Strategy::ALL {
            let e = Engine::new(s);
            for bad in [
                Context {
                    node: doc.root(),
                    position: doc.len() + 1,
                    size: doc.len() + 1,
                },
                Context {
                    node: doc.root(),
                    position: 0,
                    size: 1,
                },
                Context {
                    node: doc.root(),
                    position: 2,
                    size: 1,
                },
                Context {
                    node: minctx_xml::NodeId::from_index(doc.len()),
                    position: 1,
                    size: 1,
                },
            ] {
                assert!(
                    matches!(
                        e.evaluate_at(&doc, &q, bad),
                        Err(EvalError::InvalidContext { .. })
                    ),
                    "strategy {s} accepted {bad:?}"
                );
            }
            // A maximal valid context works.
            let ok = Context {
                node: doc.root(),
                position: doc.len(),
                size: doc.len(),
            };
            assert_eq!(
                e.evaluate_at(&doc, &q, ok).unwrap(),
                Value::Number(doc.len() as f64),
                "strategy {s}"
            );
        }
    }

    #[test]
    fn compiled_queries_are_cached_per_query_and_document() {
        let doc = parse("<a><b/><b/></a>").unwrap();
        let doc2 = parse("<a><b/></a>").unwrap();
        let q = minctx_syntax::parse_xpath("/a/b").unwrap();
        let e = Engine::new(Strategy::MinContext);
        let c1 = e.compile(&doc, &q);
        let c2 = e.compile(&doc, &q);
        // Same (query, document): the same Arc, not a recompilation.
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(e.cached_queries(), 1);
        // Different document: a separate entry.
        let c3 = e.compile(&doc2, &q);
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert_eq!(e.cached_queries(), 2);
        // A clone of the document hits the original entry.
        let c4 = e.compile(&doc.clone(), &q);
        assert!(Arc::ptr_eq(&c1, &c4));
        assert_eq!(e.cached_queries(), 2);
    }

    #[test]
    fn repeated_evaluation_does_no_name_resolution() {
        // The acceptance check for the compiled-query cache: after the
        // first evaluation of a query, re-evaluating it performs zero
        // lookups against the document's name table.
        let doc = parse(r#"<a><b i="1">x</b><c><b i="2">y</b></c></a>"#).unwrap();
        let q = minctx_syntax::parse_xpath("//b[@i]/ancestor::c | /a/child::b").unwrap();
        for s in Strategy::ALL {
            let e = Engine::new(s);
            let first = e.evaluate(&doc, &q).unwrap();
            let resolved_at = doc.names().lookup_count();
            for _ in 0..3 {
                assert_eq!(e.evaluate(&doc, &q).unwrap(), first, "strategy {s}");
            }
            assert_eq!(
                doc.names().lookup_count(),
                resolved_at,
                "strategy {s} resolved names during cached evaluation"
            );
        }
    }

    #[test]
    fn compiled_query_rejects_foreign_documents() {
        let doc = parse("<a/>").unwrap();
        let other = parse("<a/>").unwrap();
        let q = minctx_syntax::parse_xpath("/a").unwrap();
        let e = Engine::new(Strategy::MinContext);
        let cq = e.compile(&doc, &q);
        assert!(e
            .evaluate_compiled(&doc, &cq, Context::document(&doc))
            .is_ok());
        assert!(matches!(
            e.evaluate_compiled(&other, &cq, Context::document(&other)),
            Err(EvalError::InvalidContext { .. })
        ));
    }

    #[test]
    fn evaluate_snapshot_queries_a_stored_corpus() {
        let doc = parse(r#"<a><b id="x">1</b><b>2</b></a>"#).unwrap();
        let path = std::env::temp_dir().join(format!(
            "minctx-engine-snapshot-{}.mctx",
            std::process::id()
        ));
        crate::write_snapshot(&doc, &path).unwrap();
        let q = minctx_syntax::parse_xpath("count(//b)").unwrap();
        for s in Strategy::ALL {
            let e = Engine::new(s);
            assert_eq!(
                e.evaluate_snapshot(&path, &q).unwrap(),
                Value::Number(2.0),
                "strategy {s}"
            );
            assert_eq!(
                e.evaluate_snapshot_str(&path, "string(id('x'))").unwrap(),
                Value::String("1".into()),
                "strategy {s}"
            );
        }
        // A missing snapshot surfaces as EvalError::Snapshot.
        let missing = std::env::temp_dir().join("minctx-engine-snapshot-missing.mctx");
        assert!(matches!(
            Engine::new(Strategy::MinContext).evaluate_snapshot(&missing, &q),
            Err(EvalError::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_at_respects_context() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let q = minctx_syntax::parse_xpath("c").unwrap();
        for s in Strategy::ALL {
            let v = Engine::new(s)
                .evaluate_at(&doc, &q, Context::at(b))
                .unwrap();
            assert_eq!(v.as_node_set().unwrap().len(), 1, "strategy {s}");
            let v = Engine::new(s).evaluate(&doc, &q).unwrap();
            assert!(v.as_node_set().unwrap().is_empty(), "strategy {s}");
        }
    }
}
