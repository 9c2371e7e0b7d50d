//! # minctx — polynomial-time XPath 1.0 evaluation
//!
//! A faithful, production-quality implementation of *"XPath Query
//! Evaluation: Improving Time and Space Efficiency"* (G. Gottlob, C. Koch,
//! R. Pichler, ICDE 2003): the **MINCONTEXT** and **OPTMINCONTEXT**
//! algorithms, the **Extended Wadler** and **Core XPath** fragments, plus
//! the context-value-table evaluator of the predecessor paper (VLDB 2002)
//! and a deliberately naive exponential evaluator that models the XPath
//! engines of the time.
//!
//! ## Architecture
//!
//! The workspace is layered; this facade crate re-exports all of it:
//!
//! * [`obs`] — the observability substrate below everything else:
//!   a zero-dependency metrics registry and the query-lifecycle
//!   tracing/EXPLAIN machinery (see "Observability" below).
//! * [`xml`] — the data substrate: an arena [`Document`](xml::Document)
//!   whose [`NodeId`](xml::NodeId)s are pre-order indices (document order
//!   is integer comparison, subtrees are contiguous ranges), a from-scratch
//!   XML parser, [`NodeSet`](xml::NodeSet)s, and the `O(|D|)` axis algebra
//!   of Definition 1 ([`axis_image`](xml::axes::axis_image) /
//!   [`axis_preimage`](xml::axes::axis_preimage)).
//! * [`syntax`] — the query pipeline: lexer → parser → normalizer (the
//!   paper's Section 2.2 core form: explicit conversions, positional
//!   rewriting, the `id()`→id-axis rewriting of Section 4, union lifting)
//!   → [`Query`](syntax::Query) lowering with the relevant-context sets
//!   `Relev(N)` of Section 3.1.
//! * [`engine`] — four interchangeable evaluators behind
//!   [`Engine`](engine::Engine), selected by a
//!   [`Strategy`](engine::Strategy) and extensible through the
//!   [`Evaluator`](engine::Evaluator) trait:
//!
//! | Strategy            | Algorithm                                | Behavior                        |
//! |---------------------|------------------------------------------|---------------------------------|
//! | `Naive`             | context-at-a-time recursion (Section 1)  | exponential in query size       |
//! | `ContextValueTable` | bottom-up full tables (VLDB 2002)        | polynomial, cubic space         |
//! | `MinContext`        | relevant-context evaluation (Section 3)  | `O(|D|·|Q|)` on Core XPath      |
//! | `OptMinContext`     | + backward axis propagation (Section 4)  | `O(|D|)` existential predicates |
//!
//! All strategies produce the same [`Value`](engine::Value) domain and are
//! continuously cross-checked by a differential corpus (see
//! `crates/core/tests/differential.rs`), so optimization work on any one
//! backend is oracle-tested against the other three.
//!
//! Four layers keep the constant factors down (see DESIGN.md): the
//! **query-IR rewrite pipeline** (`minctx_core::rewrite`, on by default,
//! toggleable via `Engine::with_optimizer`) that fuses `//a`-style step
//! chains, normalizes reverse axes, folds constants and shares common
//! subexpressions before compilation; a per-label **postings index** on
//! every [`Document`](xml::Document) that makes name-test axis steps
//! sublinear; [`CompiledQuery`](engine::CompiledQuery), cached inside the
//! [`Engine`](engine::Engine) per `(query, document)` so repeated
//! evaluation does zero name resolution; and a reusable
//! [`Scratch`](xml::Scratch) arena that eliminates per-axis-call `O(|D|)`
//! allocations.
//!
//! ## Quickstart
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse("<a><b>1</b><b>2</b><c>3</c></a>").unwrap();
//! let engine = Engine::new(Strategy::OptMinContext);
//! let result = engine.evaluate_str(&doc, "/child::a/child::b").unwrap();
//! let nodes = result.into_node_set().unwrap();
//! assert_eq!(nodes.len(), 2);
//! ```
//!
//! Scalar results and the other strategies work the same way:
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse("<a><b>5</b><b>7</b></a>").unwrap();
//! for strategy in Strategy::ALL {
//!     let v = Engine::new(strategy).evaluate_str(&doc, "sum(/a/b)").unwrap();
//!     assert_eq!(v.number(&doc), 12.0);
//! }
//! ```
//!
//! Every strategy meters its work against a fuel/deadline
//! [`Budget`](engine::Budget), so the Section-1 blow-up is observable
//! without being suffered — and a serving loop can bound any evaluation:
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse("<a><b/><b/></a>").unwrap();
//! let naive = Engine::new(Strategy::Naive).with_budget(10_000);
//! let q = "//b".to_string() + &"/parent::a/child::b".repeat(30);
//! assert!(matches!(
//!     naive.evaluate_str(&doc, &q),
//!     Err(EvalError::BudgetExhausted { .. })
//! ));
//! // The same query is instant under MINCONTEXT.
//! let v = Engine::new(Strategy::MinContext).evaluate_str(&doc, &q).unwrap();
//! assert_eq!(v.into_node_set().unwrap().len(), 2);
//! ```
//!
//! ## Streaming
//!
//! For read-once workloads, [`stream`] evaluates the forward-axis
//! fragment in one SAX-style pass over XML *text* — no document arena is
//! built, and memory stays proportional to document depth plus the
//! result:
//!
//! ```
//! use minctx::prelude::*;
//!
//! let engine = Engine::new(Strategy::Streaming);
//! let query = parse_xpath("count(//b[@id])").unwrap();
//! let out = engine
//!     .evaluate_reader_str(&query, r#"<a><b id="1"/><b/></a>"#)
//!     .unwrap();
//! assert_eq!(out.streamed(), Some(&StreamValue::Number(1.0)));
//! ```
//!
//! Queries outside the streamable fragment (reverse axes the optimizer
//! cannot normalize away, positional predicates, `id()`, …) fall back to
//! parse-then-evaluate, and the outcome reports which construct forced
//! the fallback — see [`stream::classify`].
//!
//! ## Persistent snapshots
//!
//! For stored corpora, [`index`] snapshots a built document to disk and
//! reopens it **zero-copy** via `mmap` — the flat columns (pre-order
//! structure, packed kinds, CSR label postings, text heap, id index) are
//! adopted in place after an integrity scan, so reopening skips the XML
//! parser entirely (≥5× cheaper than re-parsing at the 10⁶-element
//! bench tier; see the `index/*` rows in `BENCH_baseline.json`):
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse(r#"<a><b id="k">7</b></a>"#).unwrap();
//! let path = std::env::temp_dir().join(format!("minctx-facade-{}.mctx", std::process::id()));
//! write_snapshot(&doc, &path).unwrap();
//!
//! // One-shot convenience: open + evaluate in one call…
//! let engine = Engine::new(Strategy::OptMinContext);
//! let q = parse_xpath("count(//b)").unwrap();
//! assert_eq!(engine.evaluate_snapshot(&path, &q).unwrap(), Value::Number(1.0));
//!
//! // …or open once and serve many queries; snapshot stamps are stable
//! // across reopens, so compiled-query caches keep hitting.
//! let corpus = open_snapshot(&path).unwrap();
//! assert_eq!(engine.evaluate_str(&corpus, "string(id('k'))").unwrap(),
//!            Value::String("7".into()));
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! Truncated, bit-flipped or incompatible snapshot files are rejected
//! with an actionable [`SnapshotError`](index::SnapshotError) — never a
//! panic — and every corpus document round-trips exactly: owned and
//! snapshot-backed evaluation agree query-for-query under all four
//! arena strategies (`crates/bench/tests/snapshot_differential.rs`).
//!
//! ## Concurrent serving
//!
//! [`serve`] turns all of the above into a query service: a
//! [`ServeEngine`](serve::ServeEngine) pool of worker threads sharing
//! one immutable document (or mmap-ed snapshot) with zero copies —
//! snapshots are cached by **content stamp** (peeked from the file
//! header), compiled queries by `(query, document stamp)`, both behind
//! sharded LRUs — and every request carries its own fuel/deadline
//! [`Budget`](engine::Budget), anchored at submission so queue wait
//! counts against the deadline:
//!
//! ```
//! use minctx::prelude::*;
//! use std::sync::Arc;
//!
//! let doc = Arc::new(minctx::xml::parse("<a><b>1</b><b>2</b></a>").unwrap());
//! let serve = ServeEngine::builder().workers(2).build();
//! let ticket = serve.query(Corpus::Document(Arc::clone(&doc)), "count(//b)");
//! assert_eq!(ticket.wait().unwrap(), Value::Number(2.0));
//!
//! // A hopeless deadline is shed as an error, never a hung worker.
//! let err = serve
//!     .query_with_budget(
//!         Corpus::Document(doc),
//!         "count(//*)",
//!         Budget::timeout(std::time::Duration::ZERO),
//!     )
//!     .wait()
//!     .unwrap_err();
//! assert!(matches!(err, ServeError::Eval(EvalError::BudgetExhausted { .. })));
//! ```
//!
//! ## Fault tolerance
//!
//! The service degrades loudly, never silently: a request that panics a
//! worker resolves *its own* ticket as
//! [`ServeError::WorkerPanicked`](serve::ServeError::WorkerPanicked)
//! while the worker rebuilds and keeps serving (dead threads respawn);
//! a queue at capacity fast-rejects new requests as
//! [`ServeError::Overloaded`](serve::ServeError::Overloaded) — both are
//! [retryable](serve::ServeError::is_retryable), and
//! [`query_with_retry`](serve::ServeEngine::query_with_retry) wraps
//! resubmission under a deterministic exponential
//! [`RetryPolicy`](serve::RetryPolicy).  On the storage side,
//! [`write_snapshot`](index::write_snapshot) commits through a hidden
//! temp file, fsync, atomic rename and directory fsync — a writer
//! killed at any byte leaves the published path untouched — and files
//! that fail validation can be moved aside via
//! [`open_snapshot_or_quarantine`](index::open_snapshot_or_quarantine).
//! The [`serve::chaos`] and [`index::fault`] modules inject seeded
//! panics and torn writes so every one of these claims is exercised by
//! `crates/serve/tests/chaos.rs`, the crash-simulation half of
//! `crates/index/tests/corrupt.rs`, and the `chaos_smoke` binary.
//!
//! ## Observability
//!
//! [`obs`] is the zero-dependency substrate the rest of the workspace
//! reports through: a metrics [`Registry`](obs::Registry) (counters,
//! gauges, lock-free histograms; Prometheus-text and JSON exposition)
//! and a query-lifecycle [`Recorder`](obs::Recorder) whose RAII spans
//! cover parse → rewrite → compile → evaluate/stream → serve.  The
//! default recorder is disabled and costs one untaken branch per span;
//! attach one via [`Engine::with_recorder`](engine::Engine::with_recorder)
//! or a serving request log via
//! [`ServeBuilder::request_log`](serve::ServeBuilder::request_log), and
//! read a pool's numbers with
//! [`ServeEngine::metrics_text`](serve::ServeEngine::metrics_text).
//!
//! [`Engine::explain`](engine::Engine::explain) answers "what will this
//! query actually do": the IR before/after the rewrite pipeline, which
//! rules fired, and per-step rows with the kernel route taken
//! (postings / walk / sweep) and input/output cardinalities:
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse(r#"<a><item id="1"/><item/></a>"#).unwrap();
//! let engine = Engine::new(Strategy::MinContext).with_optimizer(true);
//! let profile = engine.explain(&doc, "//item[@id]").unwrap();
//! assert_eq!(profile.result, "node-set n=1");
//! assert!(profile.plan_text().contains("fired=fuse-descendant:1"));
//! assert!(profile.plan_text().contains("route="));
//! ```
//!
//! ## Parallel evaluation
//!
//! [`Engine::with_threads`](engine::Engine::with_threads) turns on
//! intra-query data parallelism, and means exactly one thing: the axis
//! kernels cut a large scan — a postings slice, or the arena ordinals
//! `following`/`preceding` select under a non-name test — into
//! index ranges, run the same kernel body on each across a scoped worker
//! pool, and concatenate in range order.  Results are **bit-identical**
//! to sequential evaluation, ordinals included, and so are fuel spent,
//! budget outcomes and EXPLAIN routes (the differential corpus runs at
//! threads 1/2/4 to hold the line).  The default of 1 constructs no
//! pool at all; scans below a fixed, measured size gate never pay
//! coordination cost.  In the service, set
//! [`ServeBuilder::threads`](serve::ServeBuilder::threads) per worker
//! engine — total thread pressure is roughly `workers × threads`.
//! EXPLAIN step rows report dispatched chunk counts
//! ([`StepProfile::par_chunks`](engine::StepProfile), rendered as
//! ` par=K`), and the global registry carries `par/*` counters:
//!
//! ```
//! use minctx::prelude::*;
//!
//! let doc = minctx::xml::parse("<a><b/><b/></a>").unwrap();
//! let threaded = Engine::new(Strategy::OptMinContext).with_threads(4);
//! let sequential = Engine::new(Strategy::OptMinContext);
//! assert_eq!(
//!     threaded.evaluate_str(&doc, "//b").unwrap(),
//!     sequential.evaluate_str(&doc, "//b").unwrap(),
//! );
//! ```
//!
//! ## Benchmarks
//!
//! `cargo run --release -p minctx-bench --bin tables` prints the paper's
//! strategy × document-size timing tables; `cargo bench -p minctx-bench`
//! runs the per-theorem harnesses (`thm7_mincontext`, `thm10_wadler`,
//! `thm13_corexpath`, `exp_query_size`, `axes`).

#![forbid(unsafe_code)]

pub use minctx_core as engine;
pub use minctx_index as index;
pub use minctx_obs as obs;
pub use minctx_serve as serve;
pub use minctx_stream as stream;
pub use minctx_syntax as syntax;
pub use minctx_xml as xml;

/// The most common imports, bundled.
pub mod prelude {
    pub use minctx_core::{
        Budget, CompiledQuery, Context, Engine, EvalError, Evaluator, QueryProfile, StepProfile,
        Strategy, Value,
    };
    pub use minctx_index::{
        open_snapshot, open_snapshot_or_quarantine, snapshot_stamp, write_snapshot, SnapshotError,
        SnapshotInfo,
    };
    pub use minctx_obs::{metrics_text, Recorder};
    pub use minctx_serve::{Corpus, RetryPolicy, ServeEngine, ServeError, Ticket};
    pub use minctx_stream::{
        classify, StreamMatch, StreamOutcome, StreamValue, Streamability, StreamingEngine,
    };
    pub use minctx_syntax::parse_xpath;
    pub use minctx_xml::{parse as parse_xml, Document, NodeId, NodeSet, Scratch};
}
