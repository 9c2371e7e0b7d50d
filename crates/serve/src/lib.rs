//! `minctx-serve`: a concurrent query service over shared, immutable
//! documents.
//!
//! The rest of the workspace is deliberately single-threaded per
//! evaluation; this crate adds the serving layer the paper's
//! complexity results make attractive: because every evaluator is
//! polynomial-time over an *immutable* arena [`Document`](minctx_xml::Document) (and the
//! mmap-able snapshot form is zero-copy), one document can serve many
//! concurrent queries with no copies and no locks on the data itself.
//!
//! * [`ServeEngine`] — N worker threads pulling `(corpus, query)` jobs
//!   off one MPMC queue; each submission returns a [`Ticket`].
//! * Two LRUs shared by the pool, one lock each: mapped snapshots keyed by
//!   **content stamp** (peeked from the 104-byte snapshot header, no
//!   full-file scan), and compiled queries keyed by
//!   `(query text, doc stamp)`.
//! * Per-request [`Budget`](minctx_core::Budget)s — fuel and/or
//!   deadline — anchored at submission time, so queue wait counts and a
//!   saturated pool sheds load as
//!   [`BudgetExhausted`](minctx_core::EvalError::BudgetExhausted)
//!   rather than stretching tail latency.
//! * Fault tolerance: panics are contained per request
//!   ([`ServeError::WorkerPanicked`]) and the worker keeps serving on the
//!   pool's one engine, the caches recover from lock poisoning, and a
//!   bounded admission queue sheds overload as
//!   [`ServeError::Overloaded`].  The [`chaos`] module injects seeded
//!   panics inside the job fence and under a cache lock so these claims
//!   stay tested.
//!
//! ```
//! use minctx_core::Value;
//! use minctx_serve::{Corpus, ServeEngine};
//! use minctx_xml::parse;
//! use std::sync::Arc;
//!
//! let doc = Arc::new(parse("<a><b>1</b><b>2</b></a>").unwrap());
//! let serve = ServeEngine::builder().workers(2).build();
//! let tickets: Vec<_> = ["count(//b)", "sum(//b)"]
//!     .iter()
//!     .map(|q| serve.query(Corpus::Document(Arc::clone(&doc)), q))
//!     .collect();
//! let answers: Vec<Value> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
//! assert_eq!(answers, [Value::Number(2.0), Value::Number(3.0)]);
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod lru;
pub mod queue;
pub mod service;
pub(crate) mod sync;

pub use chaos::ChaosPlan;
pub use lru::SharedLru;
pub use queue::{PushError, Queue, TryPop};
pub use service::{
    Corpus, ServeBuilder, ServeEngine, ServeError, ServeStats, Ticket, QUERY_CACHE_CAPACITY,
};

// The service hands `ServeEngine` references and `Ticket`s across
// threads; both must be thread-safe by construction (tickets are Send
// but not Sync — each belongs to one waiter).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ServeEngine>();
    assert_send_sync::<Corpus>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<ServeStats>();
    assert_send_sync::<ChaosPlan>();
    assert_send::<Ticket>();
};
