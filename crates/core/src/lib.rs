//! The `minctx` evaluation layer: four interchangeable XPath 1.0
//! evaluators behind one [`Engine`].
//!
//! This crate implements the algorithmic content of *"XPath Query
//! Evaluation: Improving Time and Space Efficiency"* (Gottlob, Koch,
//! Pichler — ICDE 2003):
//!
//! | [`Strategy`]                    | Algorithm                               | Complexity                   |
//! |---------------------------------|-----------------------------------------|------------------------------|
//! | [`Strategy::Naive`]             | context-at-a-time recursion (Section 1) | exponential in query size    |
//! | [`Strategy::ContextValueTable`] | bottom-up full tables (VLDB 2002)       | polynomial, cubic space      |
//! | [`Strategy::MinContext`]        | relevant-context evaluation (Section 3) | polynomial, minimal contexts |
//! | [`Strategy::OptMinContext`]     | + backward axis propagation (Section 4) | polynomial, linear predicates|
//!
//! All strategies share one [`Value`] domain, one conversion/comparison
//! library ([`value`], [`funcs`]), and one lowered query representation
//! ([`minctx_syntax::Query`]) — so they are differentially testable against
//! each other.  [`Engine`] picks the evaluator with one `match` on its
//! [`Strategy`].
//!
//! ```
//! use minctx_core::{Engine, Strategy};
//! use minctx_xml::parse;
//!
//! let doc = parse("<a><b>1</b><b>2</b><c>3</c></a>").unwrap();
//! for strategy in Strategy::ALL {
//!     let v = Engine::new(strategy)
//!         .evaluate_str(&doc, "/a/*[position() = last()]")
//!         .unwrap();
//!     let ns = v.into_node_set().unwrap();
//!     assert_eq!(ns.len(), 1); // the <c>
//! }
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod compile;
pub mod engine;
pub mod error;
pub mod explain;
pub mod funcs;
mod memo;
pub mod mincontext;
pub mod naive;
pub mod rewrite;
pub mod tables;
pub mod value;

pub use budget::{Budget, BudgetMeter};
pub use cache::LruCache;
pub use compile::CompiledQuery;
pub use engine::{Context, Engine, Strategy};
pub use error::{EvalError, Exhausted};
pub use explain::{PredMode, QueryProfile, StepProfile};
pub use mincontext::MinContext;
// The kernel-route label `Engine::explain` reports per step, re-exported
// so profile consumers match on it without a direct xml dependency.
pub use minctx_xml::AxisRoute;
// The persistent-index backend, re-exported so engine users reach
// `open_snapshot`/`write_snapshot` (open once, then `Engine::evaluate`
// the returned document) without a separate dependency.
pub use minctx_index::{
    open_snapshot, open_snapshot_or_quarantine, quarantine_snapshot, snapshot_stamp, stale_temps,
    write_snapshot, SnapshotError, SnapshotInfo,
};
pub use naive::Naive;
pub use rewrite::{rewrite, rewrite_traced, RewriteTrace, Rule};
pub use tables::ContextValueTables;
pub use value::Value;

// Concurrent-serving audit (DESIGN.md "Concurrent service"): everything
// a `minctx-serve` worker pool shares across threads — the engine (its
// caches behind mutexes, scratch pooled), compiled queries, values, and
// errors — must be thread-safe, checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<CompiledQuery>();
    assert_send_sync::<Value>();
    assert_send_sync::<EvalError>();
    assert_send_sync::<Budget>();
    assert_send_sync::<BudgetMeter>();
    assert_send_sync::<QueryProfile>();
};
