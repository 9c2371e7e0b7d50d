//! # minctx-stream — one-pass SAX-style XPath evaluation
//!
//! The streaming evaluation subsystem: answers the **forward-axis
//! fragment** of XPath 1.0 in a single pass over XML *text* — an
//! [`io::Read`](std::io::Read) or a `&str` — without materializing a
//! [`Document`](minctx_xml::Document) arena.  `//item[@id]` over a
//! multi-gigabyte feed holds no node of the input: its memory is document
//! depth times the live automaton states and predicate instances, plus the
//! result, and `count(//item[@id])` holds no more on a larger feed (cf. the
//! tree-automata execution model of *XPath Whole Query Optimization*,
//! PAPERS.md).
//!
//! Three layers:
//!
//! * the shared pull [`Tokenizer`](minctx_xml::token::Tokenizer) in
//!   `minctx-xml` — the workspace's one XML lexer, consumed by both the
//!   DOM builder and this crate, which is why streamed matches carry the
//!   *exact* pre-order ordinals the arena would assign;
//! * the [stream compiler](crate::compile::StreamQuery) and
//!   [classifier]([`fragment::classify`]): the rewritten query IR is
//!   lowered into a stack-machine automaton (two state stacks marked
//!   per open element, predicate subautomata decided as their elements
//!   close), or the first non-streamable construct is reported;
//! * engine integration: [`StreamingEngine::evaluate_reader`] extends
//!   [`Engine`](minctx_core::Engine) — under any strategy it streams what
//!   the classifier accepts (after the engine's rewriter, when its
//!   optimizer is on) and falls back to parse-then-evaluate by the
//!   engine's own strategy otherwise (MINCONTEXT under
//!   [`Strategy::Streaming`](minctx_core::Strategy::Streaming)), reporting
//!   which construct forced the fallback.
//!
//! ```
//! use minctx_core::{Engine, Strategy};
//! use minctx_stream::{StreamingEngine, StreamValue};
//!
//! let engine = Engine::new(Strategy::OptMinContext);
//! let query = minctx_syntax::parse_xpath("//item[@id]").unwrap();
//! let xml = r#"<site><item id="a"/><item/><item id="b"/></site>"#;
//! let out = engine.evaluate_reader_str(&query, xml).unwrap();
//! let StreamValue::Nodes(matches) = out.streamed().unwrap() else { panic!() };
//! assert_eq!(matches.len(), 2); // no Document was built
//! ```

#![forbid(unsafe_code)]

pub mod compile;
mod exec;
pub mod fragment;

mod engine;

pub use engine::{StreamOutcome, StreamingEngine};
pub use exec::{StreamMatch, StreamNodeKind, StreamValue};
pub use fragment::{classify, Streamability};
