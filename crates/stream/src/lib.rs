//! # minctx-stream — one-pass SAX-style XPath evaluation
//!
//! The streaming evaluation subsystem: answers the **forward-axis
//! fragment** of XPath 1.0 in a single pass over XML *text* — an
//! [`io::Read`](std::io::Read) or a `&str` — without materializing a
//! [`Document`](minctx_xml::Document) arena.  `//item[@id]` over a
//! multi-gigabyte feed holds no node of the input: its memory is document
//! depth times the live automaton states, plus one predicate instance per
//! `item` and the result (cf. the tree-automata execution model of *XPath
//! Whole Query Optimization*, PAPERS.md).
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
//!   per open element, predicate subautomata, buffered emission), or the
//!   first non-streamable construct is reported;
//! * engine integration: [`StreamingEngine::evaluate_reader`] extends
//!   [`Engine`](minctx_core::Engine) — under
//!   [`Strategy::Streaming`](minctx_core::Strategy) it streams what the
//!   classifier accepts and falls back to parse-then-evaluate otherwise,
//!   reporting which construct forced the fallback.
//!
//! ```
//! use minctx_core::{Engine, Strategy};
//! use minctx_stream::{StreamingEngine, StreamValue};
//!
//! let engine = Engine::new(Strategy::Streaming);
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

pub use engine::{StreamOutcome, StreamingEngine, REASON_ARENA_STRATEGY};
pub use exec::{StreamMatch, StreamNodeKind, StreamValue};
pub use fragment::{classify, Streamability};
