//! The streamable-fragment classifier.
//!
//! [`classify`] decides statically — before any input is read — whether a
//! lowered [`Query`] can be answered by the one-pass streaming engine, and
//! if not, which construct forces the arena path.  It is implemented *as*
//! the stream compiler with the compiled automaton discarded, so the
//! classifier and the engine can never disagree about the fragment.
//!
//! The accepted fragment, precisely:
//!
//! * the query root is a location path, `count(path)` or `boolean(path)`;
//! * the path starts at the root (absolute) or at the evaluation context
//!   (which for whole-document streaming *is* the root);
//! * every step's axis is `self`, `child`, `descendant`,
//!   `descendant-or-self` or `attribute`;
//! * every predicate is position-free (no `position()`/`last()` in its
//!   [`Relev`](minctx_syntax::Relev) set) and built from `and` / `or` /
//!   `not(...)` / `true()` / `false()` over relative forward paths
//!   (existence tests) and `π op literal` comparisons whose `π` ends in a
//!   node that carries its own string value (attribute, `text()`,
//!   `comment()`, `processing-instruction()`).
//!
//! Classify the *rewritten* query (post [`minctx_core::rewrite()`]) to get
//! the widest fragment: the rewriter fuses `//`-chains and normalizes
//! reverse axes away where possible, turning e.g. `a/parent::node()`
//! (reverse, rejected) into `self::node()[a]` (accepted).

use crate::compile;
use minctx_syntax::Query;
use std::fmt;

/// The classifier's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Streamability {
    /// The one-pass engine answers this query exactly.
    Streamable,
    /// The named construct needs a materialized document.
    NeedsArena(&'static str),
}

impl Streamability {
    /// Whether the query streams.
    pub fn is_streamable(self) -> bool {
        matches!(self, Streamability::Streamable)
    }

    /// The fallback reason, if any.
    pub fn reason(self) -> Option<&'static str> {
        match self {
            Streamability::Streamable => None,
            Streamability::NeedsArena(r) => Some(r),
        }
    }
}

impl fmt::Display for Streamability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Streamability::Streamable => f.write_str("streamable"),
            Streamability::NeedsArena(r) => write!(f, "needs arena: {r}"),
        }
    }
}

/// Classifies a query for streaming evaluation.  Static — reads no input,
/// builds no document.
pub fn classify(query: &Query) -> Streamability {
    match compile::compile(query) {
        Ok(_) => Streamability::Streamable,
        Err(r) => Streamability::NeedsArena(r),
    }
}

/// The stable reason strings [`classify`] can report (re-exported from the
/// compiler so tests and diagnostics can match on them).
pub use crate::compile::reason;

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_core::rewrite;
    use minctx_syntax::parse_xpath;

    #[test]
    fn rewriting_widens_the_fragment() {
        // Raw `//a/b/..` has a reverse step; the rewriter flips it into a
        // forward existence test, which classifies as streamable.
        let q = parse_xpath("//a/b/..").unwrap();
        assert_eq!(
            classify(&q),
            Streamability::NeedsArena(reason::REVERSE_AXIS)
        );
        assert!(classify(&rewrite(&q)).is_streamable());
    }

    #[test]
    fn verdict_accessors() {
        let q = parse_xpath("//a[2]").unwrap();
        let v = classify(&q);
        assert!(!v.is_streamable());
        assert_eq!(v.reason(), Some(reason::POSITIONAL));
        assert!(v.to_string().contains("position"));
        assert_eq!(
            classify(&parse_xpath("//a").unwrap()),
            Streamability::Streamable
        );
    }
}
