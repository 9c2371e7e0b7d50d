//! XPath 1.0 syntax: lexer, parser, normalizer, and the evaluation-ready
//! query representation for the `minctx` engine.
//!
//! The pipeline is
//!
//! ```text
//! &str ──lexer──▶ tokens ──parser──▶ AstExpr ──normalizer──▶ AstExpr (core form)
//!      ──lowering──▶ Query (arena parse tree with Relev / static types)
//! ```
//!
//! * [`lexer`] tokenizes per the XPath 1.0 grammar, including the
//!   special disambiguation rules of spec §3.7 (`*` as operator vs. node
//!   test, `and`/`or`/`div`/`mod` as operators vs. names).
//! * [`parser`] implements the full grammar (both abbreviated and
//!   unabbreviated syntax); abbreviations are expanded while parsing.
//! * [`normalize`](normalize()) brings queries into the paper's assumed form
//!   (Section 2.2) in one walk of the tree: all type conversions explicit,
//!   variables substituted by constants, number predicates rewritten to
//!   `position() = n`, zero-arg context functions expanded, `id(id(π))`
//!   rewritten to the id-"axis" (Section 4), and unions lifted out of
//!   existential contexts.
//! * [`query`] lowers the normalized AST to an arena [`query::Query`] whose
//!   [`query::ExprId`]s index the context-value tables of the evaluators,
//!   and computes the relevant-context sets `Relev(N)` of Section 3.1 and
//!   static result types — through the same [`QueryBuilder`] the rewriter
//!   in `minctx-core` rebuilds queries with, so both type a node by one
//!   rule.
//!
//! # Example
//!
//! ```
//! use minctx_syntax::parse_xpath;
//!
//! let q = parse_xpath("/descendant::*[position() > last()*0.5 or self::* = 100]").unwrap();
//! assert!(q.root_is_path());
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod query;

pub use ast::{ArithOp, AstExpr, AstPath, AstStep, CmpOp};
pub use lexer::{tokenize, Token, TokenKind};
pub use normalize::{normalize, Bindings};
pub use parser::{parse_expr, ParseError, ParseErrorKind, MAX_QUERY_DEPTH, MAX_QUERY_LEN};
pub use query::{ExprId, Func, Node, PathStart, Query, QueryBuilder, Relev, Step, ValueType};

/// Parses, normalizes (with no variable bindings) and lowers an XPath 1.0
/// expression in one call.
pub fn parse_xpath(input: &str) -> Result<Query, ParseError> {
    parse_xpath_with_bindings(input, &Bindings::default())
}

/// Like [`parse_xpath`], with variable bindings substituted during
/// normalization (the paper assumes "each variable is replaced by the
/// (constant) value of the input variable binding", Section 2.2).
pub fn parse_xpath_with_bindings(input: &str, bindings: &Bindings) -> Result<Query, ParseError> {
    let ast = parse_expr(input)?;
    let normalized = normalize(ast, bindings)?;
    Ok(query::lower(&normalized))
}
