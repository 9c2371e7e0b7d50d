//! Evaluation errors.

use minctx_syntax::ParseError;
use minctx_xml::XmlError;
use std::fmt;

/// An error produced while compiling or evaluating an XPath query.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The query string failed to lex / parse / normalize.
    Parse(ParseError),
    /// The XML input failed to parse (document construction, or a
    /// malformed token met mid-stream by the `minctx-stream` one-pass
    /// evaluator — which may surface *after* partial results were seen,
    /// since streaming discovers malformedness only when it reaches it).
    Xml(XmlError),
    /// A value had the wrong type for the operation (cannot happen for
    /// queries produced by the normalizer, which makes all conversions
    /// explicit; kept for defense in depth and for [`crate::Value`]
    /// accessors).
    Type {
        expected: &'static str,
        got: &'static str,
    },
    /// The evaluator exhausted its [`Budget`](crate::Budget) before
    /// finishing: the fuel cap was spent or the wall-clock deadline
    /// passed.  Every strategy (including the streaming engine) meters
    /// its work, so a pathological query — e.g. the deliberately
    /// exponential [`Strategy::Naive`](crate::Strategy) baseline, or any
    /// evaluation a serving loop must bound — fails fast instead of
    /// running away.
    BudgetExhausted {
        /// Which limit ran out.
        cause: Exhausted,
    },
    /// The document exceeds an evaluator's structural capacity (e.g. the
    /// streaming engine's `u32` pre-order ordinals, kept in lockstep with
    /// arena `NodeId`s).
    DocumentTooLarge {
        /// Node count of the offending document.
        nodes: usize,
        /// The evaluator's hard limit.
        limit: usize,
    },
    /// A caller-supplied evaluation context is not a valid XPath context
    /// for the document (node out of range, or `position`/`size` not
    /// satisfying `1 ≤ position ≤ size ≤ |dom|`).
    InvalidContext {
        /// What was wrong with it.
        reason: &'static str,
    },
    /// Opening a persistent document snapshot failed (missing file,
    /// truncation, checksum mismatch, version skew — see
    /// [`minctx_index::SnapshotError`] for the full taxonomy).  Arc'd so
    /// evaluation errors stay cheaply clonable.
    Snapshot(std::sync::Arc<minctx_index::SnapshotError>),
}

/// Which [`Budget`](crate::Budget) limit an evaluation ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The fuel cap was spent.
    Fuel {
        /// The configured cap, in abstract work units.
        fuel: u64,
    },
    /// The wall-clock deadline passed.
    Deadline,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Parse(e) => write!(f, "{e}"),
            EvalError::Xml(e) => write!(f, "{e}"),
            EvalError::Type { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            EvalError::BudgetExhausted { cause } => match cause {
                Exhausted::Fuel { fuel } => {
                    write!(f, "evaluation fuel budget of {fuel} units exhausted")
                }
                Exhausted::Deadline => write!(f, "evaluation deadline exhausted"),
            },
            EvalError::DocumentTooLarge { nodes, limit } => {
                write!(
                    f,
                    "document has {nodes} nodes, above the evaluator's limit of {limit}"
                )
            }
            EvalError::InvalidContext { reason } => {
                write!(f, "invalid evaluation context: {reason}")
            }
            EvalError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Parse(e) => Some(e),
            EvalError::Xml(e) => Some(e),
            EvalError::Snapshot(e) => Some(&**e),
            _ => None,
        }
    }
}

impl From<ParseError> for EvalError {
    fn from(e: ParseError) -> Self {
        EvalError::Parse(e)
    }
}

impl From<XmlError> for EvalError {
    fn from(e: XmlError) -> Self {
        EvalError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = EvalError::Type {
            expected: "node-set",
            got: "number",
        };
        assert_eq!(e.to_string(), "type error: expected node-set, got number");
        let e = EvalError::BudgetExhausted {
            cause: Exhausted::Fuel { fuel: 42 },
        };
        assert!(e.to_string().contains("42"));
        let e = EvalError::BudgetExhausted {
            cause: Exhausted::Deadline,
        };
        assert!(e.to_string().contains("deadline"));
        let p: EvalError = ParseError::syntax("boom", 3).into();
        assert!(p.to_string().contains("boom"));
    }
}
