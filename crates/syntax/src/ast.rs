//! The parsed XPath 1.0 abstract syntax tree.
//!
//! [`AstExpr`] mirrors the surface grammar (after abbreviation expansion,
//! which the parser performs: `//` becomes a `descendant-or-self::node()`
//! step, `.` becomes `self::node()`, `..` becomes `parent::node()`, `@n`
//! becomes `attribute::n`, and a step without an axis gets `child::`).
//!
//! The [`normalize`](crate::normalize()) pass transforms this tree into the
//! paper's assumed core form; [`query::lower`](crate::query::lower) then
//! produces the arena representation used by the evaluators.

use minctx_xml::axes::{Axis, NodeTest};
use std::fmt;

/// Comparison operators (`RelOp` / `EqOp` in Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether this is one of the equality operators (`=`, `!=`), which
    /// have different mixed-type semantics than the relational ones.
    pub fn is_equality(self) -> bool {
        matches!(self, CmpOp::Eq | CmpOp::Neq)
    }

    /// The XPath spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The comparison with operand order swapped (`a op b ⇔ b op.swap() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Arithmetic operators (`ArithOp` in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    /// The XPath spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed XPath 1.0 expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `e1 or e2`
    Or(Box<AstExpr>, Box<AstExpr>),
    /// `e1 and e2`
    And(Box<AstExpr>, Box<AstExpr>),
    /// `e1 RelOp e2`
    Compare(CmpOp, Box<AstExpr>, Box<AstExpr>),
    /// `e1 ArithOp e2`
    Arith(ArithOp, Box<AstExpr>, Box<AstExpr>),
    /// `- e`
    Neg(Box<AstExpr>),
    /// `e1 | e2`
    Union(Box<AstExpr>, Box<AstExpr>),
    /// A location path.
    Path(AstPath),
    /// A filter expression with an optional trailing relative path:
    /// `primary[p1]…[pk]` or `primary[p]…/step/step…`.
    Filter {
        primary: Box<AstExpr>,
        predicates: Vec<AstExpr>,
        /// Trailing location steps (empty when the filter stands alone).
        steps: Vec<AstStep>,
    },
    /// A function call with an as-yet unresolved name.
    Call(String, Vec<AstExpr>),
    /// `$name`
    Var(String),
    /// A number literal.
    Number(f64),
    /// A string literal.
    Literal(String),
}

/// A parsed location path.
#[derive(Debug, Clone, PartialEq)]
pub struct AstPath {
    /// `true` for `/…` (evaluation starts at the root).
    pub absolute: bool,
    pub steps: Vec<AstStep>,
}

/// One location step `axis::test[pred]…[pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AstStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<AstExpr>,
}

impl AstStep {
    /// A step with no predicates.
    pub fn simple(axis: Axis, test: NodeTest) -> AstStep {
        AstStep {
            axis,
            test,
            predicates: Vec::new(),
        }
    }
}

impl AstExpr {
    /// Convenience: a `boolean(e)` call.
    pub fn boolean(e: AstExpr) -> AstExpr {
        AstExpr::Call("boolean".to_string(), vec![e])
    }

    /// Convenience: a `string(e)` call.
    pub fn string(e: AstExpr) -> AstExpr {
        AstExpr::Call("string".to_string(), vec![e])
    }

    /// Convenience: a `number(e)` call.
    pub fn number_of(e: AstExpr) -> AstExpr {
        AstExpr::Call("number".to_string(), vec![e])
    }

    /// Whether the expression is syntactically a location path (possibly
    /// the bare `/`).
    pub fn is_path(&self) -> bool {
        matches!(self, AstExpr::Path(_))
    }
}

impl fmt::Display for AstExpr {
    /// Renders in unabbreviated XPath syntax; reparsing the result yields
    /// an equal tree (property-tested in the parser module).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstExpr::Or(a, b) => write!(f, "({a} or {b})"),
            AstExpr::And(a, b) => write!(f, "({a} and {b})"),
            AstExpr::Compare(op, a, b) => write!(f, "({a} {op} {b})"),
            AstExpr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            AstExpr::Neg(e) => write!(f, "(-{e})"),
            AstExpr::Union(a, b) => write!(f, "({a} | {b})"),
            AstExpr::Path(p) => write!(f, "{p}"),
            AstExpr::Filter {
                primary,
                predicates,
                steps,
            } => {
                write!(f, "({primary})")?;
                for p in predicates {
                    write!(f, "[{p}]")?;
                }
                for s in steps {
                    write!(f, "/{s}")?;
                }
                Ok(())
            }
            AstExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            AstExpr::Var(v) => write!(f, "${v}"),
            AstExpr::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            AstExpr::Literal(s) => {
                if s.contains('\'') {
                    write!(f, "\"{s}\"")
                } else {
                    write!(f, "'{s}'")
                }
            }
        }
    }
}

impl fmt::Display for AstPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute {
            write!(f, "/")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for AstStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.axis, self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_swapped_is_involutive_on_strict() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.swapped().swapped(), op);
        }
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn display_of_simple_expressions() {
        let e = AstExpr::Arith(
            ArithOp::Mul,
            Box::new(AstExpr::Call("last".into(), vec![])),
            Box::new(AstExpr::Number(0.5)),
        );
        assert_eq!(e.to_string(), "(last() * 0.5)");
        assert_eq!(AstExpr::Number(3.0).to_string(), "3");
        assert_eq!(AstExpr::Literal("hi".into()).to_string(), "'hi'");
        assert_eq!(AstExpr::Literal("it's".into()).to_string(), "\"it's\"");
    }

    #[test]
    fn display_of_paths() {
        let p = AstPath {
            absolute: true,
            steps: vec![
                AstStep::simple(Axis::Descendant, NodeTest::Wildcard),
                AstStep {
                    axis: Axis::Child,
                    test: NodeTest::name("b"),
                    predicates: vec![AstExpr::Number(1.0)],
                },
            ],
        };
        assert_eq!(p.to_string(), "/descendant::*/child::b[1]");
    }

    #[test]
    fn is_equality() {
        assert!(CmpOp::Eq.is_equality());
        assert!(CmpOp::Neq.is_equality());
        assert!(!CmpOp::Lt.is_equality());
    }
}
