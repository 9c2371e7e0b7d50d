//! Recursive-descent parser for the full XPath 1.0 grammar.
//!
//! Operator precedence follows the spec exactly:
//! `or` < `and` < `=`,`!=` < `<`,`<=`,`>`,`>=` < `+`,`-` <
//! `*`,`div`,`mod` < unary `-` < `|` < path.
//!
//! Abbreviations are expanded during parsing:
//! `//` → `/descendant-or-self::node()/`, `.` → `self::node()`,
//! `..` → `parent::node()`, `@n` → `attribute::n`, and a step with no axis
//! gets `child::`.

use crate::ast::{ArithOp, AstExpr, AstPath, AstStep, CmpOp};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use minctx_xml::axes::{Axis, NodeTest};
use std::fmt;

/// The longest query text, in bytes, the parser looks at.
pub const MAX_QUERY_LEN: usize = 1 << 16;

/// The tallest expression tree the parser builds, and the deepest it nests
/// its own recursion: parentheses, predicates, function arguments and unary
/// minus each open a level, and so does every operator of a left-associative
/// chain (`1+1+1+…` and `a|b|c|…` grow a left-deep tree without any parser
/// recursion).
///
/// Normalization, lowering, the rewriter, per-document compilation, every
/// evaluator, the stream compiler and `Drop` all recurse over that tree, so
/// bounding its height here bounds them all: the constant is chosen so that
/// a query *at* the limit runs through all of them in a debug build on a
/// 2 MiB-stack thread (`tests/query_bounds.rs` pins that).
pub const MAX_QUERY_DEPTH: usize = 64;

/// What a [`ParseError`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not an XPath 1.0 expression (or uses a function or
    /// construct this engine does not have).
    Syntax,
    /// The text is longer than `limit` ([`MAX_QUERY_LEN`]) bytes.
    TooLong { limit: usize },
    /// The expression nests deeper than `limit` ([`MAX_QUERY_DEPTH`]).
    TooDeep { limit: usize },
}

/// A parse (or lex) error with a byte offset into the query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub kind: ParseErrorKind,
    pub message: String,
    pub offset: usize,
}

impl ParseError {
    /// A [`ParseErrorKind::Syntax`] error.
    pub fn syntax(message: impl Into<String>, offset: usize) -> ParseError {
        ParseError {
            kind: ParseErrorKind::Syntax,
            message: message.into(),
            offset,
        }
    }

    fn too_deep(offset: usize) -> ParseError {
        ParseError {
            kind: ParseErrorKind::TooDeep {
                limit: MAX_QUERY_DEPTH,
            },
            message: format!("expression nests deeper than {MAX_QUERY_DEPTH} levels"),
            offset,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XPath parse error: {} (at offset {})",
            self.message, self.offset
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::syntax(e.message, e.offset)
    }
}

/// Parses an XPath 1.0 expression into an [`AstExpr`].
///
/// Input longer than [`MAX_QUERY_LEN`] or nesting deeper than
/// [`MAX_QUERY_DEPTH`] is refused with a typed error before anything
/// recurses over it.
pub fn parse_expr(input: &str) -> Result<AstExpr, ParseError> {
    if input.len() > MAX_QUERY_LEN {
        return Err(ParseError {
            kind: ParseErrorKind::TooLong {
                limit: MAX_QUERY_LEN,
            },
            message: format!(
                "query of {} bytes is longer than {MAX_QUERY_LEN}",
                input.len()
            ),
            offset: MAX_QUERY_LEN,
        });
    }
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        end_offset: input.len(),
        nesting: 0,
        height: 0,
    };
    let e = p.parse_binary(0)?;
    if p.pos < p.tokens.len() {
        return Err(p.error_here("unexpected trailing tokens"));
    }
    Ok(e)
}

/// A binary operator of one of the six left-associative levels above unary
/// minus — loosest first: `or`, `and`, equality, relational, additive,
/// multiplicative.
#[derive(Clone, Copy)]
enum BinaryOp {
    Or,
    And,
    Compare(CmpOp),
    Arith(ArithOp),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    end_offset: usize,
    /// How many parentheses, predicates, function arguments and unary
    /// minuses are open: the depth of the parser's own recursion.
    nesting: usize,
    /// The height of the tree the last `parse_*` call returned (a leaf is
    /// 1; for `parse_step`, of the tallest predicate, 0 without one).
    height: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset_here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or(self.end_offset)
    }

    fn error_here(&self, msg: &str) -> ParseError {
        let found = match self.peek() {
            Some(k) => format!("{msg}, found `{k}`"),
            None => format!("{msg}, found end of input"),
        };
        ParseError::syntax(found, self.offset_here())
    }

    /// Opens one level of parser recursion.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.nesting == MAX_QUERY_DEPTH {
            return Err(ParseError::too_deep(self.offset_here()));
        }
        self.nesting += 1;
        Ok(())
    }

    /// The height of a node whose tallest child is `child` high.
    fn above(&self, child: usize) -> Result<usize, ParseError> {
        if child >= MAX_QUERY_DEPTH {
            return Err(ParseError::too_deep(self.offset_here()));
        }
        Ok(child + 1)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error_here(&format!("expected {what}")))
        }
    }

    // ---- expression levels -------------------------------------------

    /// The binary operator at the cursor and its precedence level.
    fn binary_op(&self) -> Option<(usize, BinaryOp)> {
        use TokenKind as T;
        Some(match self.peek()? {
            T::Or => (0, BinaryOp::Or),
            T::And => (1, BinaryOp::And),
            T::Eq => (2, BinaryOp::Compare(CmpOp::Eq)),
            T::Neq => (2, BinaryOp::Compare(CmpOp::Neq)),
            T::Lt => (3, BinaryOp::Compare(CmpOp::Lt)),
            T::Le => (3, BinaryOp::Compare(CmpOp::Le)),
            T::Gt => (3, BinaryOp::Compare(CmpOp::Gt)),
            T::Ge => (3, BinaryOp::Compare(CmpOp::Ge)),
            T::Plus => (4, BinaryOp::Arith(ArithOp::Add)),
            T::Minus => (4, BinaryOp::Arith(ArithOp::Sub)),
            T::Star => (5, BinaryOp::Arith(ArithOp::Mul)),
            T::Div => (5, BinaryOp::Arith(ArithOp::Div)),
            T::Mod => (5, BinaryOp::Arith(ArithOp::Mod)),
            _ => return None,
        })
    }

    /// An expression of the operators at precedence `min` and tighter
    /// (0, `or`, is a whole expression), by precedence climbing: operands
    /// are unary expressions, and the right operand of an operator takes
    /// only tighter ones, which makes every level left-associative.  The
    /// loop nests one tree level per operator without recursing, so it is
    /// the height that bounds a chain.
    fn parse_binary(&mut self, min: usize) -> Result<AstExpr, ParseError> {
        let mut left = self.parse_unary()?;
        let mut height = self.height;
        while let Some((level, op)) = self.binary_op().filter(|&(level, _)| level >= min) {
            self.pos += 1;
            let right = Box::new(self.parse_binary(level + 1)?);
            height = self.above(height.max(self.height))?;
            let l = Box::new(left);
            left = match op {
                BinaryOp::Or => AstExpr::Or(l, right),
                BinaryOp::And => AstExpr::And(l, right),
                BinaryOp::Compare(op) => AstExpr::Compare(op, l, right),
                BinaryOp::Arith(op) => AstExpr::Arith(op, l, right),
            };
        }
        self.height = height;
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<AstExpr, ParseError> {
        if self.eat(&TokenKind::Minus) {
            self.enter()?;
            let e = self.parse_unary()?;
            self.nesting -= 1;
            self.height = self.above(self.height)?;
            Ok(AstExpr::Neg(Box::new(e)))
        } else {
            self.parse_union()
        }
    }

    fn parse_union(&mut self) -> Result<AstExpr, ParseError> {
        let mut left = self.parse_path_expr()?;
        let mut height = self.height;
        while self.eat(&TokenKind::Pipe) {
            let right = self.parse_path_expr()?;
            height = self.above(height.max(self.height))?;
            left = AstExpr::Union(Box::new(left), Box::new(right));
        }
        self.height = height;
        Ok(left)
    }

    // ---- paths --------------------------------------------------------

    /// Whether the upcoming tokens start a *location path* rather than a
    /// primary expression (XPath 1.0 §3.7 rule 2: a Name followed by `(`
    /// is a function call unless the name is a node type).
    fn at_location_path(&self) -> bool {
        match self.peek() {
            Some(
                TokenKind::Slash
                | TokenKind::SlashSlash
                | TokenKind::Dot
                | TokenKind::DotDot
                | TokenKind::At
                | TokenKind::WildcardName
                | TokenKind::PrefixWildcard(_),
            ) => true,
            Some(TokenKind::Name(name)) => match self.peek2() {
                Some(TokenKind::LParen) => is_node_type(name),
                _ => true,
            },
            _ => false,
        }
    }

    fn parse_path_expr(&mut self) -> Result<AstExpr, ParseError> {
        if self.at_location_path() {
            return Ok(AstExpr::Path(self.parse_location_path()?));
        }
        // FilterExpr: PrimaryExpr Predicate* ('/' | '//' RelativePath)?
        let primary = self.parse_primary()?;
        let mut tallest = self.height;
        let mut predicates = Vec::new();
        while self.peek() == Some(&TokenKind::LBracket) {
            predicates.push(self.parse_predicate()?);
            tallest = tallest.max(self.height);
        }
        let mut steps = Vec::new();
        tallest = tallest.max(self.parse_more_steps(&mut steps)?);
        if predicates.is_empty() && steps.is_empty() {
            Ok(primary)
        } else {
            self.height = self.above(tallest)?;
            Ok(AstExpr::Filter {
                primary: Box::new(primary),
                predicates,
                steps,
            })
        }
    }

    /// `('/' Step | '//' Step)*` onto `steps`; returns the height of the
    /// tallest predicate among them.
    fn parse_more_steps(&mut self, steps: &mut Vec<AstStep>) -> Result<usize, ParseError> {
        let mut tallest = 0;
        loop {
            if self.eat(&TokenKind::SlashSlash) {
                steps.push(AstStep::simple(Axis::DescendantOrSelf, NodeTest::AnyNode));
            } else if !self.eat(&TokenKind::Slash) {
                return Ok(tallest);
            }
            steps.push(self.parse_step()?);
            tallest = tallest.max(self.height);
        }
    }

    fn parse_location_path(&mut self) -> Result<AstPath, ParseError> {
        let mut steps = Vec::new();
        self.height = 0;
        let absolute = matches!(self.peek(), Some(TokenKind::Slash | TokenKind::SlashSlash));
        if self.eat(&TokenKind::SlashSlash) {
            steps.push(AstStep::simple(Axis::DescendantOrSelf, NodeTest::AnyNode));
            steps.push(self.parse_step()?);
        } else if !self.eat(&TokenKind::Slash) || self.at_step_start() {
            // Bare `/` is a complete absolute path; a step follows only if
            // one can start here.
            steps.push(self.parse_step()?);
        }
        let tallest = if steps.is_empty() {
            0
        } else {
            self.height.max(self.parse_more_steps(&mut steps)?)
        };
        self.height = self.above(tallest)?;
        Ok(AstPath { absolute, steps })
    }

    fn at_step_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                TokenKind::Dot
                    | TokenKind::DotDot
                    | TokenKind::At
                    | TokenKind::WildcardName
                    | TokenKind::PrefixWildcard(_)
                    | TokenKind::Name(_)
            )
        )
    }

    fn parse_step(&mut self) -> Result<AstStep, ParseError> {
        // Abbreviated steps.
        self.height = 0;
        if self.eat(&TokenKind::Dot) {
            return Ok(AstStep::simple(Axis::SelfAxis, NodeTest::AnyNode));
        }
        if self.eat(&TokenKind::DotDot) {
            return Ok(AstStep::simple(Axis::Parent, NodeTest::AnyNode));
        }
        // Axis specifier.
        let axis = if self.eat(&TokenKind::At) {
            Axis::Attribute
        } else if let (Some(TokenKind::Name(name)), Some(TokenKind::ColonColon)) =
            (self.peek(), self.peek2())
        {
            let axis = Axis::from_str_opt(name).ok_or_else(|| {
                ParseError::syntax(format!("unknown axis `{name}`"), self.offset_here())
            })?;
            self.pos += 2;
            axis
        } else {
            Axis::Child
        };
        // Node test.
        let test = self.parse_node_test()?;
        // Predicates.
        let (mut predicates, mut tallest) = (Vec::new(), 0);
        while self.peek() == Some(&TokenKind::LBracket) {
            predicates.push(self.parse_predicate()?);
            tallest = tallest.max(self.height);
        }
        self.height = tallest;
        Ok(AstStep {
            axis,
            test,
            predicates,
        })
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, ParseError> {
        match self.peek().cloned() {
            Some(TokenKind::WildcardName) => {
                self.pos += 1;
                Ok(NodeTest::Wildcard)
            }
            Some(TokenKind::PrefixWildcard(p)) => Err(ParseError::syntax(
                format!(
                    "namespace prefix wildcard `{p}:*` is not supported \
                     (namespaces are treated as plain names)"
                ),
                self.offset_here(),
            )),
            Some(TokenKind::Name(name)) => {
                if self.peek2() == Some(&TokenKind::LParen) && is_node_type(&name) {
                    self.pos += 2; // name (
                    let test = match name.as_str() {
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        "node" => NodeTest::AnyNode,
                        "processing-instruction" => {
                            if let Some(TokenKind::Literal(target)) = self.peek().cloned() {
                                self.pos += 1;
                                NodeTest::Pi(Some(target.as_str().into()))
                            } else {
                                NodeTest::Pi(None)
                            }
                        }
                        _ => unreachable!("is_node_type checked"),
                    };
                    self.expect(&TokenKind::RParen, "`)` after node type test")?;
                    Ok(test)
                } else {
                    self.pos += 1;
                    Ok(NodeTest::name(&name))
                }
            }
            _ => Err(self.error_here("expected a node test")),
        }
    }

    fn parse_predicate(&mut self) -> Result<AstExpr, ParseError> {
        self.expect(&TokenKind::LBracket, "`[`")?;
        let e = self.parse_nested()?;
        self.expect(&TokenKind::RBracket, "`]` after predicate")?;
        Ok(e)
    }

    /// A full expression one level of parser recursion down: inside
    /// parentheses, a predicate or an argument list.
    fn parse_nested(&mut self) -> Result<AstExpr, ParseError> {
        self.enter()?;
        let e = self.parse_binary(0)?;
        self.nesting -= 1;
        Ok(e)
    }

    // ---- primaries ------------------------------------------------------

    fn parse_primary(&mut self) -> Result<AstExpr, ParseError> {
        self.height = 1;
        match self.bump() {
            Some(TokenKind::Variable(v)) => Ok(AstExpr::Var(v)),
            Some(TokenKind::Number(n)) => Ok(AstExpr::Number(n)),
            Some(TokenKind::Literal(s)) => Ok(AstExpr::Literal(s)),
            Some(TokenKind::LParen) => {
                let e = self.parse_nested()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            Some(TokenKind::Name(name)) => {
                // Must be a function call (location paths were diverted in
                // parse_path_expr).
                self.expect(&TokenKind::LParen, "`(` after function name")?;
                let (mut args, mut tallest) = (Vec::new(), 0);
                if self.peek() != Some(&TokenKind::RParen) {
                    loop {
                        args.push(self.parse_nested()?);
                        tallest = tallest.max(self.height);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen, "`)` after arguments")?;
                self.height = self.above(tallest)?;
                Ok(AstExpr::Call(name, args))
            }
            Some(other) => Err(ParseError::syntax(
                format!("expected an expression, found `{other}`"),
                self.tokens[self.pos - 1].offset,
            )),
            None => Err(ParseError::syntax(
                "expected an expression, found end of input",
                self.end_offset,
            )),
        }
    }
}

fn is_node_type(name: &str) -> bool {
    matches!(name, "comment" | "text" | "processing-instruction" | "node")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(s: &str) -> AstExpr {
        parse_expr(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    /// Parse → display → parse must be a fixed point.
    fn round_trips(s: &str) {
        let e1 = parse_ok(s);
        let printed = e1.to_string();
        let e2 = parse_expr(&printed).unwrap_or_else(|err| panic!("reparse {printed:?}: {err}"));
        assert_eq!(e1, e2, "round trip of {s:?} via {printed:?}");
    }

    #[test]
    fn bare_root() {
        let e = parse_ok("/");
        match e {
            AstExpr::Path(p) => {
                assert!(p.absolute);
                assert!(p.steps.is_empty());
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn abbreviations_expand() {
        let e = parse_ok("//a/.././@b");
        let AstExpr::Path(p) = e else { panic!() };
        assert!(p.absolute);
        let rendered: Vec<String> = p.steps.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "descendant-or-self::node()",
                "child::a",
                "parent::node()",
                "self::node()",
                "attribute::b",
            ]
        );
    }

    #[test]
    fn unabbreviated_axes() {
        for axis in [
            "self",
            "child",
            "parent",
            "descendant",
            "ancestor",
            "descendant-or-self",
            "ancestor-or-self",
            "following",
            "preceding",
            "following-sibling",
            "preceding-sibling",
            "attribute",
        ] {
            let q = format!("{axis}::*");
            let AstExpr::Path(p) = parse_ok(&q) else {
                panic!()
            };
            assert_eq!(p.steps[0].axis.as_str(), axis);
        }
        assert!(parse_expr("sideways::*").is_err());
    }

    #[test]
    fn node_tests() {
        let AstExpr::Path(p) = parse_ok(
            "child::text()/child::comment()/child::node()/child::processing-instruction('x')",
        ) else {
            panic!()
        };
        assert_eq!(p.steps[0].test, NodeTest::Text);
        assert_eq!(p.steps[1].test, NodeTest::Comment);
        assert_eq!(p.steps[2].test, NodeTest::AnyNode);
        assert_eq!(p.steps[3].test, NodeTest::Pi(Some("x".into())));
    }

    #[test]
    fn operator_precedence() {
        // or < and
        let e = parse_ok("1 or 2 and 3");
        assert!(matches!(e, AstExpr::Or(..)));
        // = < relational? No: equality is *lower* precedence than relational.
        let e = parse_ok("1 = 2 < 3");
        let AstExpr::Compare(CmpOp::Eq, _, r) = e else {
            panic!()
        };
        assert!(matches!(*r, AstExpr::Compare(CmpOp::Lt, ..)));
        // + < *
        let e = parse_ok("1 + 2 * 3");
        let AstExpr::Arith(ArithOp::Add, _, r) = e else {
            panic!()
        };
        assert!(matches!(*r, AstExpr::Arith(ArithOp::Mul, ..)));
        // unary minus binds tighter than *
        let e = parse_ok("-1 * 2");
        assert!(matches!(e, AstExpr::Arith(ArithOp::Mul, ..)));
        // double negation
        let e = parse_ok("--1");
        assert!(matches!(e, AstExpr::Neg(..)));
    }

    #[test]
    fn left_associativity() {
        let e = parse_ok("1 - 2 - 3");
        // ((1-2)-3)
        let AstExpr::Arith(ArithOp::Sub, l, _) = e else {
            panic!()
        };
        assert!(matches!(*l, AstExpr::Arith(ArithOp::Sub, ..)));
        let e = parse_ok("8 div 4 div 2");
        let AstExpr::Arith(ArithOp::Div, l, _) = e else {
            panic!()
        };
        assert!(matches!(*l, AstExpr::Arith(ArithOp::Div, ..)));
    }

    #[test]
    fn union_of_paths() {
        let e = parse_ok("a | b | c");
        let AstExpr::Union(l, _) = e else { panic!() };
        assert!(matches!(*l, AstExpr::Union(..)));
    }

    #[test]
    fn function_calls() {
        let e = parse_ok("concat('a', 'b', 'c')");
        let AstExpr::Call(name, args) = e else {
            panic!()
        };
        assert_eq!(name, "concat");
        assert_eq!(args.len(), 3);
        let e = parse_ok("true()");
        assert!(matches!(e, AstExpr::Call(n, a) if n == "true" && a.is_empty()));
    }

    #[test]
    fn filter_expressions() {
        let e = parse_ok("(//a)[1]");
        let AstExpr::Filter {
            predicates, steps, ..
        } = e
        else {
            panic!()
        };
        assert_eq!(predicates.len(), 1);
        assert!(steps.is_empty());

        let e = parse_ok("id('x')/child::b");
        let AstExpr::Filter { primary, steps, .. } = e else {
            panic!()
        };
        assert!(matches!(*primary, AstExpr::Call(..)));
        assert_eq!(steps.len(), 1);

        let e = parse_ok("id('x')//b");
        let AstExpr::Filter { steps, .. } = e else {
            panic!()
        };
        assert_eq!(steps.len(), 2); // descendant-or-self::node() + child::b
    }

    #[test]
    fn predicates_nest() {
        let e = parse_ok("a[b[c]]");
        let AstExpr::Path(p) = e else { panic!() };
        let AstExpr::Path(inner) = &p.steps[0].predicates[0] else {
            panic!()
        };
        assert_eq!(inner.steps[0].predicates.len(), 1);
    }

    #[test]
    fn multiple_predicates() {
        let AstExpr::Path(p) = parse_ok("a[1][2][last()]") else {
            panic!()
        };
        assert_eq!(p.steps[0].predicates.len(), 3);
    }

    #[test]
    fn paper_query_e_parses() {
        let e = parse_ok("/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]");
        let AstExpr::Path(p) = e else { panic!() };
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[1].predicates.len(), 1);
        let AstExpr::Or(l, r) = &p.steps[1].predicates[0] else {
            panic!()
        };
        assert!(matches!(**l, AstExpr::Compare(CmpOp::Gt, ..)));
        assert!(matches!(**r, AstExpr::Compare(CmpOp::Eq, ..)));
    }

    #[test]
    fn paper_query_q_parses() {
        let e = parse_ok(
            "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
             (preceding-sibling::*/preceding::* = 100)]/following::d)]",
        );
        let AstExpr::Path(p) = e else { panic!() };
        assert_eq!(p.steps.len(), 2);
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_expr("a[").unwrap_err();
        assert_eq!(err.offset, 2);
        let err = parse_expr("f(1,)").unwrap_err();
        assert!(err.offset >= 4);
        assert!(parse_expr("").is_err());
        assert!(parse_expr("a b").is_err());
        assert!(parse_expr(")").is_err());
        assert!(parse_expr("child::").is_err());
        assert!(parse_expr("//").is_err());
    }

    #[test]
    fn length_and_depth_are_bounded_with_typed_errors() {
        let deep = ParseErrorKind::TooDeep {
            limit: MAX_QUERY_DEPTH,
        };
        let n = MAX_QUERY_DEPTH;
        // Parser recursion: `n` open constructs parse, one more does not,
        // and the error points into the construct that went too far.
        let parens = |d: usize| format!("{}1{}", "(".repeat(d), ")".repeat(d));
        assert_eq!(parse_ok(&parens(n)), AstExpr::Number(1.0));
        let err = parse_expr(&parens(n + 1)).unwrap_err();
        assert_eq!((err.kind, err.offset), (deep, n + 1));
        // Tree height: a leaf is 1, so `n - 1` operators of a chain (which
        // nests without any recursion), minuses, predicates or calls fit.
        for unit in ["+a", "|a", " or a", " = a", " * a"] {
            assert!(parse_expr(&format!("a{}", unit.repeat(n - 1))).is_ok());
            let err = parse_expr(&format!("a{}", unit.repeat(n))).unwrap_err();
            assert_eq!(err.kind, deep, "{unit}");
        }
        for (open, close) in [("-", ""), ("a[", "]"), ("not(", ")"), ("a/b[", "]")] {
            let nest = |d: usize| format!("{}a{}", open.repeat(d), close.repeat(d));
            assert!(parse_expr(&nest(n - 1)).is_ok(), "{open}");
            assert_eq!(parse_expr(&nest(n)).unwrap_err().kind, deep, "{open}");
        }
        // Width is not depth: sibling predicates, arguments and steps.
        parse_ok(&format!("a{}", "[b]".repeat(4 * n)));
        parse_ok(&format!("concat('x'{})", ", 'y'".repeat(4 * n)));
        parse_ok(&format!("a{}", "/a".repeat(4 * n)));
        // Length is checked before the lexer runs.
        let long = "/a".repeat(MAX_QUERY_LEN / 2);
        assert!(parse_expr(&long).is_ok());
        let err = parse_expr(&format!("{long}/")).unwrap_err();
        let limit = MAX_QUERY_LEN;
        assert_eq!(err.kind, ParseErrorKind::TooLong { limit });
        assert_eq!(err.offset, MAX_QUERY_LEN);
        assert_eq!(parse_expr("a[").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn prefix_wildcard_rejected_gracefully() {
        let err = parse_expr("child::ns:*").unwrap_err();
        assert!(err.message.contains("not supported"));
    }

    #[test]
    fn round_trip_corpus() {
        for q in [
            "/",
            "/child::a",
            "//a[@id='x']/b[1]",
            "count(//item) > 3 and not(false())",
            "a | b | c/d",
            "-(-3) + 4 * 5 div 6 mod 7",
            "string(/a/b) = 'x'",
            "(//a)[2]/following-sibling::*[position() < last()]",
            "id('k1 k2')/..",
            "/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]",
            "sum(//price) div count(//price)",
            "processing-instruction('tgt')/self::node()",
            "../preceding::comment()[2]",
            "'literal with \"quotes\"'",
            "ancestor-or-self::*[2][3]",
        ] {
            round_trips(q);
        }
    }

    #[test]
    fn div_as_element_name() {
        // `div` at the start of a path is a name, not an operator.
        let AstExpr::Path(p) = parse_ok("div/mod") else {
            panic!()
        };
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].test, NodeTest::name("div"));
        assert_eq!(p.steps[1].test, NodeTest::name("mod"));
    }

    #[test]
    fn complex_mixed_expression() {
        round_trips(
            "boolean(/a/b[position() mod 2 = 0] | //c[contains(string(.), 'x')]) \
             or count(//d) >= 2",
        );
    }
}
