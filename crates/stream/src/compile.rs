//! The stream compiler: lowering an arena [`Query`] into the stack-machine
//! automaton the one-pass executor runs.
//!
//! `compile` either produces a [`StreamQuery`] — a set of step
//! `Program`s (the main path plus one program per predicate atom) over
//! the forward-axis fragment — or reports the first construct that forces
//! the arena path, as a stable `&'static str` reason.  The classifier
//! ([`crate::fragment::classify`]) is exactly this compiler with the
//! result discarded, so "classifier accepts" and "compiler succeeds" can
//! never drift apart.
//!
//! The compiler is document-independent: node tests keep their names and
//! are compared against event names at run time (there is no name table
//! to resolve against — the whole point is that no document is built).

use minctx_core::value::{compare_scalars, Value};
use minctx_syntax::{CmpOp, ExprId, Func, Node, PathStart, Query, Step};
use minctx_xml::axes::{Axis, NodeTest};

/// Index of a [`Program`] in [`StreamQuery::programs`].
pub(crate) type ProgId = usize;

/// The streamable axes: every step of every program walks strictly
/// forward and strictly downward (or sideways onto attributes), which is
/// what lets one document pass with a state stack answer the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SAxis {
    SelfAxis,
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
}

/// A node test compiled against its axis's principal type (names stay
/// strings; matching is per-event string comparison).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum STest {
    /// `node()` on a tree or self axis: any event node.
    AnyNode,
    /// `*` on a tree axis.
    Element,
    /// A name test on a tree axis.
    ElementNamed(Box<str>),
    /// `*` or `node()` on the attribute axis.
    AnyAttr,
    /// A name test on the attribute axis.
    AttrNamed(Box<str>),
    Text,
    Comment,
    PiAny,
    PiNamed(Box<str>),
    /// A kind test that can never match on this axis (e.g.
    /// `attribute::text()`).
    Never,
}

/// A literal scalar a predicate compares node string values against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Lit {
    Num(f64),
    Str(Box<str>),
}

/// One compiled location step.
#[derive(Debug, Clone)]
pub(crate) struct CStep {
    pub axis: SAxis,
    pub test: STest,
    /// Existential string-value comparison a matched node must also pass
    /// (compiled from `π op literal` predicates; final steps of atom
    /// programs only, and only where the matched node carries its own
    /// string value — attributes, text, comments, PIs).
    pub value_check: Option<(CmpOp, Lit)>,
    /// Predicate instances to open when a node matches this step.
    pub preds: Vec<PredTree>,
}

/// A compiled predicate: a boolean tree over existence atoms.  Each
/// instance (one per node matching the owning step) allocates
/// `atom_progs.len()` atom cells; atom `i` is true iff program
/// `atom_progs[i]`, run from the matching node, finds a witness.
#[derive(Debug, Clone)]
pub(crate) struct PredTree {
    pub expr: PExpr,
    pub atom_progs: Vec<ProgId>,
}

/// The boolean structure of a predicate.
#[derive(Debug, Clone)]
pub(crate) enum PExpr {
    /// Slot into the owning tree's atom cells.
    Atom(usize),
    Not(Box<PExpr>),
    And(Box<PExpr>, Box<PExpr>),
    Or(Box<PExpr>, Box<PExpr>),
    Const(bool),
}

/// A step chain run from an origin node (the document root for the main
/// program, the candidate node for predicate atoms).
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    pub steps: Vec<CStep>,
}

/// What the query's root expression asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultKind {
    /// The matched node-set itself, in document order.
    Nodes,
    /// `count(π)` — matched nodes are counted, not captured.
    Count,
    /// `boolean(π)` — the stream stops at the first unconditional match.
    Exists,
}

/// A query compiled for one-pass streaming evaluation.
#[derive(Debug, Clone)]
pub struct StreamQuery {
    /// `programs[0]` is the main path; the rest are predicate atoms.
    pub(crate) programs: Vec<Program>,
    pub(crate) result: ResultKind,
}

impl StreamQuery {
    /// Number of compiled step programs (main path + predicate atoms).
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }
}

/// Compiles `query` for streaming, or names the construct that needs the
/// arena.  Callers normally pass the *rewritten* query (post
/// [`minctx_core::rewrite`]), which normalizes reverse axes away where
/// possible and therefore widens the accepted fragment.
pub(crate) fn compile(query: &Query) -> Result<StreamQuery, &'static str> {
    let mut c = Compiler {
        q: query,
        programs: vec![Program::default()],
    };
    let root = query.root();
    let (path, result) = match query.node(root) {
        Node::Path(..) => (root, ResultKind::Nodes),
        Node::Call(Func::Count, args) if matches!(query.node(args[0]), Node::Path(..)) => {
            (args[0], ResultKind::Count)
        }
        Node::Call(Func::Boolean, args) if matches!(query.node(args[0]), Node::Path(..)) => {
            (args[0], ResultKind::Exists)
        }
        Node::Union(..) => return Err(reason::UNION),
        _ => return Err(reason::NOT_A_PATH),
    };
    let steps = c.compile_path(path, true)?;
    c.programs[0].steps = steps;
    Ok(StreamQuery {
        programs: c.programs,
        result,
    })
}

/// The stable fallback reasons `compile` reports.  Public (via
/// `fragment`) so callers can match on them in diagnostics and tests.
pub mod reason {
    pub const NOT_A_PATH: &str =
        "query root is not a streamable location path (scalar results are computed on the arena)";
    pub const UNION: &str = "union results need cross-branch merging on the arena";
    pub const FILTER_START: &str = "filter-start path needs its primary expression materialized";
    pub const ABSOLUTE_PREDICATE: &str = "absolute path inside a predicate needs the arena";
    pub const REVERSE_AXIS: &str = "reverse axis needs the arena";
    pub const FOLLOWING_AXIS: &str = "following axes are not streamable yet";
    pub const ID_AXIS: &str = "id() dereferencing needs the document id index";
    pub const POSITIONAL: &str =
        "positional predicate (position()/last()) needs counted candidate lists";
    pub const ELEMENT_VALUE: &str =
        "comparison against an element or node() string value needs the arena";
    pub const NODESET_COMPARE: &str = "comparison between two node-sets needs the arena";
    pub const NON_LITERAL_COMPARE: &str =
        "comparison against a non-literal operand needs the arena";
    pub const PREDICATE_EXPR: &str = "predicate expression outside the streamable fragment";
}

struct Compiler<'q> {
    q: &'q Query,
    programs: Vec<Program>,
}

impl Compiler<'_> {
    /// Compiles a path node's steps.  `main` paths may be absolute or
    /// relative (both start at the document root for whole-document
    /// evaluation); predicate atom paths must be relative.
    fn compile_path(&mut self, id: ExprId, main: bool) -> Result<Vec<CStep>, &'static str> {
        let Node::Path(start, steps) = self.q.node(id) else {
            return Err(reason::NOT_A_PATH);
        };
        match start {
            PathStart::Root if main => {}
            PathStart::Root => return Err(reason::ABSOLUTE_PREDICATE),
            PathStart::Context => {}
            PathStart::Filter { .. } => return Err(reason::FILTER_START),
        }
        steps.iter().map(|s| self.compile_step(s)).collect()
    }

    fn compile_step(&mut self, step: &Step) -> Result<CStep, &'static str> {
        let axis = match step.axis {
            Axis::SelfAxis => SAxis::SelfAxis,
            Axis::Child => SAxis::Child,
            Axis::Descendant => SAxis::Descendant,
            Axis::DescendantOrSelf => SAxis::DescendantOrSelf,
            Axis::Attribute => SAxis::Attribute,
            Axis::Parent
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Preceding
            | Axis::PrecedingSibling => return Err(reason::REVERSE_AXIS),
            Axis::Following | Axis::FollowingSibling => return Err(reason::FOLLOWING_AXIS),
            Axis::Id => return Err(reason::ID_AXIS),
        };
        let test = compile_test(axis, &step.test);
        let mut preds = Vec::with_capacity(step.predicates.len());
        for &p in &step.predicates {
            let relev = self.q.relev(p);
            if relev.position() || relev.size() {
                return Err(reason::POSITIONAL);
            }
            let mut atom_progs = Vec::new();
            let expr = self.compile_pred(p, &mut atom_progs)?;
            preds.push(PredTree { expr, atom_progs });
        }
        Ok(CStep {
            axis,
            test,
            value_check: None,
            preds,
        })
    }

    /// Compiles a (position-free) predicate expression into a boolean tree
    /// over existence atoms.
    fn compile_pred(&mut self, id: ExprId, atoms: &mut Vec<ProgId>) -> Result<PExpr, &'static str> {
        match self.q.node(id) {
            Node::Call(Func::True, _) => Ok(PExpr::Const(true)),
            Node::Call(Func::False, _) => Ok(PExpr::Const(false)),
            Node::Call(Func::Not, args) => {
                let inner = self.compile_pred(args[0], atoms)?;
                Ok(PExpr::Not(Box::new(inner)))
            }
            Node::Call(Func::Boolean, args) if matches!(self.q.node(args[0]), Node::Path(..)) => {
                self.compile_exists(args[0], atoms)
            }
            // Defensive: the normalizer wraps truth-tested paths in
            // `boolean()`, but a bare path predicate is the same atom.
            Node::Path(..) => self.compile_exists(id, atoms),
            Node::And(a, b) => {
                let (a, b) = (*a, *b);
                let x = self.compile_pred(a, atoms)?;
                let y = self.compile_pred(b, atoms)?;
                Ok(PExpr::And(Box::new(x), Box::new(y)))
            }
            Node::Or(a, b) => {
                let (a, b) = (*a, *b);
                let x = self.compile_pred(a, atoms)?;
                let y = self.compile_pred(b, atoms)?;
                Ok(PExpr::Or(Box::new(x), Box::new(y)))
            }
            Node::Compare(op, a, b) => self.compile_compare(*op, *a, *b, atoms),
            _ => Err(reason::PREDICATE_EXPR),
        }
    }

    /// `boolean(π)`: an existence atom, or a constant when the path has no
    /// steps (`boolean(.)` is true at every node).
    fn compile_exists(
        &mut self,
        path: ExprId,
        atoms: &mut Vec<ProgId>,
    ) -> Result<PExpr, &'static str> {
        let steps = self.compile_path(path, false)?;
        if steps.is_empty() {
            return Ok(PExpr::Const(true));
        }
        let slot = atoms.len();
        atoms.push(self.add_program(steps));
        Ok(PExpr::Atom(slot))
    }

    /// `π op literal` (either orientation): an existence atom whose final
    /// step additionally checks the matched node's own string value —
    /// exactly the §3.4 existential node-set/scalar rule.
    fn compile_compare(
        &mut self,
        op: CmpOp,
        a: ExprId,
        b: ExprId,
        atoms: &mut Vec<ProgId>,
    ) -> Result<PExpr, &'static str> {
        let a_is_path = matches!(self.q.node(a), Node::Path(..));
        let b_is_path = matches!(self.q.node(b), Node::Path(..));
        let (path, lit_id, op) = match (a_is_path, b_is_path) {
            (true, true) => return Err(reason::NODESET_COMPARE),
            (true, false) => (a, b, op),
            (false, true) => (b, a, op.swapped()),
            (false, false) => {
                // Two scalars (reachable with the optimizer off): fold
                // through the shared comparison dispatch.
                let (Some(x), Some(y)) = (self.literal(a), self.literal(b)) else {
                    return Err(reason::NON_LITERAL_COMPARE);
                };
                return Ok(PExpr::Const(compare_scalars(op, &x, &y)));
            }
        };
        let lit = match self.q.node(lit_id) {
            Node::Number(n) => Lit::Num(*n),
            Node::Literal(s) => Lit::Str(s.clone()),
            _ => return Err(reason::NON_LITERAL_COMPARE),
        };
        let mut steps = self.compile_path(path, false)?;
        let Some(last) = steps.last_mut() else {
            // `. op lit` compares the candidate's own (possibly element)
            // string value.
            return Err(reason::ELEMENT_VALUE);
        };
        if !matches!(
            last.test,
            STest::AnyAttr
                | STest::AttrNamed(_)
                | STest::Text
                | STest::Comment
                | STest::PiAny
                | STest::PiNamed(_)
        ) {
            return Err(reason::ELEMENT_VALUE);
        }
        last.value_check = Some((op, lit));
        let slot = atoms.len();
        atoms.push(self.add_program(steps));
        Ok(PExpr::Atom(slot))
    }

    fn literal(&self, id: ExprId) -> Option<Value> {
        match self.q.node(id) {
            Node::Number(n) => Some(Value::Number(*n)),
            Node::Literal(s) => Some(Value::String(s.to_string())),
            Node::Call(Func::True, _) => Some(Value::Boolean(true)),
            Node::Call(Func::False, _) => Some(Value::Boolean(false)),
            _ => None,
        }
    }

    fn add_program(&mut self, steps: Vec<CStep>) -> ProgId {
        self.programs.push(Program { steps });
        self.programs.len() - 1
    }
}

/// Compiles a node test against its axis's principal node type.
fn compile_test(axis: SAxis, test: &NodeTest) -> STest {
    if axis == SAxis::Attribute {
        match test {
            NodeTest::Wildcard | NodeTest::AnyNode => STest::AnyAttr,
            NodeTest::Name(s) => STest::AttrNamed(s.clone()),
            NodeTest::Text | NodeTest::Comment | NodeTest::Pi(_) => STest::Never,
        }
    } else {
        match test {
            NodeTest::Wildcard => STest::Element,
            NodeTest::Name(s) => STest::ElementNamed(s.clone()),
            NodeTest::Text => STest::Text,
            NodeTest::Comment => STest::Comment,
            NodeTest::Pi(None) => STest::PiAny,
            NodeTest::Pi(Some(t)) => STest::PiNamed(t.clone()),
            NodeTest::AnyNode => STest::AnyNode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_core::rewrite;
    use minctx_syntax::parse_xpath;

    fn comp(src: &str) -> Result<StreamQuery, &'static str> {
        compile(&rewrite(&parse_xpath(src).unwrap()))
    }

    #[test]
    fn accepts_the_forward_fragment() {
        for q in [
            "/",
            "//item",
            "//item[@id]",
            "/site/*/item/@id",
            "//item[@id = 'id7']",
            "//a[b][not(c)]/d//text()",
            "count(//item)",
            "boolean(//item[@id and b])",
            "//a[b/@c = 2 or @x != 'y']",
            "//a[b/text() = 'v']",
            "//comment()",
            "//processing-instruction('p')",
        ] {
            assert!(comp(q).is_ok(), "{q} should compile");
        }
    }

    #[test]
    fn main_program_is_first_and_atoms_follow() {
        let sq = comp("//a[b][c/@x = 1]").unwrap();
        // main + one atom per predicate.
        assert_eq!(sq.program_count(), 3);
        assert_eq!(sq.result, ResultKind::Nodes);
        assert_eq!(comp("count(//a)").unwrap().result, ResultKind::Count);
        assert_eq!(comp("boolean(//a)").unwrap().result, ResultKind::Exists);
    }

    #[test]
    fn rejections_carry_stable_reasons() {
        for (q, want) in [
            ("1 + 2", reason::NOT_A_PATH),
            ("//a | //b", reason::UNION),
            ("(//a)[b]", reason::FILTER_START),
            ("//a[/b]", reason::ABSOLUTE_PREDICATE),
            ("//a/ancestor::b", reason::REVERSE_AXIS),
            ("//a/following::b", reason::FOLLOWING_AXIS),
            ("//a[2]", reason::POSITIONAL),
            ("//a[last()]", reason::POSITIONAL),
            ("//a[b = 1]", reason::ELEMENT_VALUE),
            ("//a[. = 'x']", reason::ELEMENT_VALUE),
            ("//a[b = c]", reason::NODESET_COMPARE),
            ("//a[@x = count(b)]", reason::NON_LITERAL_COMPARE),
            ("//a[string-length(@x) > 1]", reason::NON_LITERAL_COMPARE),
            ("//a[lang('en')]", reason::PREDICATE_EXPR),
            ("id(//a)", reason::ID_AXIS),
        ] {
            assert_eq!(comp(q).unwrap_err(), want, "{q}");
        }
    }

    #[test]
    fn attribute_axis_kind_tests_never_match() {
        let sq = comp("/a/attribute::node()").unwrap();
        assert_eq!(sq.programs[0].steps[1].test, STest::AnyAttr);
        let q = parse_xpath("/a/attribute::text()").unwrap();
        let sq = compile(&q).unwrap();
        assert_eq!(sq.programs[0].steps.last().unwrap().test, STest::Never);
    }

    #[test]
    fn scalar_only_comparisons_fold_to_constants() {
        // With the optimizer off nothing pre-folds `[1 = 2]`; the stream
        // compiler folds it through the same §3.4 dispatch.
        let q = parse_xpath("//a[1 = 2]").unwrap();
        let sq = compile(&q).unwrap();
        let pred = &sq.programs[0].steps.last().unwrap().preds[0];
        assert!(matches!(pred.expr, PExpr::Const(false)));
    }
}
