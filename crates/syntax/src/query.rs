//! Lowering of the normalized AST into the evaluation-ready [`Query`] arena.
//!
//! Every evaluator in `minctx-core` works over this representation:
//!
//! * [`Query`] is an arena of [`Node`]s indexed by [`ExprId`].  Children are
//!   lowered *before* their parents, so a single forward sweep over the ids
//!   visits the parse tree bottom-up — exactly the order in which the
//!   context-value-table evaluator fills its tables.
//! * Each node carries a static [`ValueType`] (every XPath 1.0 expression
//!   has one — Section 2.2 of the paper assumes all conversions explicit,
//!   which [`normalize`](crate::normalize()) guarantees).
//! * Each node carries its *relevant context* [`Relev`] (Section 3.1): the
//!   subset of the context triple `(x, k, n)` — context node, position,
//!   size — that the node's value actually depends on.  MINCONTEXT keys its
//!   memo tables on exactly these components, which is what removes the
//!   redundant dimensions from the context-value tables of the VLDB 2002
//!   predecessor algorithm.
//!
//! Location paths are *not* flattened into the arena: a [`Node::Path`] owns
//! its [`Step`] list directly (mirroring the paper's treatment of paths as
//! single parse-tree nodes with axis annotations), but every predicate is an
//! ordinary arena expression with its own `ExprId`, `ValueType` and `Relev`.

use crate::ast::{ArithOp, AstExpr, AstStep, CmpOp};
use minctx_xml::axes::{Axis, NodeTest};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Index of an expression node in a [`Query`] arena.
///
/// Ids are assigned in lowering order: every child id is strictly smaller
/// than its parent's id, and the root has the largest id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The static result type of an expression (Section 2.2: number, string,
/// boolean, or node-set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    NodeSet,
    Number,
    String,
    Boolean,
}

impl ValueType {
    /// Human-readable name (used in error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            ValueType::NodeSet => "node-set",
            ValueType::Number => "number",
            ValueType::String => "string",
            ValueType::Boolean => "boolean",
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The relevant context `Relev(N)` of a parse-tree node (Section 3.1): which
/// of the three context components — context *node* `x`, context *position*
/// `k`, context *size* `n` — the node's value depends on.
///
/// The paper's key observation is that full context-value tables range over
/// all triples `(x, k, n)` even when a subexpression ignores most of the
/// triple; restricting each table to `Relev(N)` is what makes MINCONTEXT's
/// space (and time) bounds minimal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Relev(u8);

impl Relev {
    /// Depends on nothing: constant over all contexts.
    pub const NONE: Relev = Relev(0);
    /// Depends on the context node `x`.
    pub const NODE: Relev = Relev(1);
    /// Depends on the context position `k` (`position()`).
    pub const POSITION: Relev = Relev(2);
    /// Depends on the context size `n` (`last()`).
    pub const SIZE: Relev = Relev(4);

    /// Set union of two relevance sets.
    #[inline]
    pub fn union(self, other: Relev) -> Relev {
        Relev(self.0 | other.0)
    }

    /// Whether every component of `other` is also relevant here.
    #[inline]
    pub fn contains(self, other: Relev) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the context node is relevant.
    #[inline]
    pub fn node(self) -> bool {
        self.contains(Relev::NODE)
    }

    /// Whether the context position is relevant.
    #[inline]
    pub fn position(self) -> bool {
        self.contains(Relev::POSITION)
    }

    /// Whether the context size is relevant.
    #[inline]
    pub fn size(self) -> bool {
        self.contains(Relev::SIZE)
    }

    /// Whether the node is context-independent (`Relev(N) = ∅`).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of relevant components (0–3); the dimensionality of the
    /// minimal context-value table for the node.
    pub fn arity(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl fmt::Debug for Relev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Relev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (bit, name) in [
            (Relev::NODE, "node"),
            (Relev::POSITION, "position"),
            (Relev::SIZE, "size"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

/// The XPath 1.0 core function library, resolved from names during lowering
/// (the normalizer has already validated names, arities and argument types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    // Context functions (Section 2.2's `position` and `last`).
    Position,
    Last,
    // Node-set functions.
    Count,
    Id,
    LocalName,
    NamespaceUri,
    Name,
    Sum,
    // String functions.
    String,
    Concat,
    StartsWith,
    Contains,
    SubstringBefore,
    SubstringAfter,
    Substring,
    StringLength,
    NormalizeSpace,
    Translate,
    // Boolean functions.
    Boolean,
    Not,
    True,
    False,
    Lang,
    // Number functions.
    Number,
    Floor,
    Ceiling,
    Round,
}

impl Func {
    /// Resolves an XPath function name.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "position" => Func::Position,
            "last" => Func::Last,
            "count" => Func::Count,
            "id" => Func::Id,
            "local-name" => Func::LocalName,
            "namespace-uri" => Func::NamespaceUri,
            "name" => Func::Name,
            "sum" => Func::Sum,
            "string" => Func::String,
            "concat" => Func::Concat,
            "starts-with" => Func::StartsWith,
            "contains" => Func::Contains,
            "substring-before" => Func::SubstringBefore,
            "substring-after" => Func::SubstringAfter,
            "substring" => Func::Substring,
            "string-length" => Func::StringLength,
            "normalize-space" => Func::NormalizeSpace,
            "translate" => Func::Translate,
            "boolean" => Func::Boolean,
            "not" => Func::Not,
            "true" => Func::True,
            "false" => Func::False,
            "lang" => Func::Lang,
            "number" => Func::Number,
            "floor" => Func::Floor,
            "ceiling" => Func::Ceiling,
            "round" => Func::Round,
            _ => return None,
        })
    }

    /// The XPath spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Func::Position => "position",
            Func::Last => "last",
            Func::Count => "count",
            Func::Id => "id",
            Func::LocalName => "local-name",
            Func::NamespaceUri => "namespace-uri",
            Func::Name => "name",
            Func::Sum => "sum",
            Func::String => "string",
            Func::Concat => "concat",
            Func::StartsWith => "starts-with",
            Func::Contains => "contains",
            Func::SubstringBefore => "substring-before",
            Func::SubstringAfter => "substring-after",
            Func::Substring => "substring",
            Func::StringLength => "string-length",
            Func::NormalizeSpace => "normalize-space",
            Func::Translate => "translate",
            Func::Boolean => "boolean",
            Func::Not => "not",
            Func::True => "true",
            Func::False => "false",
            Func::Lang => "lang",
            Func::Number => "number",
            Func::Floor => "floor",
            Func::Ceiling => "ceiling",
            Func::Round => "round",
        }
    }

    /// Static result type.
    pub fn result_type(self) -> ValueType {
        match self {
            Func::Position
            | Func::Last
            | Func::Count
            | Func::Sum
            | Func::Number
            | Func::Floor
            | Func::Ceiling
            | Func::Round
            | Func::StringLength => ValueType::Number,
            Func::Id => ValueType::NodeSet,
            Func::LocalName
            | Func::NamespaceUri
            | Func::Name
            | Func::String
            | Func::Concat
            | Func::SubstringBefore
            | Func::SubstringAfter
            | Func::Substring
            | Func::NormalizeSpace
            | Func::Translate => ValueType::String,
            Func::StartsWith
            | Func::Contains
            | Func::Boolean
            | Func::Not
            | Func::True
            | Func::False
            | Func::Lang => ValueType::Boolean,
        }
    }

    /// The context components the function itself consumes (beyond its
    /// arguments): `position()` reads `k`, `last()` reads `n`, and `lang()`
    /// inspects the ancestry of the context node.
    pub fn own_relev(self) -> Relev {
        match self {
            Func::Position => Relev::POSITION,
            Func::Last => Relev::SIZE,
            Func::Lang => Relev::NODE,
            _ => Relev::NONE,
        }
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a location path starts evaluating.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStart {
    /// An absolute path (`/…`): starts at the document root, independent of
    /// the context.
    Root,
    /// A relative path: starts at the context node.
    Context,
    /// A filter expression `primary[p₁]…[pₖ]/steps…`: starts from the value
    /// of `primary` (a node-set), filtered by the predicates with proximity
    /// positions taken in document order.
    Filter {
        primary: ExprId,
        predicates: Vec<ExprId>,
    },
}

/// One location step `axis::test[pred]…[pred]` of a lowered path.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    /// Predicates, in application order; each is a boolean-typed arena
    /// expression (the normalizer rewrote number predicates into
    /// `position() = e` and everything else into `boolean(e)`).
    pub predicates: Vec<ExprId>,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.axis, self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// One expression node of the lowered query.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// `e1 or e2` (operands boolean after normalization).
    Or(ExprId, ExprId),
    /// `e1 and e2`.
    And(ExprId, ExprId),
    /// `e1 op e2` with XPath's overloaded comparison semantics (Figure 1
    /// dispatches on the operand types at evaluation time).
    Compare(CmpOp, ExprId, ExprId),
    /// `e1 op e2` over numbers.
    Arith(ArithOp, ExprId, ExprId),
    /// `- e`.
    Neg(ExprId),
    /// `e1 | e2` over node-sets.
    Union(ExprId, ExprId),
    /// A location path.
    Path(PathStart, Vec<Step>),
    /// A core-library function call.
    Call(Func, Vec<ExprId>),
    /// A number literal.
    Number(f64),
    /// A string literal.
    Literal(Box<str>),
}

impl Node {
    /// Calls `f` on each child id, in the order the children are built:
    /// operands left to right, a filter start's primary and predicates,
    /// then each step's predicates.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut ExprId)) {
        match self {
            Node::Or(a, b)
            | Node::And(a, b)
            | Node::Compare(_, a, b)
            | Node::Arith(_, a, b)
            | Node::Union(a, b) => {
                f(a);
                f(b);
            }
            Node::Neg(a) => f(a),
            Node::Call(_, args) => args.iter_mut().for_each(f),
            Node::Path(start, steps) => {
                if let PathStart::Filter {
                    primary,
                    predicates,
                } = start
                {
                    f(primary);
                    predicates.iter_mut().for_each(&mut f);
                }
                for s in steps {
                    s.predicates.iter_mut().for_each(&mut f);
                }
            }
            Node::Number(_) | Node::Literal(_) => {}
        }
    }
}

/// A lowered, evaluation-ready XPath query: the arena parse tree with
/// relevant-context annotations.
///
/// Obtain one with [`parse_xpath`](crate::parse_xpath) or [`lower`].
#[derive(Debug, Clone)]
pub struct Query {
    nodes: Vec<Node>,
    types: Vec<ValueType>,
    relev: Vec<Relev>,
    root: ExprId,
    /// Process-unique identity assigned at lowering (clones share it);
    /// compiled-query caches key on `(query stamp, document stamp)`.
    stamp: u64,
}

// Concurrent-serving audit: queries are shared read-only across worker
// threads (plain vectors and copyable ids — no interior mutability).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Query>();
};

/// Structural equality: two independently lowered queries with the same
/// arena are equal even though their cache stamps differ.
impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.types == other.types
            && self.relev == other.relev
            && self.root == other.root
    }
}

impl Query {
    /// The root expression.
    #[inline]
    pub fn root(&self) -> ExprId {
        self.root
    }

    /// A process-unique identity for this lowered query.  Clones share the
    /// stamp (their arenas are identical); independent lowerings get
    /// distinct stamps.  Compiled-query caches key on it.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of arena nodes (the paper's `|Q|` up to the step count, which
    /// lives inside [`Node::Path`] nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never, for a lowered query).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    #[inline]
    pub fn node(&self, id: ExprId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The static result type of a node.
    #[inline]
    pub fn value_type(&self, id: ExprId) -> ValueType {
        self.types[id.index()]
    }

    /// The relevant-context set `Relev(N)` of a node (Section 3.1).
    #[inline]
    pub fn relev(&self, id: ExprId) -> Relev {
        self.relev[id.index()]
    }

    /// Iterates `(id, node)` in lowering order — children strictly before
    /// parents, root last.  A single pass is a bottom-up traversal.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ExprId(i as u32), n))
    }

    /// Whether the root expression is syntactically a location path.
    pub fn root_is_path(&self) -> bool {
        matches!(self.node(self.root), Node::Path(..))
    }

    /// The total number of location steps across all paths in the query
    /// (together with [`Query::len`] this bounds the paper's `|Q|`).
    pub fn step_count(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Path(_, steps) => Some(steps.len()),
                _ => None,
            })
            .sum()
    }
}

/// Lowers a normalized AST into a [`Query`].
///
/// # Panics
///
/// Panics on ASTs that did not go through [`normalize`](crate::normalize())
/// (unbound variables, unknown function names): lowering is infallible on
/// normalized input.
pub fn lower(expr: &AstExpr) -> Query {
    // Interning off: a lowered arena is the parse tree, one node per
    // occurrence (sharing duplicates is the rewriter's business).
    let mut b = QueryBuilder::with_slots(0, Vec::new());
    let root = lower_expr(&mut b, expr);
    b.finish(root)
}

fn lower_expr(b: &mut QueryBuilder, expr: &AstExpr) -> ExprId {
    let node = match expr {
        AstExpr::Or(x, y) => Node::Or(lower_expr(b, x), lower_expr(b, y)),
        AstExpr::And(x, y) => Node::And(lower_expr(b, x), lower_expr(b, y)),
        AstExpr::Compare(op, x, y) => Node::Compare(*op, lower_expr(b, x), lower_expr(b, y)),
        AstExpr::Arith(op, x, y) => Node::Arith(*op, lower_expr(b, x), lower_expr(b, y)),
        AstExpr::Neg(x) => Node::Neg(lower_expr(b, x)),
        AstExpr::Union(x, y) => Node::Union(lower_expr(b, x), lower_expr(b, y)),
        AstExpr::Path(p) => {
            let start = if p.absolute {
                PathStart::Root
            } else {
                PathStart::Context
            };
            Node::Path(start, lower_steps(b, &p.steps))
        }
        AstExpr::Filter {
            primary,
            predicates,
            steps,
        } => {
            let primary = lower_expr(b, primary);
            let predicates = predicates.iter().map(|p| lower_expr(b, p)).collect();
            Node::Path(
                PathStart::Filter {
                    primary,
                    predicates,
                },
                lower_steps(b, steps),
            )
        }
        AstExpr::Call(name, args) => {
            let func = Func::from_name(name)
                .unwrap_or_else(|| panic!("unknown function {name}() reached lowering"));
            Node::Call(func, args.iter().map(|a| lower_expr(b, a)).collect())
        }
        AstExpr::Var(v) => panic!("unbound variable ${v} reached lowering"),
        AstExpr::Number(n) => Node::Number(*n),
        AstExpr::Literal(s) => Node::Literal(s.as_str().into()),
    };
    b.push(node)
}

fn lower_steps(b: &mut QueryBuilder, steps: &[AstStep]) -> Vec<Step> {
    steps
        .iter()
        .map(|s| Step {
            axis: s.axis,
            test: s.test.clone(),
            predicates: s.predicates.iter().map(|p| lower_expr(b, p)).collect(),
        })
        .collect()
}

/// Allocates a process-unique query stamp (every [`QueryBuilder::finish`]
/// takes one, so lowered and rewritten queries all get distinct cache
/// identities).
fn fresh_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Incremental construction of a [`Query`] arena with hash-consing.
///
/// The rewriter in `minctx-core` rebuilds queries bottom-up through this
/// builder, and [`lower`] pushes through it too (interning off): the
/// [`ValueType`] and [`Relev`] of every node in every arena come from its
/// (already pushed) children by the one rule in [`QueryBuilder::push`].
/// **Structurally identical nodes are interned to a single [`ExprId`]** —
/// common-subexpression sharing across union branches is therefore
/// node-id interning, not tree surgery: evaluators that memoize or
/// materialize per `ExprId` do the shared work once.
///
/// Identity is decided by comparing the nodes' own fields (`identical`),
/// children by id — sound because children are interned first.  A hash of
/// the same fields only picks where to look.
///
/// Children must be pushed before the parents that reference them (the
/// arena invariant every evaluator's bottom-up sweep relies on); the
/// builder debug-asserts it.
#[derive(Debug)]
pub struct QueryBuilder {
    nodes: Vec<Node>,
    types: Vec<ValueType>,
    relev: Vec<Relev>,
    /// Open-addressing table of indices into `nodes`, probed linearly from
    /// the node's structural hash ([`FREE`] where there is none); a power
    /// of two at least twice `nodes.len()`, so a probe always ends at a
    /// free slot.  Empty (and never grown) when interning is off.
    slots: Vec<u32>,
    /// Hash every node to one bucket: only equality separates nodes.
    #[cfg(test)]
    degenerate_hash: bool,
}

const FREE: u32 = u32::MAX;

impl Default for QueryBuilder {
    fn default() -> QueryBuilder {
        QueryBuilder::new()
    }
}

impl QueryBuilder {
    /// An empty builder.
    pub fn new() -> QueryBuilder {
        QueryBuilder::with_capacity(8)
    }

    /// An empty builder with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> QueryBuilder {
        let slots = vec![FREE; (nodes.max(4) * 2).next_power_of_two()];
        QueryBuilder::with_slots(nodes, slots)
    }

    fn with_slots(nodes: usize, slots: Vec<u32>) -> QueryBuilder {
        QueryBuilder {
            nodes: Vec::with_capacity(nodes),
            types: Vec::with_capacity(nodes),
            relev: Vec::with_capacity(nodes),
            slots,
            #[cfg(test)]
            degenerate_hash: false,
        }
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id pushed earlier.
    pub fn node(&self, id: ExprId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The static type of a node pushed earlier.
    pub fn value_type(&self, id: ExprId) -> ValueType {
        self.types[id.index()]
    }

    /// The relevant-context set of a node pushed earlier.
    pub fn relev(&self, id: ExprId) -> Relev {
        self.relev[id.index()]
    }

    /// Adds `node` to the arena, computing its type and relevance from its
    /// children, and returns its id — the id of an existing structurally
    /// identical node where one was already pushed.
    pub fn push(&mut self, node: Node) -> ExprId {
        let slot = if self.slots.is_empty() {
            None
        } else {
            match self.probe(&node) {
                Ok(id) => return id,
                Err(free) => Some(free),
            }
        };
        let (ty, relev) = self.type_and_relev(&node);
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.types.push(ty);
        self.relev.push(relev);
        if let Some(slot) = slot {
            self.slots[slot] = id.0;
            if self.nodes.len() * 2 > self.slots.len() {
                self.grow();
            }
        }
        id
    }

    /// Finishes the arena into a [`Query`] with a fresh stamp.
    pub fn finish(self, root: ExprId) -> Query {
        assert!(root.index() < self.nodes.len(), "root {root} not pushed");
        Query {
            nodes: self.nodes,
            types: self.types,
            relev: self.relev,
            root,
            stamp: fresh_stamp(),
        }
    }

    /// [`QueryBuilder::finish`] keeping only what `root` reaches, in the
    /// order a depth-first walk from `root` completes the nodes — operands
    /// left to right, a filter's primary and predicates before the steps'
    /// predicates.  That is the order [`lower`] and a rebuild through this
    /// builder push in, so the result is the arena either would have built
    /// had the dropped nodes never been pushed.
    pub fn finish_reachable(mut self, root: ExprId) -> Query {
        assert!(root.index() < self.nodes.len(), "root {root} not pushed");
        // What is kept is already pairwise distinct: no interning.
        let mut kept = QueryBuilder::with_slots(self.len(), Vec::new());
        let root = self.move_reachable(root, &mut vec![None; self.len()], &mut kept);
        kept.finish(root)
    }

    /// Moves node `old` into `kept`, children first, unless it already
    /// went (`moved`: old index → new id); returns its id there.
    fn move_reachable(
        &mut self,
        old: ExprId,
        moved: &mut [Option<ExprId>],
        kept: &mut QueryBuilder,
    ) -> ExprId {
        if let Some(new) = moved[old.index()] {
            return new;
        }
        // What stays behind is never looked at again.
        let mut node = std::mem::replace(&mut self.nodes[old.index()], Node::Number(0.0));
        node.for_each_child_mut(|c| *c = self.move_reachable(*c, moved, kept));
        let new = kept.push(node);
        moved[old.index()] = Some(new);
        new
    }

    /// The typing/relevance rule: a node's static type and `Relev` from
    /// its children's.
    fn type_and_relev(&self, node: &Node) -> (ValueType, Relev) {
        let child = |id: ExprId| {
            debug_assert!(id.index() < self.nodes.len(), "child {id} not pushed");
            self.relev[id.index()]
        };
        match node {
            Node::Or(a, b) | Node::And(a, b) => (ValueType::Boolean, child(*a).union(child(*b))),
            Node::Compare(_, a, b) => (ValueType::Boolean, child(*a).union(child(*b))),
            Node::Arith(_, a, b) => (ValueType::Number, child(*a).union(child(*b))),
            Node::Neg(a) => (ValueType::Number, child(*a)),
            Node::Union(a, b) => (ValueType::NodeSet, child(*a).union(child(*b))),
            // Step and filter predicates get their own inner contexts; only
            // the start's relevance escapes.  Absolute paths ignore the
            // context entirely — this is what lets the evaluators share one
            // result per document.
            Node::Path(PathStart::Root, _) => (ValueType::NodeSet, Relev::NONE),
            Node::Path(PathStart::Context, _) => (ValueType::NodeSet, Relev::NODE),
            Node::Path(PathStart::Filter { primary, .. }, _) => {
                (ValueType::NodeSet, child(*primary))
            }
            Node::Call(func, args) => {
                let mut r = func.own_relev();
                for &a in args {
                    r = r.union(child(a));
                }
                (func.result_type(), r)
            }
            Node::Number(_) => (ValueType::Number, Relev::NONE),
            Node::Literal(_) => (ValueType::String, Relev::NONE),
        }
    }

    /// Where `node` hashes to in the id table.
    fn home(&self, node: &Node) -> usize {
        #[cfg(test)]
        if self.degenerate_hash {
            return 0;
        }
        // The top half: a product's low bits only mix its factors' low bits.
        (structural_hash(node) >> 32) as usize & (self.slots.len() - 1)
    }

    /// The id of the pushed node identical to `node`, or the free slot
    /// where its id belongs.
    fn probe(&self, node: &Node) -> Result<ExprId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(node);
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                id if identical(&self.nodes[id as usize], node) => return Ok(ExprId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the id table and re-seats every node.
    fn grow(&mut self) {
        self.slots = vec![FREE; self.slots.len() * 2];
        for id in 0..self.nodes.len() {
            let free = self
                .probe(&self.nodes[id])
                .expect_err("interned nodes are pairwise distinct");
            self.slots[free] = id as u32;
        }
    }
}

/// The interning relation: structural equality, except that numbers are
/// compared by their bits — `1 div -0` and `1 div 0` differ, and a NaN
/// literal is one node however often it is pushed.
fn identical(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Number(x), Node::Number(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A hash of exactly the fields [`identical`] compares, from a state
/// drawn once per process: which nodes crowd one stretch of the table —
/// where interning degrades to comparing a node with every other — cannot
/// be worked out in advance by whoever writes the query.
fn structural_hash(node: &Node) -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let mut h = Mixer(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()));
    std::mem::discriminant(node).hash(&mut h);
    match node {
        Node::Or(a, b) | Node::And(a, b) | Node::Union(a, b) => (a, b).hash(&mut h),
        Node::Compare(op, a, b) => (op, a, b).hash(&mut h),
        Node::Arith(op, a, b) => (op, a, b).hash(&mut h),
        Node::Neg(a) => a.hash(&mut h),
        Node::Number(n) => n.to_bits().hash(&mut h),
        Node::Literal(s) => s.hash(&mut h),
        Node::Call(func, args) => (func, args).hash(&mut h),
        Node::Path(start, steps) => {
            std::mem::discriminant(start).hash(&mut h);
            if let PathStart::Filter {
                primary,
                predicates,
            } = start
            {
                (primary, predicates).hash(&mut h);
            }
            for s in steps {
                (s.axis, &s.test, &s.predicates).hash(&mut h);
            }
        }
    }
    h.finish()
}

/// The multiply-rotate word mixer of rustc's `FxHasher`: a few cycles per
/// word and nothing like collision-resistant, which the id table does not
/// need — [`identical`] decides, and a table lives for one query.
struct Mixer(u64);

impl Mixer {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Mixer {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, w: u32) {
        self.word(w.into());
    }

    fn write_u64(&mut self, w: u64) {
        self.word(w);
    }

    fn write_usize(&mut self, w: usize) {
        self.word(w as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_xpath;

    #[test]
    fn lowering_assigns_children_before_parents() {
        let q = parse_xpath("a[b = 1] | c").unwrap();
        // Root is the union and has the largest id.
        assert_eq!(q.root().index(), q.len() - 1);
        for (id, node) in q.iter() {
            node.clone()
                .for_each_child_mut(|c| assert!(*c < id, "child {c} not before parent {id}"));
        }
    }

    #[test]
    fn root_is_path_for_paths_only() {
        assert!(parse_xpath("/a/b").unwrap().root_is_path());
        assert!(parse_xpath("a").unwrap().root_is_path());
        assert!(!parse_xpath("1 + 2").unwrap().root_is_path());
        assert!(!parse_xpath("a | b").unwrap().root_is_path());
        // A filter expression lowers to a Path with a Filter start.
        assert!(parse_xpath("id('x')[1]").unwrap().root_is_path());
    }

    #[test]
    fn relev_of_context_functions() {
        let q = parse_xpath("a[position() = last()]").unwrap();
        let mut saw_pos = false;
        let mut saw_last = false;
        let mut saw_cmp = false;
        for (id, node) in q.iter() {
            match node {
                Node::Call(Func::Position, _) => {
                    assert_eq!(q.relev(id), Relev::POSITION);
                    saw_pos = true;
                }
                Node::Call(Func::Last, _) => {
                    assert_eq!(q.relev(id), Relev::SIZE);
                    saw_last = true;
                }
                Node::Compare(..) => {
                    assert_eq!(q.relev(id), Relev::POSITION.union(Relev::SIZE));
                    assert!(!q.relev(id).node());
                    saw_cmp = true;
                }
                _ => {}
            }
        }
        assert!(saw_pos && saw_last && saw_cmp);
    }

    #[test]
    fn relev_of_paths() {
        // Absolute path: context-independent even with predicates.
        let q = parse_xpath("/a[b]").unwrap();
        assert_eq!(q.relev(q.root()), Relev::NONE);
        // Relative path: depends on the context node only.
        let q = parse_xpath("a[position() = 2]").unwrap();
        assert_eq!(q.relev(q.root()), Relev::NODE);
    }

    #[test]
    fn relev_arity_and_display() {
        let all = Relev::NODE.union(Relev::POSITION).union(Relev::SIZE);
        assert_eq!(all.arity(), 3);
        assert_eq!(all.to_string(), "{node, position, size}");
        assert_eq!(Relev::NONE.to_string(), "{}");
        assert_eq!(Relev::SIZE.to_string(), "{size}");
        assert!(all.contains(Relev::POSITION));
        assert!(!Relev::NODE.contains(Relev::SIZE));
    }

    #[test]
    fn value_types_are_static() {
        let q = parse_xpath("count(a) + 1").unwrap();
        assert_eq!(q.value_type(q.root()), ValueType::Number);
        let q = parse_xpath("'s'").unwrap();
        assert_eq!(q.value_type(q.root()), ValueType::String);
        let q = parse_xpath("a = b").unwrap();
        assert_eq!(q.value_type(q.root()), ValueType::Boolean);
        let q = parse_xpath("a | b").unwrap();
        assert_eq!(q.value_type(q.root()), ValueType::NodeSet);
    }

    #[test]
    fn func_round_trip() {
        for name in [
            "position",
            "last",
            "count",
            "id",
            "local-name",
            "namespace-uri",
            "name",
            "sum",
            "string",
            "concat",
            "starts-with",
            "contains",
            "substring-before",
            "substring-after",
            "substring",
            "string-length",
            "normalize-space",
            "translate",
            "boolean",
            "not",
            "true",
            "false",
            "lang",
            "number",
            "floor",
            "ceiling",
            "round",
        ] {
            let f = Func::from_name(name).unwrap();
            assert_eq!(f.as_str(), name);
        }
        assert_eq!(Func::from_name("nosuch"), None);
    }

    #[test]
    fn step_count_counts_all_paths() {
        let q = parse_xpath("/a/b[c/d]").unwrap();
        // Outer path has 2 steps; the predicate path has 2 more.
        assert_eq!(q.step_count(), 4);
    }

    #[test]
    fn builder_interns_structurally_identical_nodes() {
        let mut b = QueryBuilder::new();
        let one = b.push(Node::Number(1.0));
        let one_again = b.push(Node::Number(1.0));
        assert_eq!(one, one_again);
        // -0.0 must not intern onto 0.0: `1 div -0` and `1 div 0` differ.
        let zero = b.push(Node::Number(0.0));
        let neg_zero = b.push(Node::Number(-0.0));
        assert_ne!(zero, neg_zero);
        let cmp = b.push(Node::Compare(CmpOp::Eq, one, zero));
        let cmp_again = b.push(Node::Compare(CmpOp::Eq, one, zero));
        assert_eq!(cmp, cmp_again);
        assert_eq!(b.len(), 4);
        let q = b.finish(cmp);
        assert_eq!(q.len(), 4);
        assert_eq!(q.root(), cmp);
    }

    #[test]
    fn builder_typing_matches_lowering() {
        // Rebuild a lowered query node-for-node through the builder: every
        // node must come back with the same type and relevance.
        for src in [
            "/a[b]/c[position() = last()]",
            "count(//a[@id]) + sum(//n)",
            "(//a)[2] | //b[. = 'x']",
            "boolean(a | b) and lang('en')",
        ] {
            let q = parse_xpath(src).unwrap();
            let mut b = QueryBuilder::new();
            let mut map: Vec<ExprId> = Vec::with_capacity(q.len());
            for (id, node) in q.iter() {
                let mut rebuilt = node.clone();
                rebuilt.for_each_child_mut(|c| *c = map[c.index()]);
                let new_id = b.push(rebuilt);
                assert_eq!(b.value_type(new_id), q.value_type(id), "{src}: {id}");
                assert_eq!(b.relev(new_id), q.relev(id), "{src}: {id}");
                map.push(new_id);
            }
        }
    }

    /// A path of one step, for the interner tests.
    fn one_step(axis: Axis, test: NodeTest) -> Node {
        let predicates = Vec::new();
        Node::Path(
            PathStart::Context,
            vec![Step {
                axis,
                test,
                predicates,
            }],
        )
    }

    #[test]
    fn equality_not_the_hash_decides_identity() {
        // Every node in one bucket: whatever the interner still tells
        // apart, it tells apart by comparing fields.  With the real hash
        // the same answers must come out.
        for degenerate_hash in [true, false] {
            let mut b = QueryBuilder {
                degenerate_hash,
                ..QueryBuilder::new()
            };
            let zero = b.push(Node::Number(0.0));
            let one = b.push(Node::Number(1.0));
            assert_ne!(zero, b.push(Node::Number(-0.0)));
            assert_ne!(one, b.push(Node::Literal("1".into())));
            let call = b.push(Node::Call(Func::Concat, vec![zero, one]));
            assert_ne!(call, b.push(Node::Call(Func::Concat, vec![one, zero])));
            assert_eq!(call, b.push(Node::Call(Func::Concat, vec![zero, one])));
            assert_ne!(
                b.push(Node::Compare(CmpOp::Lt, zero, one)),
                b.push(Node::Compare(CmpOp::Le, zero, one))
            );
            assert_ne!(b.push(Node::Or(zero, one)), b.push(Node::And(zero, one)));
            let child_a = b.push(one_step(Axis::Child, NodeTest::name("a")));
            assert_ne!(
                child_a,
                b.push(one_step(Axis::Attribute, NodeTest::name("a")))
            );
            assert_ne!(child_a, b.push(one_step(Axis::Child, NodeTest::name("b"))));
            assert_eq!(child_a, b.push(one_step(Axis::Child, NodeTest::name("a"))));
            assert_ne!(
                b.push(one_step(Axis::Child, NodeTest::Pi(None))),
                b.push(one_step(Axis::Child, NodeTest::Pi(Some("".into()))))
            );
            assert_ne!(
                b.push(Node::Path(PathStart::Root, Vec::new())),
                b.push(Node::Path(PathStart::Context, Vec::new()))
            );
            // A NaN is one node however often it is pushed; another NaN
            // (other payload bits) is another node.
            let nan = b.push(Node::Number(f64::NAN));
            assert_eq!(nan, b.push(Node::Number(f64::NAN)));
            assert_ne!(
                nan,
                b.push(Node::Number(f64::from_bits(f64::NAN.to_bits() ^ 1)))
            );
            // 19 distinct nodes went in — past the 16 slots a new builder
            // starts with, so the table was re-seated on the way.
            assert_eq!(b.len(), 19);
            assert_eq!(zero, b.push(Node::Number(0.0)));
            assert_eq!(call, b.push(Node::Call(Func::Concat, vec![zero, one])));
        }
    }

    #[test]
    fn lowering_is_deterministic_and_never_shares() {
        let src = "a[b = 1]/c | a[b = 1]/c";
        let (once, again) = (parse_xpath(src).unwrap(), parse_xpath(src).unwrap());
        assert_eq!(once, again);
        assert_ne!(once.stamp(), again.stamp());
        // Two copies of a 4-node branch and the union: interning would
        // have left 5.
        assert_eq!(once.len(), 9);
    }

    #[test]
    fn finish_reachable_drops_strays_and_restores_build_order() {
        // Pushed out of order, with two strays: what `finish_reachable`
        // keeps is exactly what lowering the same expression builds.
        let mut b = QueryBuilder::new();
        b.push(Node::Number(7.0));
        let two = b.push(Node::Number(2.0));
        let one = b.push(Node::Number(1.0));
        b.push(Node::Neg(two));
        let shared = b.push(Node::Arith(ArithOp::Add, one, two));
        let root = b.push(Node::Arith(ArithOp::Mul, shared, shared));
        let q = b.finish_reachable(root);
        let mut want = QueryBuilder::new();
        let one = want.push(Node::Number(1.0));
        let two = want.push(Node::Number(2.0));
        let shared = want.push(Node::Arith(ArithOp::Add, one, two));
        let root = want.push(Node::Arith(ArithOp::Mul, shared, shared));
        assert_eq!(q, want.finish(root));
        assert_eq!(q.value_type(q.root()), ValueType::Number);
    }
}
