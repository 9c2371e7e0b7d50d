//! The query-IR rewrite pipeline: semantics-preserving [`Query`]
//! transformations run before compilation (cf. *XPath Whole Query
//! Optimization*, PAPERS.md).
//!
//! [`rewrite`] rebuilds the arena bottom-up through a hash-consing
//! [`QueryBuilder`], **once**: every rule is applied where a node is built
//! from children that are already in normal form, so the one traversal ends
//! at the fixpoint — rewriting its result again changes nothing (DESIGN.md,
//! "One traversal to the fixpoint", has the per-rule argument).  A path's
//! steps are normalized as they are appended to the output list, looking
//! only at its tail, so the work is linear in the query.  Rules that strand
//! an operand they replaced, or move a predicate out of build order, flag
//! the arena for one rule-free compacting copy
//! ([`QueryBuilder::finish_reachable`]), which restores the canonical
//! arena — the one lowering the rewritten text would build.  The rules:
//!
//! * **Step fusion** — `descendant-or-self::node()/child::a` (the expansion
//!   of `//a`) fuses to `descendant::a`, and likewise for a following
//!   `descendant(-or-self)` step; predicate-free `self::node()` steps are
//!   dropped.  Fusion changes each candidate's proximity position (children
//!   are numbered per parent, descendants per fused origin), so it applies
//!   **only when every predicate of the fused step is position-free** —
//!   checked via the [`Relev`](minctx_syntax::Relev) sets computed at
//!   lowering: a predicate that reads `position()` or `last()` carries the
//!   corresponding relevance bit (number predicates were normalized to
//!   `position() = e`, so they are covered).
//! * **Reverse-axis normalization** — `child::a/parent::node()` (and the
//!   `attribute` variant) flips into the forward existence test
//!   `self::node()[child::a]`, exact because `parent` inverts exactly those
//!   axes.  Under *existential* contexts — a path that is the direct
//!   argument of `boolean()`, which is where the normalizer puts every
//!   truth-valued path — trailing predicate-free total steps
//!   (`self`/`descendant-or-self`/`ancestor-or-self` `::node()`, which
//!   relate every node to itself) are dropped, and a trailing predicate-free
//!   reverse step is folded into an existence predicate on the previous step
//!   (`a[p]/ancestor::b` → `a[p][ancestor::b]`), where OPTMINCONTEXT answers
//!   it with one forward preimage sweep.  The reverse-step fold is applied
//!   only when an earlier step already carries a predicate: a fully
//!   predicate-free path is left intact for OPTMINCONTEXT's single
//!   whole-path backward pass.
//! * **Predicate hoisting + constant folding** — pure literal
//!   subexpressions are evaluated at rewrite time through the *same*
//!   conversion/function library the evaluators use ([`funcs::apply`],
//!   [`value::compare_scalars`](crate::value::compare_scalars)), `[true()]`
//!   predicates are dropped, and context-independent predicates
//!   (`Relev = ∅`, e.g. a folded `[1 = 2]` or a doc-dependent
//!   `[count(/log) > 5]`) are hoisted from inner steps to the front of the
//!   first step, so a constant-false filter kills the path before any axis
//!   walking.  Hoisting an all-or-nothing predicate never disturbs the
//!   positions later predicates observe.
//! * **Common-subexpression sharing** — the builder interns structurally
//!   identical nodes to one `ExprId`, so duplicated subtrees across union
//!   branches (or anywhere else) collapse; evaluators that memoize or
//!   materialize per node id then do the shared work once.
//!
//! **Height.**  Two rules add levels: the flip and the reverse-tail fold
//! each put `boolean(path)` — two nodes — under a path node, the flip
//! above the flipped step's own predicates.  A flipped step is a `self`
//! step and a folded tail has no predicates, so neither is wrapped again:
//! a chain through `P` nested paths grows by at most `2·P` levels.  The
//! walks downstream recurse over the tree and are sized for what lowering
//! can produce, `MAX_HEIGHT = 2 · MAX_QUERY_DEPTH` levels, so a result
//! taller than that is discarded and the query runs as lowered: the
//! rewritten arena is never taller than `max(input, MAX_HEIGHT)`.  It
//! takes 32 nested `a[…]/..` to get there.
//!
//! Rewriting happens on the document-independent IR, *before*
//! [`CompiledQuery`](crate::CompiledQuery) resolves node tests — the
//! rewritten query is what gets compiled, so fused steps resolve their
//! tests like any others and the compiled-query cache keeps keying on the
//! original query's stamp.  The [`Engine`](crate::Engine) runs the pipeline
//! by default; `Engine::with_optimizer(false)` (or the `MINCTX_NO_OPTIMIZER`
//! environment variable) disables it, which is how the differential suite
//! evaluates every corpus query both raw and rewritten.

use crate::funcs;
use crate::naive::arith;
use crate::value::{compare_scalars, Value};
use minctx_syntax::{
    CmpOp, ExprId, Func, Node, PathStart, Query, QueryBuilder, Step, ValueType, MAX_QUERY_DEPTH,
};
use minctx_xml::axes::{Axis, NodeTest};
use minctx_xml::Document;
use std::sync::OnceLock;

/// The rewrite rules, as stable names the EXPLAIN/profile surface
/// reports.  Each variant corresponds to one transformation site in the
/// rewriter; [`RewriteTrace`] counts how often each fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Predicate-free `self::node()` steps dropped (the identity step).
    DropSelfStep,
    /// The 3-step spec expansion of `following`/`preceding` fused onto
    /// one sliced-postings step.
    FuseFollowingChain,
    /// `following::node()/descendant-or-self::t` folded to `following::t`
    /// (dually `preceding`).
    FuseFollowingOrSelf,
    /// `descendant-or-self::node()/child::t` → `descendant::t` — the `//`
    /// fusion (and the following `descendant(-or-self)` variants).
    FuseDescendant,
    /// `child::t[p]/parent::node()` flipped to `self::node()[child::t[p]]`.
    FlipChildParent,
    /// Trailing total or-self steps dropped under existential contexts.
    DropExistentialTail,
    /// A trailing reverse step folded into an existence predicate.
    FoldReverseTail,
    /// A context-independent predicate hoisted to the first step.
    HoistConstantPredicate,
    /// A predicate that folded to literal `true()` dropped.
    DropTruePredicate,
    /// Constant folding: literal compare/arith/neg/call evaluation and
    /// boolean absorption in `or`/`and`.
    FoldConstant,
    /// `count(π) RelOp c` existence shapes rewritten to `boolean(π)`.
    CountExistence,
    /// Structurally identical union branches collapsed to one.
    DedupUnion,
}

impl Rule {
    /// All rules, in the stable order EXPLAIN reports them (declaration
    /// order: `ALL[r as usize] == r`).
    pub const ALL: [Rule; 12] = [
        Rule::DropSelfStep,
        Rule::FuseFollowingChain,
        Rule::FuseFollowingOrSelf,
        Rule::FuseDescendant,
        Rule::FlipChildParent,
        Rule::DropExistentialTail,
        Rule::FoldReverseTail,
        Rule::HoistConstantPredicate,
        Rule::DropTruePredicate,
        Rule::FoldConstant,
        Rule::CountExistence,
        Rule::DedupUnion,
    ];

    /// A short stable kebab-case name (plan text, metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::DropSelfStep => "drop-self-step",
            Rule::FuseFollowingChain => "fuse-following-chain",
            Rule::FuseFollowingOrSelf => "fuse-following-or-self",
            Rule::FuseDescendant => "fuse-descendant",
            Rule::FlipChildParent => "flip-child-parent",
            Rule::DropExistentialTail => "drop-existential-tail",
            Rule::FoldReverseTail => "fold-reverse-tail",
            Rule::HoistConstantPredicate => "hoist-constant-predicate",
            Rule::DropTruePredicate => "drop-true-predicate",
            Rule::FoldConstant => "fold-constant",
            Rule::CountExistence => "count-existence",
            Rule::DedupUnion => "dedup-union",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a [`rewrite_traced`] run did: how many times it walked an arena
/// and how often each [`Rule`] fired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteTrace {
    /// Arena traversals run: 1 — the rewriting traversal — or 2 when that
    /// one left nodes behind and the compacting copy followed.
    pub passes: usize,
    counts: [u32; Rule::ALL.len()],
}

impl RewriteTrace {
    /// How many times `rule` fired.
    pub fn count(&self, rule: Rule) -> u32 {
        self.counts[rule as usize]
    }

    /// The rules that fired at least once, with their counts, in the
    /// stable [`Rule::ALL`] order.
    pub fn fired(&self) -> Vec<(Rule, u32)> {
        Rule::ALL
            .into_iter()
            .filter_map(|r| match self.count(r) {
                0 => None,
                n => Some((r, n)),
            })
            .collect()
    }

    /// Total firings across all rules.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }
}

/// Rewrites a query to its optimization fixpoint.  The result evaluates to
/// the same [`Value`] as the input at every context, under
/// every strategy — the differential and property suites assert exactly
/// that.
pub fn rewrite(query: &Query) -> Query {
    rewrite_traced(query).0
}

/// [`rewrite`], also reporting which rules fired how often — the
/// EXPLAIN/profile surface's view of the pipeline.  Tracing is a handful
/// of array increments; `rewrite` itself is implemented on top of this.
pub fn rewrite_traced(query: &Query) -> (Query, RewriteTrace) {
    let mut rw = Rewriter::new(query);
    let root = rw.rebuild(query.root());
    let mut trace = rw.trace;
    let rewritten = if DISPLACING.iter().any(|&r| trace.count(r) > 0) {
        trace.passes = 2;
        rw.b.finish_reachable(root)
    } else {
        trace.passes = 1;
        rw.b.finish(root)
    };
    // The height bound (module doc).  Only two rules add levels, and an
    // arena is no taller than it is long, so next to nothing gets measured.
    let grew = trace.count(Rule::FlipChildParent) + trace.count(Rule::FoldReverseTail) > 0;
    if grew && rewritten.len() > MAX_HEIGHT && height(&rewritten) > MAX_HEIGHT {
        trace.counts = Default::default();
        return (query.clone(), trace);
    }
    (rewritten, trace)
}

/// The rules that strand a node already pushed — a folded operand, the
/// path an existential variant replaces — or move one out of build order,
/// a hoisted predicate: after one of them the arena needs the compacting
/// copy.  (The fusions, the self-step drop and the union collapse only
/// edit step lists or return a child; the flip pushes in place.)
const DISPLACING: [Rule; 6] = [
    Rule::DropExistentialTail,
    Rule::FoldReverseTail,
    Rule::HoistConstantPredicate,
    Rule::DropTruePredicate,
    Rule::FoldConstant,
    Rule::CountExistence,
];

/// The tallest arena lowering produces: the parser admits trees
/// [`MAX_QUERY_DEPTH`] high and normalization wraps each level in at most
/// one conversion.  Every recursive walk downstream is sized for it.
const MAX_HEIGHT: usize = 2 * MAX_QUERY_DEPTH;

/// The height of `q`'s tree (a leaf is 1).
fn height(q: &Query) -> usize {
    let mut heights = vec![0; q.len()];
    for (id, node) in q.iter() {
        let mut below = 0;
        node.clone()
            .for_each_child_mut(|c| below = below.max(heights[c.index()]));
        heights[id.index()] = below + 1;
    }
    heights[q.root().index()]
}

struct Rewriter<'q> {
    q: &'q Query,
    b: QueryBuilder,
    /// Old id → rebuilt id, for the nodes rebuilt so far.
    map: Vec<Option<ExprId>>,
    /// Rule-firing counters for the EXPLAIN surface.
    trace: RewriteTrace,
    /// Steps appended plus nodes pushed: the linearity tests' work unit.
    #[cfg(test)]
    work: usize,
}

impl<'q> Rewriter<'q> {
    fn new(q: &'q Query) -> Rewriter<'q> {
        Rewriter {
            q,
            b: QueryBuilder::with_capacity(q.len()),
            map: vec![None; q.len()],
            trace: RewriteTrace::default(),
            #[cfg(test)]
            work: 0,
        }
    }

    fn fire(&mut self, rule: Rule) {
        self.trace.counts[rule as usize] += 1;
    }

    fn push(&mut self, node: Node) -> ExprId {
        #[cfg(test)]
        {
            self.work += 1;
        }
        self.b.push(node)
    }

    /// The normal form of the input node `id`, built from the normal forms
    /// of its children.
    fn rebuild(&mut self, id: ExprId) -> ExprId {
        if let Some(new) = self.map[id.index()] {
            return new;
        }
        let q = self.q;
        let new = match q.node(id) {
            Node::Or(a, b) => self.connective(true, *a, *b),
            Node::And(a, b) => self.connective(false, *a, *b),
            Node::Compare(op, a, b) => {
                let (a, b) = (self.rebuild(*a), self.rebuild(*b));
                self.compare(*op, a, b)
            }
            Node::Arith(op, a, b) => {
                let (a, b) = (self.rebuild(*a), self.rebuild(*b));
                match (self.b.node(a), self.b.node(b)) {
                    (Node::Number(x), Node::Number(y)) => {
                        let v = arith(*op, *x, *y);
                        self.fire(Rule::FoldConstant);
                        self.push(Node::Number(v))
                    }
                    _ => self.push(Node::Arith(*op, a, b)),
                }
            }
            Node::Neg(a) => {
                let a = self.rebuild(*a);
                match self.b.node(a) {
                    Node::Number(x) => {
                        let v = -*x;
                        self.fire(Rule::FoldConstant);
                        self.push(Node::Number(v))
                    }
                    _ => self.push(Node::Neg(a)),
                }
            }
            Node::Union(a, b) => {
                let (a, b) = (self.rebuild(*a), self.rebuild(*b));
                if a == b {
                    // Set union is idempotent; interning already proved the
                    // branches identical.
                    self.fire(Rule::DedupUnion);
                    a
                } else {
                    self.push(Node::Union(a, b))
                }
            }
            Node::Path(start, steps) => self.path(start, steps),
            Node::Call(func, args) => {
                let args = args.iter().map(|&a| self.rebuild(a)).collect();
                self.call(*func, args)
            }
            Node::Number(n) => self.push(Node::Number(*n)),
            Node::Literal(s) => self.push(Node::Literal(s.clone())),
        };
        self.map[id.index()] = Some(new);
        new
    }

    /// `a or b` / `a and b`.  A literal `true()` decides an `or`, a literal
    /// `false()` an `and`, and the other literal is the neutral operand;
    /// operands are pure, so the untaken side is dropped — `b` is not even
    /// rebuilt once `a` has decided.
    fn connective(&mut self, is_or: bool, a: ExprId, b: ExprId) -> ExprId {
        let a = self.rebuild(a);
        let kept = match self.literal_bool(a) {
            Some(v) if v == is_or => a,
            Some(_) => self.rebuild(b),
            None => {
                let b = self.rebuild(b);
                match self.literal_bool(b) {
                    Some(v) if v == is_or => b,
                    Some(_) => a,
                    None if is_or => return self.push(Node::Or(a, b)),
                    None => return self.push(Node::And(a, b)),
                }
            }
        };
        self.fire(Rule::FoldConstant);
        kept
    }

    /// `a op b` over built operands: the count-existence shapes, then
    /// literal folding.
    fn compare(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        if let Some(folded) = self.count_existence(op, a, b) {
            return folded;
        }
        match self.literal_values(&[a, b]) {
            Some(v) => {
                self.fire(Rule::FoldConstant);
                self.push_bool(compare_scalars(op, &v[0], &v[1]))
            }
            None => self.push(Node::Compare(op, a, b)),
        }
    }

    /// `func(args)` over built arguments.  `boolean(π)` only tests `π` for
    /// nonemptiness, so `π` gets its existential tail rules here, whether
    /// the call was in the input or comes out of the count-existence rule.
    fn call(&mut self, func: Func, mut args: Vec<ExprId>) -> ExprId {
        if func == Func::Boolean {
            if let [arg] = &mut args[..] {
                *arg = self.existential(*arg);
            }
        }
        match self.fold_call(func, &args) {
            Some(folded) => {
                self.fire(Rule::FoldConstant);
                self.push(folded)
            }
            None => self.push(Node::Call(func, args)),
        }
    }

    /// Rebuilds a path node: predicates rebuilt (literal `true()` dropped),
    /// steps fused and normalized as they are appended, constant
    /// predicates hoisted.
    fn path(&mut self, start: &PathStart, steps: &[Step]) -> ExprId {
        let start = match start {
            PathStart::Root => PathStart::Root,
            PathStart::Context => PathStart::Context,
            PathStart::Filter {
                primary,
                predicates,
            } => PathStart::Filter {
                primary: self.rebuild(*primary),
                predicates: self.predicates(predicates),
            },
        };
        let mut out = Vec::with_capacity(steps.len());
        for s in steps {
            let step = Step {
                axis: s.axis,
                test: s.test.clone(),
                predicates: self.predicates(&s.predicates),
            };
            self.append_step(&start, &mut out, step);
        }
        if self.hoist_constant_predicates(&mut out) {
            // A step that lost its last predicate may now be the identity,
            // fuse or flip: one more sweep over the (already normal
            // elsewhere) list finds exactly those.
            for step in std::mem::take(&mut out) {
                self.append_step(&start, &mut out, step);
            }
        }
        self.push(Node::Path(start, out))
    }

    /// Rebuilds a predicate list, dropping predicates that folded to
    /// literal `true()` (filtering by a constant-true predicate keeps every
    /// candidate and every later position unchanged).
    fn predicates(&mut self, preds: &[ExprId]) -> Vec<ExprId> {
        let mut out = Vec::with_capacity(preds.len());
        for &p in preds {
            let p = self.rebuild(p);
            if self.literal_bool(p) == Some(true) {
                self.fire(Rule::DropTruePredicate);
            } else {
                out.push(p);
            }
        }
        out
    }

    /// Appends `step` to the normal step list `out` and restores normality:
    /// `self::node()` elimination, the `following`/`preceding` chain
    /// fusions, `//`-fusion and the `child/parent` flip.  `out` has no
    /// redex, so a new one ends at the appended step; a firing replaces
    /// the tail and only the tail is looked at again.
    fn append_step(&mut self, start: &PathStart, out: &mut Vec<Step>, step: Step) {
        #[cfg(test)]
        {
            self.work += 1;
        }
        // A predicate-free `self::node()` step is the identity.
        if step.axis == Axis::SelfAxis && bare_any_node(&step) {
            self.fire(Rule::DropSelfStep);
            return;
        }
        out.push(step);
        while self.fuse_tail(start, out) {}
    }

    /// Fires the rule, if any, whose left-hand side is the tail of `out`.
    fn fuse_tail(&mut self, start: &PathStart, out: &mut Vec<Step>) -> bool {
        let n = out.len();
        // `ancestor-or-self::node()/following-sibling::node()/
        // descendant-or-self::t[p…]` is the spec's expansion of
        // `following::t[p…]` (dually `preceding-sibling` / `preceding`):
        // fusing it onto one step lands the name test on the sliced
        // postings kernel.  Exact only for non-attribute origins — this
        // document model gives an attribute's `following` the whole tail
        // after the attribute itself, which the chain (routed through the
        // owner element's siblings) cannot see — so the preceding step (or
        // a `Root` start) must rule attributes out.  Position-free
        // predicates only: the fused step renumbers proximity positions
        // (one merged candidate list instead of per-`descendant-or-self`-
        // origin lists).
        if let [.., a, b, c] = &out[..] {
            if a.axis == Axis::AncestorOrSelf
                && bare_any_node(a)
                && matches!(b.axis, Axis::FollowingSibling | Axis::PrecedingSibling)
                && bare_any_node(b)
                && c.axis == Axis::DescendantOrSelf
                && self.position_free(c)
                && origin_excludes_attributes(start, out, n - 3)
            {
                let axis = if b.axis == Axis::FollowingSibling {
                    Axis::Following
                } else {
                    Axis::Preceding
                };
                let c = out.pop().expect("three steps");
                out.truncate(n - 3);
                out.push(Step { axis, ..c });
                self.fire(Rule::FuseFollowingChain);
                return true;
            }
        }
        let [.., a, b] = &out[..] else {
            return false;
        };
        // `following::node()/descendant-or-self::t` ≡ `following::t`: the
        // `following` set is closed under descendants and every member is
        // its own descendant-or-self (dually `preceding`).  Unconditional —
        // the or-self step applies to the already attribute-free
        // `following` result.
        let fused = if matches!(a.axis, Axis::Following | Axis::Preceding)
            && bare_any_node(a)
            && b.axis == Axis::DescendantOrSelf
            && self.position_free(b)
        {
            Some((Rule::FuseFollowingOrSelf, a.axis))
        // `descendant-or-self::node()/child::t` ≡ `descendant::t` (every
        // proper descendant is a child of a descendant-or-self node and
        // vice versa); same argument fuses a following
        // `descendant(-or-self)` step.  Only for position-free predicates —
        // fusion renumbers proximity positions.
        } else if a.axis == Axis::DescendantOrSelf
            && bare_any_node(a)
            && matches!(
                b.axis,
                Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
            )
            && self.position_free(b)
        {
            let axis = match b.axis {
                Axis::DescendantOrSelf => Axis::DescendantOrSelf,
                _ => Axis::Descendant,
            };
            Some((Rule::FuseDescendant, axis))
        } else {
            None
        };
        if let Some((rule, axis)) = fused {
            let b = out.pop().expect("two steps");
            out[n - 2] = Step { axis, ..b };
            self.fire(rule);
            return true;
        }
        // `child::t[p]/parent::node()` ≡ `self::node()[child::t[p]]`
        // (`parent` exactly inverts `child` and `attribute`): the reverse
        // step becomes a forward existence predicate, with identical inner
        // positions.
        if matches!(a.axis, Axis::Child | Axis::Attribute)
            && b.axis == Axis::Parent
            && bare_any_node(b)
        {
            out.pop();
            let a = out.pop().expect("two steps");
            // A single `child`/`attribute` step has no existential tail to
            // normalize: the call is pushed as it is.
            let inner = self.push(Node::Path(PathStart::Context, vec![a]));
            let pred = self.push(Node::Call(Func::Boolean, vec![inner]));
            out.push(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
                predicates: vec![pred],
            });
            self.fire(Rule::FlipChildParent);
            return true;
        }
        false
    }

    /// The path to test for nonemptiness in place of the built path `arg`:
    /// `arg` itself unless a tail rule applies.
    fn existential(&mut self, arg: ExprId) -> ExprId {
        let Node::Path(start, steps) = self.b.node(arg) else {
            return arg;
        };
        if existential_tail_rule(steps).is_none() {
            return arg;
        }
        let (start, mut steps) = (start.clone(), steps.clone());
        while let Some(rule) = existential_tail_rule(&steps) {
            let last = steps.pop().expect("a tail rule matched a step");
            if rule == Rule::FoldReverseTail {
                // One predicate-free reverse step: nothing to normalize.
                let inner = self.push(Node::Path(PathStart::Context, vec![last]));
                let pred = self.push(Node::Call(Func::Boolean, vec![inner]));
                let onto = steps.last_mut().expect("the rule needs an earlier step");
                onto.predicates.push(pred);
            }
            self.fire(rule);
        }
        self.push(Node::Path(start, steps))
    }

    /// Moves context-independent (`Relev = ∅`) predicates from inner steps
    /// to the front of the first step.  Such a predicate has one value for
    /// the whole evaluation, so it filters all candidates or none wherever
    /// it sits — moving it earlier never changes the positions other
    /// predicates observe, and a constant-false one now short-circuits the
    /// path before any axis walking.  Returns whether a step lost its last
    /// predicate.
    fn hoist_constant_predicates(&mut self, steps: &mut [Step]) -> bool {
        let Some((first, inner)) = steps.split_first_mut() else {
            return false;
        };
        let mut hoisted: Vec<ExprId> = Vec::new();
        let mut emptied = false;
        for s in inner {
            let before = hoisted.len();
            s.predicates.retain(|&p| {
                let constant = self.b.relev(p).is_empty();
                if constant {
                    hoisted.push(p);
                }
                !constant
            });
            emptied |= hoisted.len() > before && s.predicates.is_empty();
        }
        for _ in &hoisted {
            self.fire(Rule::HoistConstantPredicate);
        }
        if !hoisted.is_empty() {
            hoisted.append(&mut first.predicates);
            first.predicates = hoisted;
        }
        emptied
    }

    /// Folds a call whose arguments are all literals, through the shared
    /// function library.  Only functions that are pure and document-
    /// independent on scalar arguments are eligible; `position()`/`last()`
    /// read the context, `lang()` the context node, and the node-set
    /// functions their document.
    fn fold_call(&mut self, func: Func, args: &[ExprId]) -> Option<Node> {
        let foldable = matches!(
            func,
            Func::String
                | Func::Concat
                | Func::StartsWith
                | Func::Contains
                | Func::SubstringBefore
                | Func::SubstringAfter
                | Func::Substring
                | Func::StringLength
                | Func::NormalizeSpace
                | Func::Translate
                | Func::Boolean
                | Func::Not
                | Func::Number
                | Func::Floor
                | Func::Ceiling
                | Func::Round
        );
        if !foldable {
            return None;
        }
        let vals = self.literal_values(args)?;
        // The document parameter is only read for node-set arguments, which
        // `literal_value` never produces; a static placeholder satisfies
        // the signature.
        let doc = placeholder_doc();
        let v = funcs::apply(doc, func, &vals, doc.root()).ok()?;
        Some(value_to_node(v))
    }

    /// Rewrites the existence shapes of `count(π) RelOp c` (ROADMAP
    /// leftover from PR 3): a cardinality that is only compared against
    /// an existence threshold never needs counting —
    ///
    /// ```text
    /// count(π) > 0   count(π) != 0   count(π) >= 1   →  boolean(π)
    /// count(π) = 0   count(π) <  1   count(π) <= 0   →  not(boolean(π))
    /// ```
    ///
    /// (and the mirrored `c RelOp count(π)` forms via the swapped
    /// operator).  Sound because `count` of a node-set is a non-negative
    /// integer and both sides are position-independent; guarded on the
    /// argument's *static* type being a node-set, so an ill-typed
    /// `count('x')` keeps its runtime error instead of becoming a
    /// successful `boolean('x')`.  Besides skipping the count, the
    /// `boolean(π)` form is exactly the shape OPTMINCONTEXT answers with
    /// one backward pass, and building it through [`Rewriter::call`]
    /// gives `π` its existential tail rules on the spot.
    fn count_existence(&mut self, op: CmpOp, lhs: ExprId, rhs: ExprId) -> Option<ExprId> {
        let count_arg = |id: ExprId| match self.b.node(id) {
            Node::Call(Func::Count, args) => match args[..] {
                [arg] if self.b.value_type(arg) == ValueType::NodeSet => Some(arg),
                _ => None,
            },
            _ => None,
        };
        let number = |id: ExprId| match self.b.node(id) {
            Node::Number(c) => Some(*c),
            _ => None,
        };
        let (op, arg, c) = match (count_arg(lhs), number(rhs)) {
            (Some(arg), Some(c)) => (op, arg, c),
            _ => match (number(lhs), count_arg(rhs)) {
                (Some(c), Some(arg)) => (op.swapped(), arg, c),
                _ => return None,
            },
        };
        // `c == 0.0` also accepts -0.0, for which the shapes hold just
        // the same; NaN thresholds satisfy neither comparison and are
        // left alone.
        let exists = if c == 0.0 {
            match op {
                CmpOp::Gt | CmpOp::Neq => true,
                CmpOp::Eq | CmpOp::Le => false,
                _ => return None,
            }
        } else if c == 1.0 {
            match op {
                CmpOp::Ge => true,
                CmpOp::Lt => false,
                _ => return None,
            }
        } else {
            return None;
        };
        self.fire(Rule::CountExistence);
        let boolean = self.call(Func::Boolean, vec![arg]);
        Some(if exists {
            boolean
        } else {
            self.call(Func::Not, vec![boolean])
        })
    }

    /// The values of the nodes `ids` if every one of them is a literal.
    /// Stops at the first that is not: `@id = 'x'` copies no string.
    fn literal_values(&self, ids: &[ExprId]) -> Option<Vec<Value>> {
        ids.iter()
            .map(|&id| literal_value(self.b.node(id)))
            .collect()
    }

    fn literal_bool(&self, id: ExprId) -> Option<bool> {
        match self.b.node(id) {
            Node::Call(Func::True, _) => Some(true),
            Node::Call(Func::False, _) => Some(false),
            _ => None,
        }
    }

    fn push_bool(&mut self, v: bool) -> ExprId {
        let f = if v { Func::True } else { Func::False };
        self.push(Node::Call(f, Vec::new()))
    }

    /// Whether every (rebuilt) predicate of `step` ignores `position()`
    /// and `last()`.
    fn position_free(&self, step: &Step) -> bool {
        step.predicates.iter().all(|&p| {
            let r = self.b.relev(p);
            !r.position() && !r.size()
        })
    }
}

/// A predicate-free `::node()` step.
fn bare_any_node(s: &Step) -> bool {
    s.test == NodeTest::AnyNode && s.predicates.is_empty()
}

/// The tail rule that applies to a path whose value is only tested for
/// nonemptiness, if one does.
fn existential_tail_rule(steps: &[Step]) -> Option<Rule> {
    let (last, earlier) = steps.split_last()?;
    if !last.predicates.is_empty() {
        return None;
    }
    // `self`, `descendant-or-self` and `ancestor-or-self` relate every node
    // (attributes included) to itself, so under an existential context a
    // trailing `::node()` step of one of them never changes nonemptiness.
    if last.test == NodeTest::AnyNode
        && matches!(
            last.axis,
            Axis::SelfAxis | Axis::DescendantOrSelf | Axis::AncestorOrSelf
        )
    {
        return Some(Rule::DropExistentialTail);
    }
    // `…/s[p]/ancestor::b` (existential) ≡ `…/s[p][ancestor::b]`: the
    // reverse step becomes a per-node existence predicate the backward pass
    // answers with one forward preimage sweep.  Only when an earlier
    // predicate already rules out OPTMINCONTEXT's whole-path backward
    // propagation — a fully predicate-free path is better left to that
    // single pass.
    (last.axis.is_reverse() && earlier.iter().any(|s| !s.predicates.is_empty()))
        .then_some(Rule::FoldReverseTail)
}

/// Whether the origin set feeding `steps[i]` can contain attribute nodes.
/// `false` is required for the `following`/`preceding` chain fusion: the
/// fusion is exact on non-attribute origins only.
fn origin_excludes_attributes(start: &PathStart, steps: &[Step], i: usize) -> bool {
    if i > 0 {
        step_excludes_attributes(&steps[i - 1])
    } else {
        // An absolute path starts at the root node; a relative or filter
        // start could be (or contain) an attribute node.
        matches!(start, PathStart::Root)
    }
}

/// Whether a step's result set can never contain attribute nodes.  The
/// tree axes exclude attributes outright; the or-self and `self` axes
/// pass an attribute origin through `node()` tests (name and kind tests
/// on non-attribute axes only ever match elements/text/comments/PIs).
fn step_excludes_attributes(s: &Step) -> bool {
    match s.axis {
        Axis::Attribute => false,
        Axis::SelfAxis | Axis::DescendantOrSelf | Axis::AncestorOrSelf => {
            s.test != NodeTest::AnyNode
        }
        _ => true,
    }
}

/// The constant value of a literal node, if it is one.
fn literal_value(node: &Node) -> Option<Value> {
    match node {
        Node::Number(n) => Some(Value::Number(*n)),
        Node::Literal(s) => Some(Value::String(s.to_string())),
        Node::Call(Func::True, _) => Some(Value::Boolean(true)),
        Node::Call(Func::False, _) => Some(Value::Boolean(false)),
        _ => None,
    }
}

fn value_to_node(v: Value) -> Node {
    match v {
        Value::Number(n) => Node::Number(n),
        Value::String(s) => Node::Literal(s.into_boxed_str()),
        Value::Boolean(true) => Node::Call(Func::True, Vec::new()),
        Value::Boolean(false) => Node::Call(Func::False, Vec::new()),
        Value::NodeSet(_) => unreachable!("foldable functions never return node-sets"),
    }
}

fn placeholder_doc() -> &'static Document {
    static DOC: OnceLock<Document> = OnceLock::new();
    DOC.get_or_init(|| minctx_xml::parse("<x/>").expect("static placeholder parses"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_syntax::parse_xpath;

    fn rw(src: &str) -> Query {
        rewrite(&parse_xpath(src).unwrap())
    }

    /// Rewriting `a` must yield exactly the query `b` lowers to (up to
    /// stamps, which [`Query`]'s `PartialEq` ignores).
    fn assert_rewrites_to(a: &str, b: &str) {
        let got = rw(a);
        let want = parse_xpath(b).unwrap();
        assert_eq!(got, want, "{a:?} rewrote to {got:#?}, expected {b:?}");
    }

    /// Queries outside every rule's shape must come back unchanged.
    fn assert_fixed(src: &str) {
        assert_rewrites_to(src, src);
    }

    #[test]
    fn double_slash_fuses_to_descendant() {
        assert_rewrites_to("//a", "/descendant::a");
        assert_rewrites_to("//a//b", "/descendant::a/descendant::b");
        assert_rewrites_to("//*", "/descendant::*");
        assert_rewrites_to("//text()", "/descendant::text()");
        assert_rewrites_to("a//b", "child::a/descendant::b");
        // The headline serving query: the predicate is position-free.
        assert_rewrites_to("//item[@id]", "/descendant::item[@id]");
        // A following descendant-or-self step also fuses.
        assert_rewrites_to(
            "/descendant-or-self::node()/descendant-or-self::a",
            "/descendant-or-self::a",
        );
    }

    #[test]
    fn positional_predicates_block_fusion() {
        assert_fixed("/descendant-or-self::node()/child::a[position() = 2]");
        assert_fixed("/descendant-or-self::node()/child::a[(position() = last())]");
        // Mixed predicates: one positional predicate vetoes the fusion.
        assert_fixed("/descendant-or-self::node()/child::a[b][(position() = 2)]");
        // Predicates on the descendant-or-self step itself also block.
        assert_fixed("/descendant-or-self::node()[b]/child::a");
    }

    #[test]
    fn self_node_steps_are_dropped() {
        assert_rewrites_to("./a", "child::a");
        assert_rewrites_to("a/./b", "child::a/child::b");
        // `self::*` is a real filter, not the identity.
        assert_fixed("child::a/self::*");
        // A predicated self step is a real filter too.
        assert_fixed("self::node()[b]");
    }

    #[test]
    fn child_parent_flips_to_self_predicate() {
        assert_rewrites_to("a/parent::node()", "self::node()[a]");
        assert_rewrites_to("@id/..", "self::node()[@id]");
        // Positional inner predicates survive the flip verbatim.
        assert_rewrites_to("a[2]/parent::node()", "self::node()[a[2]]");
        // `parent::a` names its parent: not the pure inverse, left alone.
        assert_fixed("child::b/parent::a");
    }

    #[test]
    fn existential_tails_are_normalized() {
        // Trailing total or-self steps under boolean() are dropped…
        assert_rewrites_to(
            "count(//a[b/descendant-or-self::node()])",
            "count(/descendant::a[b])",
        );
        assert_rewrites_to("boolean(a/ancestor-or-self::node())", "boolean(a)");
        // …but not outside an existential context.
        assert_fixed("child::a/ancestor-or-self::node()");
        // A trailing reverse step folds into a predicate when an earlier
        // step already has one (backward propagation was off the table).
        assert_rewrites_to("//x[a[b]/ancestor::c]", "/descendant::x[a[b][ancestor::c]]");
        // Fully predicate-free paths stay whole for OPTMINCONTEXT.
        assert_fixed("child::x[boolean(child::a/ancestor::c)]");
    }

    #[test]
    fn following_and_preceding_chains_fuse_onto_one_step() {
        // The spec expansion of `following::t` fuses back onto the single
        // sliced-postings step (ROADMAP leftover from PR 2/3).
        assert_rewrites_to(
            "/a/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::item",
            "/child::a/following::item",
        );
        assert_rewrites_to(
            "/a/b/ancestor-or-self::node()/preceding-sibling::node()/descendant-or-self::*",
            "/child::a/child::b/preceding::*",
        );
        // An explicit or-self hop after following/preceding folds in too.
        assert_rewrites_to(
            "/a/following::node()/descendant-or-self::item",
            "/child::a/following::item",
        );
        assert_rewrites_to(
            "/a/preceding::node()/descendant-or-self::text()",
            "/child::a/preceding::text()",
        );
        // Position-free predicates ride along…
        assert_rewrites_to(
            "/a/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::item[@id]",
            "/child::a/following::item[@id]",
        );
        // …but positional ones veto the fusion (positions renumber).
        assert_fixed(
            "/child::a/ancestor-or-self::node()\
             /following-sibling::node()/descendant-or-self::item[(position() = 2)]",
        );
        // Chains whose origin may be an attribute stay put: this model
        // gives an attribute's `following` the whole tail after the
        // attribute, which the sibling chain cannot express.
        assert_fixed(
            "/child::a/attribute::x/ancestor-or-self::node()\
             /following-sibling::node()/descendant-or-self::item",
        );
        assert_fixed("ancestor-or-self::node()/following-sibling::node()/descendant-or-self::item");
        // The root start is attribute-free, so a leading chain fuses.
        assert_rewrites_to(
            "/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::item",
            "/following::item",
        );
    }

    #[test]
    fn constants_fold_through_the_shared_library() {
        let q = rw("1 + 2 * 3");
        assert!(matches!(q.node(q.root()), Node::Number(n) if *n == 7.0));
        let q = rw("string(1 div 0)");
        assert!(matches!(q.node(q.root()), Node::Literal(s) if &**s == "Infinity"));
        let q = rw("number('x') = number('x')");
        // NaN ≠ NaN, folded at rewrite time.
        assert!(matches!(q.node(q.root()), Node::Call(Func::False, _)));
        let q = rw("substring('12345', 1.5, 2.6)");
        assert!(matches!(q.node(q.root()), Node::Literal(s) if &**s == "234"));
        // The round() spec fix is visible to the folder too.
        let q = rw("1 div round(-0.2)");
        assert!(matches!(q.node(q.root()), Node::Number(n) if *n == f64::NEG_INFINITY));
        // `or`/`and` absorb literal booleans and keep the live side.
        let q = rw("a or true()");
        assert!(matches!(q.node(q.root()), Node::Call(Func::True, _)));
        let q = rw("false() or a");
        assert!(matches!(q.node(q.root()), Node::Call(Func::Boolean, _)));
        let q = rw("count(a) > 1 and false()");
        assert!(matches!(q.node(q.root()), Node::Call(Func::False, _)));
    }

    #[test]
    fn count_existence_shapes_rewrite_to_boolean_or_not() {
        // Positive shapes → boolean(π) (which is what OPTMINCONTEXT's
        // backward pass answers); the targets are spelled in their own
        // fully rewritten forms.
        assert_rewrites_to("count(//a) > 0", "boolean(/descendant::a)");
        assert_rewrites_to("count(//a) != 0", "boolean(/descendant::a)");
        assert_rewrites_to("count(//a) >= 1", "boolean(/descendant::a)");
        assert_rewrites_to("0 < count(//a)", "boolean(/descendant::a)");
        assert_rewrites_to("1 <= count(//a)", "boolean(/descendant::a)");
        assert_rewrites_to("0 != count(//a)", "boolean(/descendant::a)");
        // Negative shapes → not(π).
        assert_rewrites_to("count(//a) = 0", "not(/descendant::a)");
        assert_rewrites_to("count(//a) < 1", "not(/descendant::a)");
        assert_rewrites_to("count(//a) <= 0", "not(/descendant::a)");
        assert_rewrites_to("0 = count(//a)", "not(/descendant::a)");
        assert_rewrites_to("1 > count(//a)", "not(/descendant::a)");
        // Inside predicates, and composed with the existential tail rules
        // (the boolean() argument drops its trailing total or-self step).
        assert_rewrites_to("//x[count(a) > 0]", "/descendant::x[a]");
        assert_rewrites_to(
            "//x[count(a/descendant-or-self::node()) != 0]",
            "/descendant::x[a]",
        );
        // -0.0 thresholds behave like 0.0.
        assert_rewrites_to("count(//a) > -0", "boolean(/descendant::a)");
        // Non-existence thresholds are left alone…
        assert_fixed("count(/descendant::a) > 1");
        assert_fixed("count(/descendant::a) = 2");
        assert_fixed("count(/descendant::a) >= 0"); // constant true, but not an existence shape
                                                    // …as are comparisons of two counts.
        assert_fixed("count(/descendant::a) = count(/descendant::b)");
    }

    #[test]
    fn count_existence_rewriting_is_idempotent() {
        for src in ["count(//a) > 0", "count(//a) = 0", "//x[count(a) >= 1]"] {
            let once = rw(src);
            assert_eq!(once, rewrite(&once), "{src:?} not idempotent");
        }
    }

    #[test]
    fn true_predicates_vanish_and_constants_hoist() {
        assert_rewrites_to("a[true()]", "child::a");
        assert_rewrites_to("a[1 = 1]/b[not(false())]", "child::a/child::b");
        // A context-independent predicate moves to the first step (the
        // count-existence pass also rewrites it to `not(/c)` en route).
        assert_rewrites_to("a/b[count(/c) = 0]", "child::a[not(/c)]/child::b");
        assert_rewrites_to("a/b[count(/c) > 1]", "child::a[count(/c) > 1]/child::b");
        // Context-dependent predicates stay put.
        assert_fixed("child::a/child::b[c]");
    }

    #[test]
    fn union_branches_share_subexpressions() {
        let raw = parse_xpath("a[x = 1]/b | a[x = 1]/c").unwrap();
        let opt = rewrite(&raw);
        // The duplicated `a[x = 1]` predicate machinery is interned once.
        assert!(
            opt.len() < raw.len(),
            "no sharing: {} -> {} nodes",
            raw.len(),
            opt.len()
        );
        // Identical union branches collapse to one.
        let q = rw("a | a");
        assert!(matches!(q.node(q.root()), Node::Path(..)));
    }

    #[test]
    fn rewriting_is_idempotent_on_the_corpus_shapes() {
        for src in [
            "//a//b[c]",
            "//item[@id]",
            "(//a)[2]/b",
            "a[2]/parent::node()",
            "count(//a[b/ancestor::c])",
            "//book[@year = 2000][2]",
            "self::node()[a]",
            "1 div round(-0.2)",
        ] {
            let once = rw(src);
            let twice = rewrite(&once);
            assert_eq!(once, twice, "{src:?} not idempotent");
        }
    }

    #[test]
    fn rewrite_trace_reports_fired_rules() {
        // The headline serving query: `//` fusion fires exactly once, and
        // the trace names it; nothing else fires.
        let (q, tr) = rewrite_traced(&parse_xpath("//item[@id]").unwrap());
        assert_eq!(q, parse_xpath("/descendant::item[@id]").unwrap());
        assert_eq!(tr.count(Rule::FuseDescendant), 1);
        assert_eq!(tr.fired(), vec![(Rule::FuseDescendant, 1)]);
        assert_eq!(tr.passes, 1, "a fusion strands no node: nothing to compact");
        // A richer query fires several rules, reported in Rule::ALL order.
        let (_, tr) = rewrite_traced(&parse_xpath("//x[count(a) > 0]/./b[true()]").unwrap());
        assert_eq!(tr.passes, 2, "`count(a)`, `0` and `true()` are left behind");
        let fired: Vec<Rule> = tr.fired().iter().map(|&(r, _)| r).collect();
        assert!(fired.contains(&Rule::FuseDescendant));
        assert!(fired.contains(&Rule::DropSelfStep));
        assert!(fired.contains(&Rule::DropTruePredicate));
        assert!(fired.contains(&Rule::CountExistence));
        let order: Vec<usize> = fired
            .iter()
            .map(|r| Rule::ALL.iter().position(|a| a == r).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "unstable order");
        // A fixed-point query fires nothing at all.
        let (_, tr) = rewrite_traced(&parse_xpath("child::a[b]").unwrap());
        assert_eq!(tr.total(), 0);
        assert!(tr.fired().is_empty());
        assert_eq!(tr.passes, 1);
        // Every rule has a distinct stable name, and counts under its own
        // discriminant.
        let names: std::collections::BTreeSet<_> = Rule::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(names.len(), Rule::ALL.len());
        for (i, r) in Rule::ALL.into_iter().enumerate() {
            assert_eq!(
                r as usize, i,
                "{r} is out of declaration order in Rule::ALL"
            );
        }
    }

    #[test]
    fn a_rewrite_taller_than_lowering_can_produce_is_discarded() {
        // Per nesting, `a[…]/..` is two levels as lowered (the path and the
        // `boolean()` around it) and four once flipped.
        let nested = |d: usize| format!("{}a/..{}", "a[".repeat(d), "]/..".repeat(d));
        let q = parse_xpath(&nested(31)).unwrap();
        let (out, tr) = rewrite_traced(&q);
        assert_eq!((height(&q), height(&out)), (63, 127));
        assert_eq!(tr.fired(), vec![(Rule::FlipChildParent, 32)]);
        assert_eq!(rewrite(&out), out);
        // One more and the result would be 131 levels: the query stays as
        // it was lowered, and the trace says that nothing was applied.
        let q = parse_xpath(&nested(32)).unwrap();
        let (out, tr) = rewrite_traced(&q);
        assert_eq!((height(&q), out == q), (65, true));
        assert_eq!((tr.total(), tr.passes), (0, 1));
        // The deepest nesting the parser admits lowers to within the bound,
        // so only growth can ever trip it: the same nesting without the
        // `..` rewrites as usual.
        let deepest = parse_xpath(&nested(minctx_syntax::MAX_QUERY_DEPTH - 1)).unwrap();
        assert_eq!(height(&deepest), MAX_HEIGHT - 1);
        assert_eq!(rewrite(&deepest), deepest);
        let plain = format!("{}//a{}", "a[".repeat(63), "]".repeat(63));
        let (out, tr) = rewrite_traced(&parse_xpath(&plain).unwrap());
        assert_eq!(
            (height(&out), tr.fired()),
            (127, vec![(Rule::FuseDescendant, 1)])
        );
    }

    #[test]
    fn work_is_linear_in_the_query() {
        // Step chains as long as `MAX_QUERY_LEN` admits, one per rule that
        // used to restart the scan: work — steps appended plus nodes
        // pushed — stays within C × (input nodes + input steps).  Each step
        // is appended once, once more if hoisting emptied a step of its
        // path, and a firing pushes at most two nodes for the steps it
        // consumes.
        const C: usize = 3;
        let chain = |head: &str, link: &str| {
            let n = (minctx_syntax::MAX_QUERY_LEN - head.len()) / link.len();
            format!("{head}{}", link.repeat(n))
        };
        for (name, src) in [
            ("nothing fires", chain(".", "/a")),
            ("every pair fuses", chain(".", "//a")),
            ("every step drops", chain(".", "/.")),
            ("every pair flips", chain(".", "/a/..")),
            ("fusion under predicates", chain("", "//a[b]")),
            ("every predicate drops", chain("", "/a[1=1]")),
            ("every predicate hoists", chain("", "/a/b[count(/c)>1]")),
        ] {
            let q = parse_xpath(&src).unwrap();
            let mut rw = Rewriter::new(&q);
            rw.rebuild(q.root());
            let size = q.len() + q.step_count();
            assert!(size > 9_000, "{name}: only {size} nodes and steps");
            assert!(
                rw.work <= C * size,
                "{name}: {} units of work for {size} nodes and steps",
                rw.work
            );
        }
    }

    #[test]
    fn rebuilt_arenas_keep_children_before_parents() {
        for src in ["//a[b = 1] | //c[b = 1]", "//x[a[b]/ancestor::c]", "a/.."] {
            let q = rw(src);
            assert_eq!(q.root().index(), q.len() - 1, "{src:?}: root not last");
            for (id, node) in q.iter() {
                node.clone()
                    .for_each_child_mut(|c| assert!(*c < id, "{src:?}: child {c} not before {id}"));
            }
        }
    }
}
