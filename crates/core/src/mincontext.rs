//! MINCONTEXT and OPTMINCONTEXT (Sections 3 and 4 of the paper).
//!
//! The algorithmic content of the paper, in two layers:
//!
//! **MINCONTEXT** (Section 3).  Location paths are evaluated *set at a
//! time* with deduplication (so step chains stay linear in `|D|` instead of
//! exploding like the naive context-at-a-time loop), and every expression
//! node `N` is computed at most once per distinct *relevant context*
//! `Relev(N)` computed during lowering: a predicate such as
//! `position() != last()` (`Relev = {position, size}`) once per distinct
//! `(k, n)` pair *across all context nodes*, a predicate such as
//! `count(b) > 2` (`Relev = {node}`) once per distinct context node
//! regardless of the positional context, and an absolute path exactly once
//! per document.  The memo tables that guarantee this exist only where a
//! repeat can actually arrive (the `memo` module decides which).  Since only contexts
//! that actually arise are ever touched (the top-down recursion is the
//! paper's context-propagation), total work is polynomial (Theorems 7, 10
//! and 13).  `crates/core/tests/theorems.rs` counts it: fuel grows linearly
//! with `|D|` for every Core XPath, Extended Wadler and full-XPath family
//! query on balanced trees; on deep chains a per-node `descendant::`
//! predicate walks each subtree, quadratic here and linear only under
//! OPTMINCONTEXT's satisfying sets.
//!
//! Predicates are set-at-a-time too.  A step whose predicates all ignore
//! `position()` and `last()` sweeps its axis once for the whole context
//! set and filters the candidate *set* (`and` in sequence, `or` as a
//! union, `not` as a difference, anything else node by node); a step with
//! a positional predicate ranks `child` / `attribute` candidates among
//! their siblings and lists them per origin on the other axes — only for
//! origins the node test's postings say have a candidate at all.
//!
//! **OPTMINCONTEXT** (Section 4, with the Core XPath algorithm of the
//! VLDB'02 predecessor).  A position-free predicate is answered for a whole
//! domain `D` by one kernel call per path in it: a comparison of
//! `count(π)`s (on a ranked list, of `position()` / `last()` too) by typed
//! columns, and `boolean(π)` / `π op c` by its *satisfying set*, built
//! innermost first.  Witnesses — the postings of `π`'s last node test, or
//! the nodes it selects, compared under `op c` — are carried right to left
//! through each `χ⁻¹` ([`axis_preimage`]), restricted at every step to its
//! node test and to the satisfying sets of its own predicates.  The last
//! `χ⁻¹` lands on `D`: a merge of the witnesses against `D` where the
//! inverse axis merges, a local walk from `D` when `π` is one
//! predicate-free `child` / `attribute` / `self` step and `D` the shorter
//! side, else the preimage kernel — a set for the whole document, built
//! once per evaluation, which *is* the predicate's table and which a `*` /
//! `node()` step may start from (DESIGN.md "Set-at-a-time predicates").
//!
//! [`axis_preimage`]: minctx_xml::axes::axis_preimage

use crate::budget::BudgetMeter;
use crate::compile::{CompiledQuery, StepRoute};
use crate::engine::Context;
use crate::error::EvalError;
use crate::explain::{PredMode, ProfileCollector, StepObservation};
use crate::funcs;
use crate::memo::{tables_for, Table};
use crate::naive::arith;
use crate::value::{compare, compare_scalars, node_scalar_compare, Value};
use minctx_syntax::{ArithOp, CmpOp, ExprId, Func, Node, PathStart, Relev, Step};
use minctx_xml::axes::{
    axis_counts, axis_image_among, axis_image_on, axis_preimage_on, retain_local, Axis, AxisRoute,
    Dispatch, ResolvedTest,
};
use minctx_xml::{sibling_ranks, Document, Exec, NodeId, NodeSet, Scratch, SiblingRank};
use std::borrow::Cow;
use std::time::Instant;

/// Evaluates a compiled query at a context by MINCONTEXT, or with
/// `optimized` by OPTMINCONTEXT, charging work to `meter`; `scratch` is
/// the axis kernels' working memory.  `threads` is the engine's worker
/// count ([`Engine::with_threads`](crate::Engine::with_threads)): above 1,
/// the axis kernels cut their large scans into ranges on that many scoped
/// threads — same kernel bodies, same results, same fuel; nothing else
/// about the evaluation changes.
pub(crate) fn evaluate(
    doc: &Document,
    query: &CompiledQuery,
    ctx: Context,
    optimized: bool,
    threads: usize,
    scratch: &mut Scratch,
    meter: &mut BudgetMeter,
) -> Result<Value, EvalError> {
    Run::new(doc, query, optimized, threads, scratch, meter, None).eval(query.query().root(), ctx)
}

/// [`evaluate`] at the document root with a [`ProfileCollector`]
/// attached: the instrumented entry point behind [`Engine::explain`].
/// Identical semantics and fuel accounting; the profiled run additionally
/// reads the clock once per path step.
///
/// [`Engine::explain`]: crate::Engine::explain
pub(crate) fn evaluate_profiled(
    doc: &Document,
    query: &CompiledQuery,
    optimized: bool,
    threads: usize,
    scratch: &mut Scratch,
    meter: &mut BudgetMeter,
    prof: &mut ProfileCollector,
) -> Result<Value, EvalError> {
    Run::new(doc, query, optimized, threads, scratch, meter, Some(prof))
        .eval(query.query().root(), Context::document(doc))
}

struct Run<'d, 'q, 's, 'm, 'p> {
    doc: &'d Document,
    query: &'q CompiledQuery,
    opt: bool,
    /// Per expression node: its memo table (see [`crate::memo`] for which
    /// nodes have one).
    memo: Vec<Table>,
    /// OPTMINCONTEXT: per path predicate, every node of the document it
    /// holds for, once the preimage landing built it — then the
    /// predicate's whole table, consulted before `memo` and never copied
    /// into it.  `None` until first asked, `Some(None)` for a node that is
    /// no path predicate.
    satisfied: Vec<Option<Option<NodeSet>>>,
    /// OPTMINCONTEXT: per path predicate landing by a merge, its witnesses
    /// at the first step, kept for the next domain.
    witnesses: Vec<Option<Cow<'d, [NodeId]>>>,
    /// Reusable axis-kernel working memory (engine-owned).
    scratch: &'s mut Scratch,
    /// Fuel/deadline accounting: charged per compute, per axis kernel call
    /// (proportional to the context set and to its output), per candidate
    /// filtered, and per preimage (likewise, or |D| where the preimage
    /// scans the arena).
    meter: &'m mut BudgetMeter,
    /// EXPLAIN instrumentation; `None` (the common case) costs one branch
    /// per hook and never reads the clock.
    prof: Option<&'p mut ProfileCollector>,
    /// How the axis kernels run their scans: cut on the evaluator's
    /// threads when it has more than one, inline otherwise.
    exec: Exec<'q>,
    /// How many set filters or ranking passes evaluated a predicate node by
    /// node; a step that leaves it unchanged ran on the predicate algebra
    /// alone (EXPLAIN's `mode=algebra` / `rank-column`, not `set` /
    /// `sibling-rank`).
    per_node: u64,
}

/// A predicate OPTMINCONTEXT answers for a whole domain, one kernel call
/// per path in it (DESIGN.md "Set-at-a-time predicates").
#[derive(Clone, Copy)]
enum Shape<'q> {
    /// `a op b` over [`Run::counted`] operands: a [`Column`] each.
    Counts(CmpOp, ExprId, ExprId),
    /// `boolean(π)` or `π op c`: a satisfying set.
    Path(PathPred<'q>),
}

/// A [`Shape::Counts`] operand over a list, typed by what it reads: a
/// constant stays one number, `position()` / `last()` read the list's
/// ranks, `count(π)` is the grouped count kernel's output, arithmetic
/// combines two columns and a negation negates one, member by member — no
/// operand is copied into a column of `f64`s.
enum Column<'r> {
    Constant(f64),
    Position(&'r [SiblingRank]),
    Last(&'r [SiblingRank]),
    Counts(Vec<u32>),
    Arith(ArithOp, Box<[Column<'r>; 2]>),
    Neg(Box<Column<'r>>),
}

/// How many members [`Column::fill`] converts at a time.
const BLOCK: usize = 64;

impl Column<'_> {
    /// Calls `keep(i, self[i] op other[i])` for each member `i < n` in
    /// order, compared in `f64` by [`compare_scalars`], a block of each
    /// side at a time.  Not inlined: in `Run::answer` the two blocks and
    /// the loop slowed the satisfying-set landings beside them by 5–7 %
    /// (`arena-preds`, `//item[@id]`).
    #[inline(never)]
    fn compare(&self, op: CmpOp, other: &Column<'_>, n: usize, mut keep: impl FnMut(usize, bool)) {
        let (mut x, mut y) = ([0.0; BLOCK], [0.0; BLOCK]);
        for from in (0..n).step_by(BLOCK) {
            let len = BLOCK.min(n - from);
            let (x, y) = (&mut x[..len], &mut y[..len]);
            self.fill(from, x);
            other.fill(from, y);
            for (i, (x, y)) in x.iter().zip(y.iter()).enumerate() {
                keep(
                    from + i,
                    compare_scalars(op, &Value::Number(*x), &Value::Number(*y)),
                );
            }
        }
    }

    /// Members `from..from + out.len()` into `out`: one loop per kind,
    /// arithmetic a block of each operand at a time.
    fn fill(&self, from: usize, out: &mut [f64]) {
        let to = from + out.len();
        match self {
            Column::Constant(c) => out.fill(*c),
            Column::Position(ranks) => {
                for (o, r) in out.iter_mut().zip(&ranks[from..to]) {
                    *o = f64::from(r.position);
                }
            }
            Column::Last(ranks) => {
                for (o, r) in out.iter_mut().zip(&ranks[from..to]) {
                    *o = f64::from(r.size);
                }
            }
            Column::Counts(counts) => {
                for (o, &k) in out.iter_mut().zip(&counts[from..to]) {
                    *o = f64::from(k);
                }
            }
            Column::Arith(op, ab) => {
                let mut b = [0.0; BLOCK];
                let b = &mut b[..out.len()];
                ab[0].fill(from, out);
                ab[1].fill(from, b);
                for (a, b) in out.iter_mut().zip(b.iter()) {
                    *a = arith(*op, *a, *b);
                }
            }
            Column::Neg(a) => {
                a.fill(from, out);
                for o in out {
                    *o = -*o;
                }
            }
        }
    }
}

/// `boolean(π)` as `cmp: None`; `π op c` and `c op π` as `Some((op, c))`,
/// path on the left.  `π` is relative and its predicates ignore position.
#[derive(Clone, Copy)]
struct PathPred<'q> {
    path: ExprId,
    steps: &'q [Step],
    cmp: Option<(CmpOp, ExprId)>,
}

/// How a path predicate's last `χ⁻¹` lands on a domain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Landing {
    /// One merge of the witnesses against the domain.
    Merge,
    /// A walk from each member over its own children, attributes or itself.
    Local,
    /// The preimage kernel: the set for the whole document, intersected.
    Whole,
}

impl<'d, 'q, 's, 'm, 'p> Run<'d, 'q, 's, 'm, 'p> {
    fn new(
        doc: &'d Document,
        query: &'q CompiledQuery,
        opt: bool,
        threads: usize,
        scratch: &'s mut Scratch,
        meter: &'m mut BudgetMeter,
        prof: Option<&'p mut ProfileCollector>,
    ) -> Self {
        Run {
            doc,
            query,
            opt,
            memo: tables_for(query.query()),
            satisfied: vec![None; query.query().len()],
            witnesses: vec![None; query.query().len()],
            scratch,
            meter,
            prof,
            exec: Exec::on(threads),
            per_node: 0,
        }
    }

    fn eval(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        if let Some(set) = self.whole(id)? {
            return Ok(Value::Boolean(set.contains(ctx.node)));
        }
        let relev = self.query.query().relev(id);
        if let Some(v) = self.memo[id.index()].get(relev, ctx) {
            if let Some(p) = &mut self.prof {
                p.memo_hit();
            }
            return Ok(v);
        }
        let v = self.compute(id, ctx)?;
        self.memo[id.index()].put(relev, ctx, self.doc.len(), &v);
        Ok(v)
    }

    fn compute(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        // Computes are the unit of work MINCONTEXT's complexity bound
        // counts; table hits are free.
        self.meter.charge(1)?;
        if let Some(p) = &mut self.prof {
            p.memo_miss();
        }
        Ok(match self.query.query().node(id) {
            Node::Or(a, b) => {
                Value::Boolean(self.eval(*a, ctx)?.boolean() || self.eval(*b, ctx)?.boolean())
            }
            Node::And(a, b) => {
                Value::Boolean(self.eval(*a, ctx)?.boolean() && self.eval(*b, ctx)?.boolean())
            }
            Node::Compare(op, a, b) => {
                let va = self.eval(*a, ctx)?;
                let vb = self.eval(*b, ctx)?;
                Value::Boolean(compare(self.doc, *op, &va, &vb))
            }
            Node::Arith(op, a, b) => {
                let x = self.eval(*a, ctx)?.number(self.doc);
                let y = self.eval(*b, ctx)?.number(self.doc);
                Value::Number(arith(*op, x, y))
            }
            Node::Neg(a) => Value::Number(-self.eval(*a, ctx)?.number(self.doc)),
            Node::Union(a, b) => {
                let x = self.eval(*a, ctx)?.into_node_set()?;
                let y = self.eval(*b, ctx)?.into_node_set()?;
                Value::NodeSet(x.union(&y))
            }
            Node::Path(start, steps) => self.eval_path(id, start, steps, ctx)?,
            Node::Call(Func::Position, _) => Value::Number(ctx.position as f64),
            Node::Call(Func::Last, _) => Value::Number(ctx.size as f64),
            Node::Call(func, args) => {
                let vals = args
                    .iter()
                    .map(|&a| self.eval(a, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                funcs::apply(self.doc, *func, &vals, ctx.node)?
            }
            Node::Number(n) => Value::Number(*n),
            Node::Literal(s) => Value::String(s.to_string()),
        })
    }

    /// How many of the leading `preds` ignore `position()` and `last()` —
    /// the gate `rewrite` uses for step fusion.  Those can be answered for
    /// a whole candidate *set*; from the first positional predicate on,
    /// candidates need their per-origin axis order.
    fn position_free(&self, preds: &[ExprId]) -> usize {
        let q = self.query.query();
        preds
            .iter()
            .take_while(|&&p| !q.relev(p).position() && !q.relev(p).size())
            .count()
    }

    /// `χ⁻¹(targets)` into `out`, charged for what the kernel touches: the
    /// whole arena for the three preimages that still scan it, the targets
    /// going in and the preimage coming out for the rest.
    fn preimage(
        &mut self,
        axis: Axis,
        targets: &NodeSet,
        out: &mut NodeSet,
    ) -> Result<(), EvalError> {
        let scans = matches!(axis, Axis::Following | Axis::Preceding | Axis::Id);
        let before = if scans { self.doc.len() } else { targets.len() };
        self.meter.charge(before as u64 + 1)?;
        axis_preimage_on(self.doc, axis, targets, self.scratch, out, self.exec);
        self.meter.charge(if scans { 0 } else { out.len() as u64 })
    }

    /// The sorted postings a name test selects on `axis` — everything the
    /// test can match, known without visiting a node.
    fn postings(&self, axis: Axis, test: ResolvedTest) -> Option<&'d [NodeId]> {
        match test {
            ResolvedTest::Name(n) if axis == Axis::Attribute => {
                Some(self.doc.attribute_postings(n))
            }
            ResolvedTest::Name(n) => Some(self.doc.element_postings(n)),
            _ => None,
        }
    }

    /// Set-at-a-time path evaluation with deduplication after every step.
    fn eval_path(
        &mut self,
        path_id: ExprId,
        start: &PathStart,
        steps: &[Step],
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let mut cur: NodeSet = match start {
            PathStart::Root => NodeSet::singleton(self.doc.root()),
            PathStart::Context => NodeSet::singleton(ctx.node),
            PathStart::Filter {
                primary,
                predicates,
            } => {
                let mut set = self.eval(*primary, ctx)?.into_node_set()?;
                let free = self.position_free(predicates);
                for &p in &predicates[..free] {
                    set = self.filter_set(p, set)?;
                }
                // Proximity positions of a filter are in document order;
                // filtering a document-ordered list keeps it sorted.
                let mut list = set.into_vec();
                for &p in &predicates[free..] {
                    self.filter_candidates(p, &mut list)?;
                }
                NodeSet::from_sorted_vec(list)
            }
        };
        let mut next = NodeSet::new();
        for (si, step) in steps.iter().enumerate() {
            if cur.is_empty() {
                break;
            }
            // Node tests and routes were resolved at compile time
            // (postings-backed fast paths dispatch on the resolved name).
            let test = self.query.step_test(path_id, si);
            let route = self.query.step_route(path_id, si);
            if route == StepRoute::Elided {
                // Never built: the ranked step behind it sweeps
                // `descendant` from this very set.
                if let Some(p) = &mut self.prof {
                    p.record_elided(path_id, si, step);
                }
                continue;
            }
            // An axis sweep touches at least the whole context set.
            self.meter.charge(cur.len() as u64 + 1)?;
            // Only a profiled run reads the clock; the step's route and
            // cardinalities are recorded after the kernel and the
            // predicate filtering finish.
            let timer = self.timer();
            let mut input = cur.len();
            let free = self.position_free(&step.predicates);
            let (doc, exec) = (self.doc, self.exec);
            let (ran, mode, origins) = if route != StepRoute::PerOrigin {
                // One axis sweep for the whole context set, ping-ponging
                // two reused buffers, then each position-free predicate
                // filters the result as a set.
                let axis = match route {
                    StepRoute::Ranked(sweep) => sweep,
                    _ => step.axis,
                };
                // A ranked step's sweep is what it ranks: set routes only.
                let lead = step.predicates.first().filter(|_| route == StepRoute::Set);
                let seeded = self.start_from(axis, test, lead, &cur, &mut next)?;
                let ran = match seeded {
                    Some(ran) => ran,
                    None => axis_image_on(doc, axis, &cur, test, self.scratch, &mut next, exec),
                };
                // Charge the sweep's output too: from a singleton
                // context, `preceding::*` can touch most of the
                // document, and deadline polling granularity must
                // track that work, not just the input size.
                self.meter.charge(next.len() as u64)?;
                std::mem::swap(&mut cur, &mut next);
                let visited = self.per_node;
                for &p in &step.predicates[usize::from(seeded.is_some())..free] {
                    cur = self.filter_set(p, cur)?;
                }
                let mode = if free < step.predicates.len() {
                    // What a ranked step takes in is the candidates it ranks.
                    input = cur.len();
                    let visited = self.per_node;
                    cur = self.filter_ranked(&step.predicates[free..], cur)?;
                    let modes = [PredMode::RankColumn, PredMode::SiblingRank];
                    Some(modes[usize::from(self.per_node > visited)])
                } else if step.predicates.is_empty() {
                    None
                } else {
                    Some([PredMode::Algebra, PredMode::Set][usize::from(self.per_node > visited)])
                };
                (ran, mode, input)
            } else {
                // Where one candidate can have several origins, positional
                // predicates need per-origin candidate lists in axis
                // order.  An origin none of whose candidates can pass
                // the node test contributes nothing: when the test's
                // postings are shorter than the origin set, one preimage
                // sweep keeps only the origins that reach them.
                if let Some(hits) = self.postings(step.axis, test) {
                    if hits.len() < cur.len() {
                        let hits = NodeSet::from_sorted_vec(hits.to_vec());
                        self.preimage(step.axis, &hits, &mut next)?;
                        cur = cur.intersect(&next);
                    }
                }
                let origins = cur.len();
                // Leading position-free predicates are answered once, as a
                // set over every origin's candidates, and consulted by
                // membership below.
                // The step's route is what the single-origin kernel reports
                // (the same for every origin); with none left after
                // pruning, no kernel ran.
                let mut ran = Dispatch::NONE;
                let prefix = if free > 0 {
                    let set =
                        axis_image_on(doc, step.axis, &cur, test, self.scratch, &mut next, exec);
                    ran.chunks = set.chunks;
                    self.meter.charge(next.len() as u64)?;
                    let mut set = std::mem::take(&mut next);
                    for &p in &step.predicates[..free] {
                        set = self.filter_set(p, set)?;
                    }
                    Some(set)
                } else {
                    None
                };
                // Each origin: its candidates in axis order, cut down to
                // the prefix set, then filtered predicate by predicate.
                let (mut acc, mut cands) = (Vec::new(), Vec::new());
                for x in cur.iter() {
                    let one = doc.axis_nodes_on(step.axis, x, test, &mut cands, exec);
                    ran.route = one.route;
                    ran.chunks += one.chunks;
                    if let Some(set) = &prefix {
                        cands.retain(|&y| set.contains(y));
                    }
                    for &p in &step.predicates[free..] {
                        self.filter_candidates(p, &mut cands)?;
                    }
                    acc.extend_from_slice(&cands);
                }
                cur = NodeSet::from_unsorted_with_capacity(doc.len(), acc);
                (ran, Some(PredMode::PerOrigin), origins)
            };
            if let Some(p) = &mut self.prof {
                let obs = StepObservation {
                    route: ran.route,
                    mode,
                    input,
                    origins,
                    output: cur.len(),
                    time: timer.expect("profiled step has a timer").elapsed(),
                    chunks: ran.chunks,
                };
                p.record_step(path_id, si, step, obs);
            }
        }
        Ok(Value::NodeSet(cur))
    }

    /// Keeps the members of `cands` for which the position-free predicate
    /// `pred` holds, without visiting a node the answer is already known
    /// for: a [`Shape`] is answered for the whole set by [`Run::answer`];
    /// `and` filters in sequence, `or` unions (the right operand sees only
    /// what the left rejected), `not` takes the difference within `cands` —
    /// each consulting and extending the predicate's own table, which
    /// stands in for the per-node computes that would have shielded the
    /// operands; any other shape is evaluated node by node ([`Run::eval`]).
    fn filter_set(&mut self, pred: ExprId, cands: NodeSet) -> Result<NodeSet, EvalError> {
        if cands.is_empty() {
            return Ok(cands);
        }
        let q = self.query.query();
        if q.relev(pred) != Relev::NODE {
            // A context-free predicate is one table entry, not a set.
            return self.filter_nodes(pred, cands);
        }
        let shape = self.shape(pred);
        let algebra = matches!(
            q.node(pred),
            Node::And(..) | Node::Or(..) | Node::Call(Func::Not, _)
        );
        if shape.is_none() && !algebra {
            return self.filter_nodes(pred, cands);
        }
        self.meter.charge(cands.len() as u64 + 1)?;
        if let Some(Shape::Path(p)) = shape {
            if self.landing(pred, p, cands.len()) == Landing::Whole {
                let holds = self.whole(pred)?.expect("a path predicate");
                return Ok(cands.intersect(holds));
            }
        }
        let (known, todo) = self.memo[pred.index()].split(cands);
        let holds = match (shape, q.node(pred)) {
            (Some(shape), _) => {
                NodeSet::from_sorted_vec(self.answer(pred, shape, todo.as_slice(), None)?)
            }
            (None, Node::And(a, b)) => {
                let left = self.filter_set(*a, todo.clone())?;
                self.filter_set(*b, left)?
            }
            (None, Node::Or(a, b)) => {
                let left = self.filter_set(*a, todo.clone())?;
                let right = self.filter_set(*b, todo.difference(&left))?;
                left.union(&right)
            }
            (None, Node::Call(_, args)) => {
                todo.difference(&self.filter_set(args[0], todo.clone())?)
            }
            _ => unreachable!("a shape or the set algebra"),
        };
        self.memo[pred.index()].record(self.doc.len(), &todo, &holds);
        Ok(if known.is_empty() {
            holds
        } else {
            known.union(&holds)
        })
    }

    /// [`Run::filter_set`]'s node-by-node leg.
    fn filter_nodes(&mut self, pred: ExprId, cands: NodeSet) -> Result<NodeSet, EvalError> {
        self.per_node += 1;
        let mut list = cands.into_vec();
        self.filter_candidates(pred, &mut list)?;
        Ok(NodeSet::from_sorted_vec(list))
    }

    /// Keeps, in place, the candidates `pred` holds for; proximity
    /// positions are the list's (axis) order.
    fn filter_candidates(
        &mut self,
        pred: ExprId,
        cands: &mut Vec<NodeId>,
    ) -> Result<(), EvalError> {
        let size = cands.len();
        self.meter.charge(size as u64 + 1)?;
        let mut kept = 0;
        for i in 0..size {
            let inner = Context {
                node: cands[i],
                position: i + 1,
                size,
            };
            if self.eval(pred, inner)?.boolean() {
                cands[kept] = cands[i];
                kept += 1;
            }
        }
        cands.truncate(kept);
        Ok(())
    }

    /// The positional predicates (and whatever follows them) of a step
    /// whose candidates have exactly one origin each — their parent: the
    /// per-origin candidate lists in axis order *are* the candidate set
    /// grouped by parent.  Each predicate ranks the survivors of the one
    /// before among their siblings ([`sibling_ranks`]): a [`Shape`] under
    /// OPTMINCONTEXT is answered for the ranked list, `position()` /
    /// `last()` read off the ranks; anything else evaluates each candidate
    /// through the `{position, size}` tables.
    fn filter_ranked(&mut self, preds: &[ExprId], cands: NodeSet) -> Result<NodeSet, EvalError> {
        let mut list = cands.into_vec();
        for &pred in preds {
            // One ranking pass and one filtering pass over the list.
            self.meter.charge(2 * (list.len() as u64 + 1))?;
            let ranks = sibling_ranks(self.doc, &list, self.scratch);
            let kept = self.retain_ranked(pred, &mut list, &ranks);
            // The buffer goes back to `Scratch` on the error path too.
            self.scratch.recycle_ranks(ranks);
            kept?;
        }
        Ok(NodeSet::from_sorted_vec(list))
    }

    /// [`Run::filter_ranked`]'s filtering pass.
    fn retain_ranked(
        &mut self,
        pred: ExprId,
        list: &mut Vec<NodeId>,
        ranks: &[SiblingRank],
    ) -> Result<(), EvalError> {
        match self.shape(pred) {
            // A comparison of columns keeps its members in place, and the
            // list gives back what it no longer holds.
            Some(Shape::Counts(op, a, b)) => {
                let ranks = Some(ranks);
                let [x, y] = [self.column(a, list, ranks)?, self.column(b, list, ranks)?];
                let mut kept = 0;
                x.compare(op, &y, list.len(), |i, holds| {
                    list[kept] = list[i];
                    kept += usize::from(holds);
                });
                list.truncate(kept);
                list.shrink_to_fit();
                return Ok(());
            }
            Some(shape) => {
                *list = self.answer(pred, shape, list, Some(ranks))?;
                return Ok(());
            }
            None => {}
        }
        self.per_node += 1;
        let mut kept = 0;
        for (i, rank) in ranks.iter().enumerate() {
            let inner = Context {
                node: list[i],
                position: rank.position as usize,
                size: rank.size as usize,
            };
            list[kept] = list[i];
            kept += usize::from(self.eval(pred, inner)?.boolean());
        }
        list.truncate(kept);
        Ok(())
    }

    /// The clock, read only for a profiled run.
    fn timer(&self) -> Option<Instant> {
        self.prof.is_some().then(Instant::now)
    }

    // ---- OPTMINCONTEXT: the predicate algebra -------------------------

    /// The [`Shape`] OPTMINCONTEXT answers `pred` by; `None` under plain
    /// MINCONTEXT.
    fn shape(&self, pred: ExprId) -> Option<Shape<'q>> {
        if !self.opt {
            return None;
        }
        if let Node::Compare(op, a, b) = self.query.query().node(pred) {
            if self.counted(*a) && self.counted(*b) {
                return Some(Shape::Counts(*op, *a, *b));
            }
        }
        self.path_pred(pred).map(Shape::Path)
    }

    /// `pred` as a [`PathPred`]: `boolean(π)`, `π op c` or `c op π`, `π` a
    /// relative path whose predicates all ignore position, `c` a number or
    /// string literal.  Booleans are excluded: comparing a node-set against
    /// a boolean converts the *set*, which is no per-node comparison.
    fn path_pred(&self, pred: ExprId) -> Option<PathPred<'q>> {
        let q = self.query.query();
        let relative = |id: ExprId| match q.node(id) {
            Node::Path(PathStart::Context, steps)
                if steps
                    .iter()
                    .all(|s| self.position_free(&s.predicates) == s.predicates.len()) =>
            {
                Some((id, steps.as_slice()))
            }
            _ => None,
        };
        let ((path, steps), cmp) = match q.node(pred) {
            Node::Call(Func::Boolean, args) => (relative(args[0])?, None),
            Node::Compare(op, a, b) => match relative(*a) {
                Some(path) => (path, Some((*op, *b))),
                None => (relative(*b)?, Some((op.swapped(), *a))),
            },
            _ => return None,
        };
        let constant = |c: ExprId| matches!(q.node(c), Node::Number(_) | Node::Literal(_));
        cmp.is_none_or(|(_, c)| constant(c))
            .then_some(PathPred { path, steps, cmp })
    }

    /// (a)'s operands: numbers, arithmetic and negations of those,
    /// `count(π)` of a [`Run::count_step`], and `position()` / `last()`
    /// (ranked, by `Relev`).
    fn counted(&self, id: ExprId) -> bool {
        match self.query.query().node(id) {
            Node::Number(_) | Node::Call(Func::Position | Func::Last, _) => true,
            Node::Arith(_, a, b) => self.counted(*a) && self.counted(*b),
            Node::Neg(a) => self.counted(*a),
            Node::Call(Func::Count, args) => self.count_step(args[0]).is_some(),
            _ => false,
        }
    }

    /// A counted path the grouped count kernel takes: one predicate-free
    /// `child` / `attribute` step, or `descendant(-or-self)` under a name.
    fn count_step(&self, id: ExprId) -> Option<(ExprId, &'q Step, ResolvedTest)> {
        let Node::Path(PathStart::Context, steps) = self.query.query().node(id) else {
            return None;
        };
        let [step] = steps.as_slice() else {
            return None;
        };
        let test = self.query.step_test(id, 0);
        let ranked = matches!(step.axis, Axis::Descendant | Axis::DescendantOrSelf);
        let counted = matches!(step.axis, Axis::Child | Axis::Attribute)
            || ranked && matches!(test, ResolvedTest::Name(_));
        (counted && step.predicates.is_empty()).then_some((id, step, test))
    }

    /// How `p`'s last `χ⁻¹` lands on a domain of `n` nodes, by the one
    /// length test: a first step whose inverse merges merges, one
    /// predicate-free local step walks from a domain shorter than the seed
    /// (the postings, else `|D|`), and anything else — or a set already
    /// built — is the whole set.
    fn landing(&self, pred: ExprId, p: PathPred<'q>, n: usize) -> Landing {
        let Some(first) = p.steps.first() else {
            return Landing::Whole;
        };
        let local = matches!(first.axis, Axis::Child | Axis::Attribute | Axis::SelfAxis)
            && p.steps.len() == 1
            && first.predicates.is_empty();
        if matches!(self.satisfied[pred.index()], Some(Some(_))) {
            Landing::Whole
        } else if matches!(
            first.axis,
            Axis::FollowingSibling
                | Axis::PrecedingSibling
                | Axis::Descendant
                | Axis::DescendantOrSelf
        ) {
            Landing::Merge
        } else if local && n < self.seed(p).map_or(self.doc.len(), <[NodeId]>::len) {
            Landing::Local
        } else {
            Landing::Whole
        }
    }

    /// The postings of `p`'s last node test, if it is a name.
    fn seed(&self, p: PathPred<'q>) -> Option<&'d [NodeId]> {
        let last = p.steps.len().checked_sub(1)?;
        self.postings(p.steps[last].axis, self.query.step_test(p.path, last))
    }

    /// The members of `dom` — ascending, each once — that `pred`, of shape
    /// `shape`, holds for, by one kernel call per path in it: the count
    /// column (`ranks`, where `dom` is ranked, are its `position()` and
    /// `last()`) or the satisfying set.
    fn answer(
        &mut self,
        pred: ExprId,
        shape: Shape<'q>,
        dom: &[NodeId],
        ranks: Option<&[SiblingRank]>,
    ) -> Result<Vec<NodeId>, EvalError> {
        match shape {
            _ if dom.is_empty() => Ok(Vec::new()),
            Shape::Counts(op, a, b) => {
                let [x, y] = [self.column(a, dom, ranks)?, self.column(b, dom, ranks)?];
                let mut kept = Vec::new();
                x.compare(op, &y, dom.len(), |i, holds| {
                    if holds {
                        kept.push(dom[i]);
                    }
                });
                Ok(kept)
            }
            Shape::Path(p) => self.satisfying(pred, p, dom),
        }
    }

    /// The members of `dom` the path predicate `p` holds for: its witnesses
    /// ([`Run::carry`]) landed on `dom` as [`Run::landing`] chooses.
    fn satisfying(
        &mut self,
        pred: ExprId,
        p: PathPred<'q>,
        dom: &[NodeId],
    ) -> Result<Vec<NodeId>, EvalError> {
        let landing = self.landing(pred, p, dom.len());
        if landing == Landing::Whole {
            let holds = self.whole(pred)?.expect("a path predicate");
            return Ok(dom.iter().copied().filter(|&y| holds.contains(y)).collect());
        }
        let (first, timer, doc) = (&p.steps[0], self.timer(), self.doc);
        if landing == Landing::Local {
            let cmp = p.cmp.map(|(op, c)| (op, self.constant(c)));
            let (mut list, mut read) = (dom.to_vec(), 0);
            let test = self.query.step_test(p.path, 0);
            let work = retain_local(doc, first.axis, test, &mut list, |y| {
                read += 1;
                cmp.as_ref()
                    .is_none_or(|(op, scalar)| node_scalar_compare(doc, *op, y, scalar))
            });
            self.meter.charge(work as u64 + 1)?;
            self.record(p.path, 0, first, AxisRoute::Walk, dom.len(), read, timer);
            return Ok(list);
        }
        // `c[following-sibling::t]` holds iff `c` is a preceding sibling of
        // a witness, `c[.//t]` iff it is an ancestor of one: `χ⁻¹(W) ∩ dom`,
        // one merge of the witnesses against the domain, charged each member
        // of the domain and, for a sibling merge, each witness before it;
        // after it, what the ancestor merge read of its chain and probed.
        let w = match self.witnesses[pred.index()].take() {
            Some(w) => w,
            None => self.carry(p, false)?,
        };
        let opposite = first.axis.inverse().expect("a tree axis");
        let sibling = matches!(opposite, Axis::FollowingSibling | Axis::PrecedingSibling);
        let known = dom.len() + if sibling { w.len() } else { 0 };
        self.meter.charge(known as u64 + 1)?;
        let (any, mut out) = (ResolvedTest::AnyNode, NodeSet::new());
        let (exec, scratch) = (self.exec, &mut *self.scratch);
        let (_, read) = axis_image_among(doc, opposite, &w, any, dom, scratch, &mut out, exec)
            .expect("the inverse axis merges");
        self.meter.charge((read - known) as u64)?;
        let (route, witnesses) = (AxisRoute::Postings, w.len());
        self.record(p.path, 0, first, route, dom.len(), witnesses, timer);
        self.witnesses[pred.index()] = Some(w);
        Ok(out.into_vec())
    }

    /// The set `pred` holds for over the whole document when it is a path
    /// predicate under OPTMINCONTEXT — its witnesses carried through the
    /// first step's `χ⁻¹` by the preimage kernel — built on first request
    /// and kept as the predicate's table; `None` for any other node.
    fn whole(&mut self, pred: ExprId) -> Result<Option<&NodeSet>, EvalError> {
        if self.opt && self.satisfied[pred.index()].is_none() {
            let built = match self.path_pred(pred) {
                Some(p) => {
                    let mut w = NodeSet::from_sorted_vec(self.carry(p, true)?.into_owned());
                    self.meter.charge(1)?;
                    if let Some(first) = p.steps.first() {
                        let targets = std::mem::take(&mut w);
                        self.preimage(first.axis, &targets, &mut w)?;
                    }
                    if let Some(prof) = &mut self.prof {
                        prof.backward_pass();
                    }
                    Some(w)
                }
                None => None,
            };
            self.satisfied[pred.index()] = Some(built);
        }
        let built = &self.satisfied[pred.index()];
        Ok(built.as_ref().and_then(Option::as_ref))
    }

    /// `p`'s witnesses at its first step: the last test's postings — or the
    /// nodes it selects, before any string value is read — compared under
    /// `op c`, then right to left kept where each step's test holds and its
    /// axis reaches, cut to its predicates' sets by [`Run::filter_set`] and
    /// carried through the next step's `χ⁻¹`.  The seed costs `|seed|`
    /// when read, and always on the way to a `whole` landing.
    fn carry(&mut self, p: PathPred<'q>, whole: bool) -> Result<Cow<'d, [NodeId]>, EvalError> {
        let doc = self.doc;
        let postings = self.seed(p);
        let cmp = p.cmp.map(|(op, c)| (op, self.constant(c)));
        let reads = whole || cmp.is_some() || postings.is_none();
        let seed = postings.map_or(doc.len(), <[NodeId]>::len);
        self.meter.charge(if reads { seed as u64 } else { 0 })?;
        // `.` — the path the rewriter leaves of `self::node()` — compares
        // every node.
        let last = p.steps.len().checked_sub(1);
        let last = last.map(|si| (p.steps[si].axis, self.query.step_test(p.path, si)));
        let mut w = match postings {
            Some(hits) => Cow::Borrowed(hits),
            None => {
                let selects =
                    |&y: &NodeId| last.is_none_or(|(axis, test)| test.matches(doc, axis, y));
                Cow::Owned(doc.all_nodes().filter(selects).collect())
            }
        };
        if let Some((op, scalar)) = cmp {
            w = Cow::Owned(self.compared(w.into_owned(), op, &scalar));
        }
        for (si, step) in p.steps.iter().enumerate().rev() {
            if si + 1 < p.steps.len() {
                let (targets, mut pre) = (NodeSet::from_sorted_vec(w.into_owned()), NodeSet::new());
                self.preimage(p.steps[si + 1].axis, &targets, &mut pre)?;
                w = Cow::Owned(pre.into_vec());
            }
            if let Cow::Owned(nodes) = &mut w {
                let (axis, test) = (step.axis, self.query.step_test(p.path, si));
                let any = matches!(
                    axis,
                    Axis::SelfAxis | Axis::Parent | Axis::DescendantOrSelf | Axis::AncestorOrSelf
                );
                let reached = |y| any || doc.kind(y).is_attribute() == (axis == Axis::Attribute);
                nodes.retain(|&y| reached(y) && test.matches(doc, axis, y));
            }
            if step.predicates.is_empty() {
                continue;
            }
            let (timer, reached) = (self.timer(), w.len());
            let mut set = NodeSet::from_sorted_vec(w.into_owned());
            for &q in &step.predicates {
                set = self.filter_set(q, set)?;
            }
            if si > 0 || whole {
                self.record(p.path, si, step, AxisRoute::Walk, reached, set.len(), timer);
            }
            w = Cow::Owned(set.into_vec());
        }
        Ok(w)
    }

    /// (c): a `*` / `node()` step off the ancestor axes (whose walk reads
    /// only the origins' chains) starts from its first predicate's whole
    /// set `B`, which then holds for all of it, when [`axis_image_among`]
    /// finds `B` the smaller side — `B` built only to ask for an existence
    /// test or where it lands whole anyway.
    fn start_from(
        &mut self,
        axis: Axis,
        test: ResolvedTest,
        first: Option<&ExprId>,
        cur: &NodeSet,
        next: &mut NodeSet,
    ) -> Result<Option<Dispatch>, EvalError> {
        let ancestral = matches!(axis, Axis::Ancestor | Axis::AncestorOrSelf);
        let Some(&first) = first.filter(|_| self.opt && !ancestral) else {
            return Ok(None);
        };
        let Some(p) = self.path_pred(first) else {
            return Ok(None);
        };
        let asks = p.cmp.is_none() || self.landing(first, p, 0) == Landing::Whole;
        if !asks || self.postings(axis, test).is_some() {
            return Ok(None);
        }
        self.whole(first)?;
        let Some(Some(b)) = &self.satisfied[first.index()] else {
            unreachable!("built above");
        };
        let (doc, exec, b) = (self.doc, self.exec, b.as_slice());
        let ran = axis_image_among(doc, axis, cur.as_slice(), test, b, self.scratch, next, exec);
        self.meter.charge(ran.map_or(0, |_| b.len() as u64))?;
        Ok(ran.map(|(ran, _)| ran))
    }

    /// A [`Shape::Counts`] operand `id` over `cands` as a [`Column`];
    /// `ranks`, where `cands` is ranked, are its `position()` and `last()`.
    fn column<'r>(
        &mut self,
        id: ExprId,
        cands: &[NodeId],
        ranks: Option<&'r [SiblingRank]>,
    ) -> Result<Column<'r>, EvalError> {
        let ranked = || ranks.expect("a ranked list");
        Ok(match self.query.query().node(id) {
            Node::Number(n) => Column::Constant(*n),
            Node::Arith(op, a, b) => {
                let (a, b) = (
                    self.column(*a, cands, ranks)?,
                    self.column(*b, cands, ranks)?,
                );
                Column::Arith(*op, Box::new([a, b]))
            }
            Node::Neg(a) => Column::Neg(Box::new(self.column(*a, cands, ranks)?)),
            Node::Call(Func::Position, _) => Column::Position(ranked()),
            Node::Call(Func::Last, _) => Column::Last(ranked()),
            Node::Call(_, args) => {
                let (path, step, test) = self.count_step(args[0]).expect("a count");
                let (mut counts, timer) = (Vec::with_capacity(cands.len()), self.timer());
                let (route, work) = axis_counts(self.doc, step.axis, test, cands, &mut counts);
                self.meter.charge(work as u64 + 1)?;
                let total = counts.iter().map(|&k| k as usize).sum();
                self.record(path, 0, step, route, cands.len(), total, timer);
                Column::Counts(counts)
            }
            _ => unreachable!("not a column operand"),
        })
    }

    /// Reports step `index` of `path`, computed by one kernel call of the
    /// algebra for `input` nodes at once and reaching `output`, to EXPLAIN.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        path: ExprId,
        index: usize,
        step: &Step,
        route: AxisRoute,
        input: usize,
        output: usize,
        since: Option<Instant>,
    ) {
        if let (Some(p), Some(since)) = (&mut self.prof, since) {
            let (mode, origins, time, chunks) =
                (Some(PredMode::Algebra), input, since.elapsed(), 0);
            let obs = StepObservation {
                route,
                mode,
                input,
                origins,
                output,
                time,
                chunks,
            };
            p.record_step(path, index, step, obs);
        }
    }

    /// The members `y` of `witnesses` with `strval(y) op scalar`, in order.
    fn compared(&self, mut witnesses: Vec<NodeId>, op: CmpOp, scalar: &Value) -> Vec<NodeId> {
        // Branch-free compaction: the outcome is a coin flip per node.
        let mut kept = 0;
        for i in 0..witnesses.len() {
            let y = witnesses[i];
            witnesses[kept] = y;
            kept += usize::from(node_scalar_compare(self.doc, op, y, scalar));
        }
        witnesses.truncate(kept);
        witnesses
    }

    /// A constant scalar operand of a [`PathPred`] comparison.
    fn constant(&self, id: ExprId) -> Value {
        match self.query.query().node(id) {
            Node::Number(n) => Value::Number(*n),
            Node::Literal(s) => Value::String(s.to_string()),
            _ => unreachable!("a constant by shape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use minctx_syntax::parse_xpath;
    use minctx_xml::parse;

    fn eval_one(doc: &minctx_xml::Document, query: &str, optimized: bool) -> Value {
        let q = parse_xpath(query).unwrap();
        let cq = CompiledQuery::new(doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        let ctx = Context::document(doc);
        evaluate(doc, &cq, ctx, optimized, 1, &mut scratch, &mut meter).unwrap()
    }

    fn eval_both(xml: &str, query: &str) -> (Value, Value) {
        let doc = parse(xml).unwrap();
        (eval_one(&doc, query, false), eval_one(&doc, query, true))
    }

    #[test]
    fn backward_propagation_agrees_with_forward() {
        let xml = "<a><b><c>100</c></b><b><c>7</c></b><b/></a>";
        for q in [
            "/a/b[c = 100]",
            "/a/b[c]",
            "/a/b[not(c)]",
            "/a/b[descendant::c = 7]",
            "/a/b[c != 100]",
            "/a/b[100 = c]",
            "/a/b[c = 'x']",
            "//*[self::c = 7]",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
    }

    #[test]
    fn backward_propagation_handles_attribute_nodes() {
        // node() matches attribute nodes, but tree axes never produce
        // them; and attribute *origins* of reverse / or-self axes are
        // invisible to mirror-axis preimages (those fall back to forward
        // evaluation).  Both directions once leaked here.
        let xml = r#"<r><a y="x"/><b>x</b></r>"#;
        for q in [
            "//*[node() = 'x']",
            "//*[node()]",
            "//@*[following::b = 'x']",
            "//@*[ancestor::r]",
            "//@*[self::node() = 'x']",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
        // And pin the absolute answers so both being wrong can't pass.
        let doc = parse(xml).unwrap();
        let v = eval_one(&doc, "count(//*[node() = 'x'])", true);
        assert_eq!(v, Value::Number(2.0)); // <r> and <b>, not <a>
        let v = eval_one(&doc, "count(//@*[ancestor::r])", true);
        assert_eq!(v, Value::Number(1.0)); // the y attribute
    }

    #[test]
    fn backward_propagation_covers_reverse_and_or_self_axes() {
        // These axes were excluded from backward propagation while the
        // preimage kernels were attribute-inexact; they now take the
        // backward path and must agree with forward evaluation.
        let xml = r#"<r><a y="x"><b>x</b></a><c>zz<d q="7"/></c></r>"#;
        for q in [
            "//*[parent::a]",
            "//*[ancestor::a = 'x']",
            "//*[ancestor-or-self::c = 'zz']",
            "//*[descendant-or-self::b = 'x']",
            "//@*[descendant-or-self::node() = 'x']",
            "//*[preceding::b = 'x']",
            "//@*[preceding::b]",
            "//*[following::d]",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
    }

    #[test]
    fn backward_propagation_through_id_axis() {
        let xml = r#"<a id="r"><b id="x">y</b><c id="y">100</c></a>"#;
        // b's id-step dereferences to c, whose value is 100.
        let (plain, opt) = eval_both(xml, "//*[id(string(.)) = 100]");
        assert_eq!(plain, opt);
        if let Value::NodeSet(ns) = &plain {
            assert_eq!(ns.len(), 1);
        } else {
            panic!("expected node-set");
        }
    }

    #[test]
    fn memo_shares_position_only_predicates_across_nodes() {
        // `position() = 2` has Relev = {position}: its memo entries are
        // keyed by k alone, shared across every context node and size.
        let doc = parse("<a><b><x/><x/><x/></b><c><x/><x/><x/></c></a>").unwrap();
        let q = parse_xpath("/a/*/x[position() = 2]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        let mut run = Run::new(&doc, &cq, false, 1, &mut scratch, &mut meter, None);
        let v = run.eval(q.root(), Context::document(&doc)).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 2);
        // Find the comparison predicate node and check its memo size: three
        // positions arise (k = 1, 2, 3), from six candidate evaluations.
        let pred_memo: Vec<usize> = q
            .iter()
            .filter(|(id, n)| matches!(n, Node::Compare(..)) && !q.relev(*id).node())
            .map(|(id, _)| run.memo[id.index()].entries())
            .collect();
        assert_eq!(pred_memo, vec![3]);
    }

    #[test]
    fn nested_predicates_over_overlapping_axes_compute_each_pair_once() {
        // The twin of the test above for `Relev = {node}`: the inner path
        // `ancestor::a[count(c) > 1]` runs once per <c>, and every run
        // reaches the same three <a> ancestors.  The predicate's dense
        // table answers the repeats, so `child::c` under it is walked once
        // per distinct <a> — not once per (origin, ancestor) pair.  Under
        // OPTMINCONTEXT the walk is one count column over the <a>s inside
        // the outer predicate's satisfying set, computed once for all <c>s.
        let doc = parse("<a><a><a><c/><c/><c/><c/></a></a></a>").unwrap();
        // The second query filters through the set algebra: `not`'s own
        // table must shield its (table-less) operand the same way.
        for q in [
            "//c[ancestor::a[count(c) > 1]]",
            "//c[ancestor::a[not(count(c) > 1)]]",
        ] {
            for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
                // Optimizer pinned on: fused, the outer `//c` is not a second
                // `child::c` row.
                let engine = crate::Engine::new(strategy).with_optimizer(true);
                let p = engine.explain(&doc, q).unwrap();
                assert_eq!(p.result, "node-set n=4", "{strategy} {q}");
                let inner = p.steps.iter().find(|s| s.display == "child::c").unwrap();
                let anc = p.steps.iter().find(|s| s.display == "ancestor::a").unwrap();
                if strategy == Strategy::MinContext {
                    assert_eq!(inner.invocations, 3, "{strategy}:\n{}", p.plan_text());
                    assert_eq!(anc.invocations, 4, "{strategy} {q}");
                } else {
                    let algebra = p.steps.iter().filter(|s| s.mode == Some(PredMode::Algebra));
                    let computed: u64 =
                        algebra.filter(|s| s.predicates == 0).map(|s| s.input).sum();
                    assert_eq!(computed, 3, "{strategy}:\n{}", p.plan_text());
                    assert_eq!((anc.invocations, anc.input), (1, 3), "{}", p.plan_text());
                }
            }
        }
    }

    #[test]
    fn columns_agree_with_naive_on_the_shapes_that_break_them() {
        // <item>s nested ten deep, then eight shallow ones under <x>s; `v`
        // values that are no number (`''`, `'NaN'`, `'1e3'`) or only one
        // after trimming (`' 7 '`), and a negative zero.  `v` and `id` are
        // on more nodes than there are <item>s (read on the candidates'
        // side), `w` on fewer (the set is built whole).
        let vals = ["", " 7 ", "NaN", "1e3", "-0", "7", "1000", "-1"];
        let mut xml = String::from("<r>");
        for d in 0..10 {
            let id = if d % 3 == 0 {
                format!(" id=\"i{d}\"")
            } else {
                String::new()
            };
            xml.push_str(&format!(
                "<item v=\"{}\"{id}><k>{}</k>",
                vals[d % 8],
                vals[(d + 3) % 8]
            ));
        }
        xml.push_str(&"</item>".repeat(10));
        for (i, v) in vals.iter().enumerate() {
            xml.push_str(&format!(
                "<x v=\"{v}\" id=\"x{i}\"><item v=\"{v}\" w=\"{v}\" id=\"y{i}\">{v}</item></x>"
            ));
        }
        xml.push_str("</r>");
        let doc = parse(&xml).unwrap();
        let (opt, naive) = (
            crate::Engine::new(Strategy::OptMinContext),
            crate::Engine::new(Strategy::Naive),
        );
        let mut queries = vec![
            "//item/*[@id]".to_string(),
            "//item//*[@id]".to_string(),
            "//item/descendant-or-self::*[@id]".to_string(),
            "//x/@*[parent::x]".to_string(),
            "//*[count(.//item) > count(k)]".to_string(),
            "//item[count(descendant-or-self::item) - count(@*) >= 2]".to_string(),
        ];
        for pred in [
            "@id",
            "not(@w)",
            "k",
            "text()",
            "self::item",
            "@*",
            "*[@id]",
        ] {
            queries.push(format!("//item[{pred}]"));
            queries.push(format!("//*[{pred}]"));
        }
        for op in ["=", "!=", "<", "<=", ">", ">="] {
            for c in ["7", "'7'", "0", "-0", "1000", "''", "'NaN'"] {
                for path in ["@v", "@w", "k", ".", "self::item"] {
                    queries.push(format!("//item[{path} {op} {c}]"));
                    queries.push(format!("//item[{c} {op} {path}]"));
                }
                queries.push(format!("//x[item {op} {c}]"));
                queries.push(format!("//*[count(item) {op} {c}]"));
                queries.push(format!("//*[count(@*) + 1 {op} {c}]"));
            }
        }
        for q in &queries {
            assert_eq!(
                opt.evaluate_str(&doc, q),
                naive.evaluate_str(&doc, q),
                "{q}"
            );
        }
        // Both landings of a comparison and of an existence test ran — a
        // walk from the candidates, the set built whole — and (c) from
        // nested origins, an existence set still built whole for it.
        for (q, passes) in [
            ("//item[@v > 0]", 0),
            ("//item[@w > 0]", 1),
            ("//item[@id]", 0),
            ("//item[@w]", 1),
            ("//item/*[@id]", 1),
            ("//item//*[@id]", 1),
            ("//*[@id]", 1),
        ] {
            let p = opt.explain(&doc, q).unwrap();
            let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
            assert_eq!(
                (step.mode, p.backward_passes),
                (Some(PredMode::Algebra), passes),
                "{}",
                p.plan_text()
            );
        }
    }

    /// A seeded tree of <item>, <k> and <x> with text, attributes and
    /// same-name nesting; `v` values that are no number or only one after
    /// trimming.
    fn witness_doc() -> minctx_xml::Document {
        let vals = ["", " 7 ", "NaN", "7", "-0", "1000"];
        let mut rng = 0x51b1_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize
        };
        let mut xml = String::from("<r>");
        let mut open = Vec::new();
        for _ in 0..600 {
            match next() % 6 {
                0 | 1 if open.len() < 6 => {
                    let name = ["item", "k", "x"][next() % 3];
                    xml.push_str(&format!("<{name} v=\"{}\">", vals[next() % 6]));
                    open.push(name);
                }
                2 if !open.is_empty() => xml.push_str(&format!("</{}>", open.pop().unwrap())),
                3 => xml.push_str(vals[next() % 6]),
                _ => xml.push_str(&format!("<{}/>", ["item", "k", "x"][next() % 3])),
            }
        }
        while let Some(name) = open.pop() {
            xml.push_str(&format!("</{name}>"));
        }
        xml.push_str("</r>");
        parse(&xml).unwrap()
    }

    /// Every existence predicate `axis::t`, alone, under `not` and compared
    /// with a constant, over candidates of every kind — elements,
    /// attributes, text, the root — and in front of and behind a positional
    /// predicate: OPTMINCONTEXT agrees with `Naive`.  The queries in
    /// `columns` are answered by one merge, whatever the candidate count,
    /// and build no set for the whole document.
    fn witness_columns_agree(doc: &minctx_xml::Document, axes: &[&str], columns: &[&str]) {
        let (opt, naive) = (
            crate::Engine::new(Strategy::OptMinContext),
            crate::Engine::new(Strategy::Naive),
        );
        let mut preds = Vec::new();
        for axis in axes {
            for t in ["item", "k", "nosuch", "*"] {
                preds.push(format!("{axis}{t}"));
                preds.push(format!("not({axis}{t})"));
                for (op, c) in [("=", "7"), ("!=", "''"), ("<", "1000"), (">=", "'NaN'")] {
                    preds.push(format!("{axis}{t} {op} {c}"));
                }
            }
        }
        for pred in &preds {
            for q in [
                format!("//item[{pred}]"),
                format!("//*[{pred}]"),
                format!("//node()[{pred}]"),
                format!("//@v[{pred}]"),
                format!("/self::node()[{pred}]"),
                format!("//k[{pred}][2]"),
                format!("//item[1][{pred}]"),
            ] {
                assert_eq!(
                    opt.evaluate_str(doc, &q),
                    naive.evaluate_str(doc, &q),
                    "{q}"
                );
            }
        }
        // `.//t` is one `descendant::t` step once the rewriter fuses it.
        let fused = crate::Engine::new(Strategy::OptMinContext).with_optimizer(true);
        for q in columns {
            let n = fused.evaluate_str(doc, &format!("count({q})"));
            assert!(matches!(n, Ok(Value::Number(n)) if n > 0.0), "{q}: {n:?}");
            let p = fused.explain(doc, q).unwrap();
            let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
            assert_eq!(
                (step.mode, p.backward_passes),
                (Some(PredMode::Algebra), 0),
                "{}",
                p.plan_text()
            );
        }
    }

    #[test]
    fn sibling_columns_agree_with_naive() {
        witness_columns_agree(
            &witness_doc(),
            &["following-sibling::", "preceding-sibling::"],
            &[
                "//item[following-sibling::item]",
                "//item[not(preceding-sibling::k)]",
                "//k[following-sibling::item = 7]",
                "//k[preceding-sibling::item != 7]",
            ],
        );
    }

    #[test]
    fn descendant_columns_agree_with_naive() {
        // `c[.//t]` is `c ∈ ancestor(T)`: the ancestor merge over the
        // candidates, same-name nesting included (an <item> inside an
        // <item> is both a candidate and a witness).
        witness_columns_agree(
            &witness_doc(),
            &[".//", "descendant::", "descendant-or-self::"],
            &[
                "//item[.//k]",
                "//item[descendant::item]",
                "//item[not(.//item)]",
                "//item[descendant-or-self::k != 7]",
                "//x[.//item != 7]",
            ],
        );
    }

    #[test]
    fn nested_predicates_agree_with_naive() {
        // Predicates inside predicates, on every landing and at every step
        // of the inner path — the first, the last and one between — under
        // `not`, `or` and a positional neighbour, with the optimizer off
        // and on: OPTMINCONTEXT agrees with `Naive`.
        let doc = witness_doc();
        let naive = crate::Engine::new(Strategy::Naive);
        let preds = [
            "ancestor::*[k]",
            "ancestor::item[@v = 7]",
            "k[item] = 7",
            "k[item[k]]",
            "following-sibling::*[@v]",
            "preceding-sibling::item[k] != 7",
            ".//k[not(item)]",
            "descendant::x[.//k = 7]",
            "descendant-or-self::*[@v][k]",
            "x[@v = 7]/item",
            "*[k = 7]/*[item]/k",
            "parent::*[following-sibling::k]",
            "following::k[@v > 0]",
            "preceding::*[item][x]",
            "self::item[k]",
            "@v[. = 7]",
            "item[not(.//x)] = 7",
        ];
        for optimizer in [false, true] {
            let opt = crate::Engine::new(Strategy::OptMinContext).with_optimizer(optimizer);
            for pred in preds {
                for q in [
                    format!("//item[{pred}]"),
                    format!("//*[{pred}]"),
                    format!("//node()[{pred}]"),
                    format!("//@v[{pred}]"),
                    format!("//*[not({pred})]"),
                    format!("//k[{pred} or @v = 7]"),
                    format!("//k[{pred}][2]"),
                    format!("//item[1][{pred}]"),
                    format!("//x[count(*[{pred}]) > 1]"),
                ] {
                    let want = naive.evaluate_str(&doc, &q);
                    assert_eq!(opt.evaluate_str(&doc, &q), want, "{q}");
                }
                // The whole predicate is answered by the algebra: no
                // candidate is visited, and each inner step is one call.
                let p = opt.explain(&doc, &format!("//item[{pred}]")).unwrap();
                let step = p.steps.iter().find(|s| s.display == "descendant::item");
                let step = step.or(p.steps.iter().find(|s| s.display == "child::item"));
                assert_eq!(step.unwrap().mode, Some(PredMode::Algebra), "{pred}");
                let inner = p.steps.iter().filter(|s| s.path != p.steps[0].path);
                assert!(
                    inner.clone().all(|s| s.invocations == 1),
                    "{}",
                    p.plan_text()
                );
            }
        }
    }

    #[test]
    fn typed_columns_agree_with_naive() {
        // Sibling groups of 1, 3 and 5 <b>s holding 0–3 <c>s, and one
        // empty <a>.  The values a column of integers would get wrong:
        // constants between two ranks or counts, infinities (`div 0`),
        // NaN (`mod 0`, `0 div 0`, `number('x')`, folded to a constant
        // only with the optimizer on) and `last()` beside `position()`.
        let doc = parse(concat!(
            "<r><a><b/><b><c/></b><b/></a><a><b><c/><c/></b></a><a/>",
            "<a><b/><b><c/><c/><c/></b><b/><b><c/></b><b/></a></r>"
        ))
        .unwrap();
        let naive = crate::Engine::new(Strategy::Naive);
        let preds = [
            "position() = 1.5",
            "position() < 1.5",
            "position() >= 2.5",
            "last() = 2.5",
            "last() > 2.5",
            "position() = last()",
            "position() != last()",
            "last() - position() = 1",
            "position() mod 2 = 1",
            "last() div 0 > position()",
            "last() div 0 = position() div 0",
            "(position() - 2) div 0 < 0",
            "position() mod 0 >= 0",
            "position() mod 0 != 1",
            "-position() < -2",
            "0 - position() < -2",
            "-(last() - position()) = -1",
            "1 div -(position() - 1) < 0",
            "-count(c) <= -2",
            "count(c) = last()",
            "count(c) = position()",
            "count(c) >= last() div 2",
            "count(c) = 1.5",
            "count(c) > 1.5",
            "count(c) < 0 div 0",
            "position() > 0 div 0",
            "position() = number('x')",
            "position() != number('x')",
        ];
        for optimizer in [false, true] {
            let opt = crate::Engine::new(Strategy::OptMinContext).with_optimizer(optimizer);
            for pred in preds {
                for q in [format!("//b[{pred}]"), format!("/r/a[{pred}]")] {
                    assert_eq!(
                        opt.evaluate_str(&doc, &q),
                        naive.evaluate_str(&doc, &q),
                        "{q}"
                    );
                }
                // Every operand but a `number()` call left unfolded is a
                // column, over the ranked list where the predicate reads a
                // rank: no candidate is visited.
                let want = if !optimizer && pred.contains("number(") {
                    PredMode::SiblingRank
                } else if pred.contains("position()") || pred.contains("last()") {
                    PredMode::RankColumn
                } else {
                    PredMode::Algebra
                };
                let p = opt.explain(&doc, &format!("//b[{pred}]")).unwrap();
                let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
                assert_eq!(step.mode, Some(want), "{pred}: {}", p.plan_text());
            }
        }
    }

    #[test]
    fn a_ranked_pass_out_of_fuel_hands_its_rank_buffer_back() {
        // Plain MINCONTEXT evaluates `[position() = last()]` candidate by
        // candidate, so the run's last unit of fuel is spent inside the
        // filtering pass, while the rank buffer is lent out of `Scratch`.
        let doc = parse(&format!("<r>{}</r>", "<b/>".repeat(50))).unwrap();
        let q = parse_xpath("/r/b[position() = last()]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let run = |scratch: &mut Scratch, budget: crate::Budget| {
            let mut meter = budget.meter();
            let ctx = Context::document(&doc);
            let v = evaluate(&doc, &cq, ctx, false, 1, scratch, &mut meter);
            (v.is_ok(), meter.spent())
        };
        let (ok, spent) = run(&mut Scratch::new(), crate::Budget::UNLIMITED);
        let mut scratch = Scratch::new();
        assert_eq!(
            (ok, run(&mut scratch, crate::Budget::fuel(spent - 1)).0),
            (true, false)
        );
        assert!(sibling_ranks(&doc, &[], &mut scratch).capacity() >= 50);
    }

    /// 45 elements, only two of which have <b> children.
    fn sparse_b_doc() -> minctx_xml::Document {
        let mut xml = String::from("<r>");
        for _ in 0..18 {
            xml.push_str("<x><y/></x>");
        }
        xml.push_str("<x><b/><b k=\"1\"/><y/><b/></x><x><y/><b/></x></r>");
        parse(&xml).unwrap()
    }

    #[test]
    fn origin_pruning_skips_origins_without_a_candidate() {
        // Where a candidate can have several origins the positional step
        // keeps per-origin evaluation, but expands only the origins the
        // postings of <b> can be reached from.
        let doc = sparse_b_doc();
        let engine = crate::Engine::new(Strategy::OptMinContext).with_optimizer(true);
        for (q, step, origins, want) in [
            ("//*/following-sibling::b[1]", "following-sibling::b", 4, 3),
            ("//*/descendant::b[2]", "descendant::b", 3, 1),
            ("//*/descendant::b[@k][last()]", "descendant::b", 3, 1),
        ] {
            let p = engine.explain(&doc, q).unwrap();
            assert_eq!(p.result, format!("node-set n={want}"), "{q}");
            let step = p.steps.iter().find(|s| s.display == step).unwrap();
            assert_eq!(step.mode, Some(PredMode::PerOrigin), "{q}");
            assert_eq!((step.input, step.origins), (45, origins), "{q}");
            let pruned = format!("origins=45→{origins}");
            assert!(p.plan_text().contains(&pruned), "{}", p.plan_text());
            // Same answer as the unpruned reference semantics.
            let naive = crate::Engine::new(Strategy::Naive).evaluate_str(&doc, q);
            assert_eq!(engine.evaluate_str(&doc, q), naive, "{q}");
        }
        // Postings no shorter than the origin set: nothing to prune.
        let p = engine
            .explain(&doc, "/r/x/following-sibling::x[1]")
            .unwrap();
        let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
        assert_eq!((step.input, step.origins), (20, 20));
        assert!(!p.plan_text().contains("origins="), "{}", p.plan_text());
    }

    #[test]
    fn child_and_attribute_positions_are_ranked_without_an_origin_loop() {
        let doc = sparse_b_doc();
        let naive = crate::Engine::new(Strategy::Naive);
        for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
            let engine = crate::Engine::new(strategy).with_optimizer(true);
            // OPTMINCONTEXT answers every one of these predicates for the
            // ranked list; MINCONTEXT evaluates each candidate, as the paper
            // does.
            let (mode, name) = match strategy {
                Strategy::OptMinContext => (PredMode::RankColumn, "rank-column"),
                _ => (PredMode::SiblingRank, "sibling-rank"),
            };
            // (query, ranked step, candidates ranked, result)
            for (q, step, ranked, want) in [
                ("//*/b[last()]", "child::b", 4, 2),
                ("//*/b[2]", "child::b", 4, 1),
                ("//*/b[@k][1]", "child::b", 1, 1),
                ("//*/b[2][1]", "child::b", 4, 1),
                ("//*/b[1][@k]", "child::b", 4, 0),
                ("//b/@*[last()]", "attribute::*", 1, 1),
                ("/r/x/y[1]", "child::y", 20, 20),
            ] {
                let p = engine.explain(&doc, q).unwrap();
                assert_eq!(p.result, format!("node-set n={want}"), "{q}");
                let step = p.steps.iter().find(|s| s.display == step).unwrap();
                assert_eq!(step.mode, Some(mode), "{strategy} {q}");
                assert_eq!((step.input, step.origins), (ranked, ranked), "{q}");
                assert!(!p.plan_text().contains("origins="), "{}", p.plan_text());
                assert_eq!(engine.evaluate_str(&doc, q), naive.evaluate_str(&doc, q));
            }
            // A literal operand is read per candidate: `sibling-rank` on both.
            let q = "//*/b[position() = '2']";
            let p = engine.explain(&doc, q).unwrap();
            let step = p.steps.iter().find(|s| s.display == "child::b").unwrap();
            assert_eq!(step.mode, Some(PredMode::SiblingRank), "{strategy} {q}");
            assert_eq!(engine.evaluate_str(&doc, q), naive.evaluate_str(&doc, q));
            // `//b[k]` cannot be fused (`descendant::b[k]` is another
            // query), but its `descendant-or-self::node()` is never built:
            // the ranked step sweeps `descendant::b` from the root itself.
            for optimizer in [true, false] {
                let engine = crate::Engine::new(strategy).with_optimizer(optimizer);
                let p = engine.explain(&doc, "//b[2]").unwrap();
                assert_eq!(p.ir_after, p.ir_before, "not a rewrite");
                assert!(p.steps[0].elided && !p.steps[1].elided);
                assert_eq!((p.steps[1].input, p.steps[1].output), (4, 1));
                assert_eq!(p.steps[1].route, minctx_xml::AxisRoute::Postings);
                let text = p.plan_text();
                assert!(
                    text.contains("descendant-or-self::node() elided calls=1\n")
                        && text.contains(&format!("child::b preds=1 mode={name} route=postings")),
                    "{text}"
                );
                assert_eq!(
                    engine.evaluate_str(&doc, "//b[2]"),
                    naive.evaluate_str(&doc, "//b[2]")
                );
            }
        }
    }
}
