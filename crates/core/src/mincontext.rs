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
//! OPTMINCONTEXT's backward sets.
//!
//! Predicates are set-at-a-time too.  A step whose predicates all ignore
//! `position()` and `last()` sweeps its axis once for the whole context
//! set and filters the resulting candidate *set* (`and` in sequence, `or`
//! as a union, `not` as a difference, anything else node by node); a step
//! with a positional predicate ranks `child` / `attribute` candidates
//! among their siblings and lists them per origin on the other axes — only
//! for origins the node test's postings say have a candidate at all — and
//! still answers its leading position-free predicates once, as a set.
//! Under OPTMINCONTEXT a candidate list is also a *column*: a comparison
//! of `count(π)`s — and, on a ranked list, of `position()` / `last()` —
//! and `boolean(π)` / `π RelOp c` over one local step are answered for the
//! whole list by one kernel call per path, and a `*` / `node()` step starts
//! from its first predicate's backward set when that is the smaller side
//! (DESIGN.md "Set-at-a-time predicates").
//!
//! **OPTMINCONTEXT** (Section 4, plus the backward-propagation rule of the
//! VLDB'02 predecessor's Section 6).  On top of MINCONTEXT, predicates of
//! the shapes
//!
//! ```text
//! boolean(π)        π RelOp c        c RelOp π
//! ```
//!
//! where `π` is a predicate-free relative path and `c` a constant scalar,
//! are answered from a single *backward pass*: the node-level comparison
//! set `T = {y | strval(y) op c}` — seeded from the postings of `π`'s last
//! node test, so only nodes that test can select are ever compared — is
//! propagated through the inverse axes `χ⁻¹` (one [`axis_preimage`] call
//! per step — `O(|D|)` at worst, in practice a walk from the targets that
//! costs, and is charged, what it touches — including the id-"axis" of
//! Section 4), yielding the set of context nodes for which the predicate
//! holds.  That set *is* the predicate's table: a candidate set is
//! intersected with it in one linear merge, and a lone candidate is one
//! binary search — no forward walk, no memo entry.
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
use minctx_syntax::{CmpOp, ExprId, Func, Node, PathStart, Relev, Step};
use minctx_xml::axes::{
    axis_counts, axis_image_among, axis_image_on, axis_preimage_on, retain_local, Axis, AxisRoute,
    Dispatch, ResolvedTest,
};
use minctx_xml::{sibling_ranks, Document, Exec, NodeId, NodeSet, Scratch, SiblingRank};
use std::time::Instant;

/// The MINCONTEXT evaluator; with `optimized` set, OPTMINCONTEXT.
#[derive(Debug, Clone, Default)]
pub struct MinContext {
    /// Enables the Section-4 backward-propagation optimizations.
    pub optimized: bool,
    /// The engine's worker count
    /// ([`Engine::with_threads`](crate::Engine::with_threads)).  Above 1,
    /// the axis kernels cut their large scans into ranges on that many
    /// scoped threads — same kernel bodies, same results, same fuel;
    /// nothing else about the evaluation changes.  0 or 1 runs every scan
    /// as one range on the calling thread.
    pub threads: usize,
}

impl MinContext {
    /// Evaluates a compiled query at a context, charging work to `meter`;
    /// `scratch` is the axis kernels' working memory.
    pub fn evaluate(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
    ) -> Result<Value, EvalError> {
        Run::new(doc, query, self, scratch, meter, None).eval(query.query().root(), ctx)
    }

    /// [`MinContext::evaluate`] with a [`ProfileCollector`] attached: the
    /// instrumented entry point behind [`Engine::explain`]. Identical
    /// semantics and fuel accounting; the profiled run additionally reads
    /// the clock once per path step.
    ///
    /// [`Engine::explain`]: crate::Engine::explain
    pub(crate) fn evaluate_profiled(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
        prof: &mut ProfileCollector,
    ) -> Result<Value, EvalError> {
        Run::new(doc, query, self, scratch, meter, Some(prof)).eval(query.query().root(), ctx)
    }
}

struct Run<'d, 'q, 's, 'm, 'p> {
    doc: &'d Document,
    query: &'q CompiledQuery,
    opt: bool,
    /// Per expression node: its memo table (see [`crate::memo`] for which
    /// nodes have one).
    memo: Vec<Table>,
    /// OPTMINCONTEXT: per predicate node, the set of context nodes for
    /// which the predicate holds (computed by one backward pass) — the
    /// predicate's whole table, consulted before `memo` and never copied
    /// into it.  `None` until first asked, `Some(None)` once the node turned
    /// out not to have a backward-propagatable shape.
    backward: Vec<Option<Option<NodeSet>>>,
    /// Reusable axis-kernel working memory (engine-owned).
    scratch: &'s mut Scratch,
    /// Fuel/deadline accounting: charged per compute, per axis kernel call
    /// (proportional to the context set and to its output), per candidate
    /// filtered, and per backward or pruning preimage (likewise, or |D|
    /// where the preimage scans the arena).
    meter: &'m mut BudgetMeter,
    /// EXPLAIN instrumentation; `None` (the common case) costs one branch
    /// per hook and never reads the clock.
    prof: Option<&'p mut ProfileCollector>,
    /// How the axis kernels run their scans: cut on the evaluator's
    /// threads when it has more than one, inline otherwise.
    exec: Exec<'q>,
    /// How many set filters or ranking passes evaluated a predicate node by
    /// node; a step that leaves it unchanged ran on backward sets or columns
    /// alone (EXPLAIN's `mode=backward` / `rank-column`, not `set` / `sibling-rank`).
    per_node: u64,
    /// How many column kernels answered a predicate for a candidate list
    /// (EXPLAIN's `mode=column`).
    columns: u64,
}

/// A predicate OPTMINCONTEXT answers for a whole candidate list, one
/// kernel call per path in it: (a) `a op b` over counts, numbers and
/// arithmetic, (b) `boolean(π)` or `π op c` read on the candidates' side
/// (DESIGN.md "Set-at-a-time predicates").
enum Column<'q> {
    Counts(CmpOp, ExprId, ExprId),
    Compare(ExprId, &'q Step, Option<(CmpOp, ExprId)>),
}

impl<'d, 'q, 's, 'm, 'p> Run<'d, 'q, 's, 'm, 'p> {
    fn new(
        doc: &'d Document,
        query: &'q CompiledQuery,
        config: &'q MinContext,
        scratch: &'s mut Scratch,
        meter: &'m mut BudgetMeter,
        prof: Option<&'p mut ProfileCollector>,
    ) -> Self {
        Run {
            doc,
            query,
            opt: config.optimized,
            memo: tables_for(query.query()),
            backward: vec![None; query.query().len()],
            scratch,
            meter,
            prof,
            exec: Exec::on(config.threads),
            per_node: 0,
            columns: 0,
        }
    }

    fn eval(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        if let Some(set) = self.backward_set(id)? {
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
                let seeded = self.selective_end(axis, test, lead, &cur, &mut next)?;
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
                let (visited, columns) = (self.per_node, self.columns);
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
                } else if seeded.is_some() {
                    Some(PredMode::SelectiveEnd)
                } else if self.per_node > visited {
                    Some(PredMode::Set)
                } else if self.columns > columns {
                    Some(PredMode::Column)
                } else {
                    Some(PredMode::Backward)
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
    /// for: a column shape is answered for the whole list by one kernel
    /// call per path in it; a backward-propagatable shape intersects with
    /// its backward set; `and` filters in sequence, `or` unions (the right
    /// operand sees only what the left rejected), `not` takes the
    /// difference — each consulting and extending the predicate's own
    /// table, which stands in for the per-node computes that would have
    /// shielded the operands; any other shape is evaluated node by node
    /// through [`Run::eval`].
    fn filter_set(&mut self, pred: ExprId, cands: NodeSet) -> Result<NodeSet, EvalError> {
        if cands.is_empty() {
            return Ok(cands);
        }
        let q = self.query.query();
        if q.relev(pred) != Relev::NODE {
            // A context-free predicate is one table entry, not a set.
            return self.filter_nodes(pred, cands);
        }
        let charge = cands.len() as u64 + 1;
        let column = self.column(pred, cands.len());
        if column.is_none() {
            if let Some(holds) = self.backward_set(pred)? {
                let kept = cands.intersect(holds);
                self.meter.charge(charge)?;
                return Ok(kept);
            }
            if !matches!(
                q.node(pred),
                Node::And(..) | Node::Or(..) | Node::Call(Func::Not, _)
            ) {
                return self.filter_nodes(pred, cands);
            }
        }
        self.meter.charge(charge)?;
        let (known, todo) = self.memo[pred.index()].split(cands);
        let holds = match (column, q.node(pred)) {
            (Some(column), _) => {
                NodeSet::from_sorted_vec(self.column_holds(column, todo.as_slice(), None)?)
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
            _ => unreachable!("a column or the set algebra"),
        };
        self.memo[pred.index()].record(self.doc.len(), &todo, &holds);
        Ok(known.union(&holds))
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
    /// before among their siblings ([`sibling_ranks`]): a column shape under
    /// OPTMINCONTEXT reads `position()` / `last()` off the ranks, anything
    /// else evaluates each candidate through the `{position, size}` tables.
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
        if let Some(column) = self.column(pred, list.len()) {
            *list = self.column_holds(column, list, Some(ranks))?;
            return Ok(());
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

    // ---- OPTMINCONTEXT: columns ---------------------------------------

    /// The column `pred` is answered by for `n` candidates: (a) by shape;
    /// (b) — `boolean(π)` or `π op c` with `π` one `child` / `attribute` /
    /// `self` step — while no backward set is built and `n` is below the
    /// seed `build_backward` would compare.
    fn column(&self, pred: ExprId, n: usize) -> Option<Column<'q>> {
        if !self.opt || matches!(self.backward[pred.index()], Some(Some(_))) {
            return None;
        }
        if let Node::Compare(op, a, b) = self.query.query().node(pred) {
            if self.counted(*a) && self.counted(*b) {
                return Some(Column::Counts(*op, *a, *b));
            }
        }
        let (path, [step], cmp) = self.backward_shape(pred)? else {
            return None;
        };
        let local = matches!(step.axis, Axis::Child | Axis::Attribute | Axis::SelfAxis);
        let seed = self.postings(step.axis, self.query.step_test(path, 0));
        let seed = seed.map_or(self.doc.len(), <[NodeId]>::len);
        (local && n < seed).then_some(Column::Compare(path, step, cmp))
    }

    /// (a)'s operands: numbers, arithmetic of those, `count(π)` of a
    /// [`Run::count_step`], and `position()` / `last()` (ranked, by `Relev`).
    fn counted(&self, id: ExprId) -> bool {
        match self.query.query().node(id) {
            Node::Number(_) | Node::Call(Func::Position | Func::Last, _) => true,
            Node::Arith(_, a, b) => self.counted(*a) && self.counted(*b),
            Node::Call(Func::Count, args) => self.count_step(args[0]).is_some(),
            _ => false,
        }
    }

    /// A counted path the grouped count kernel takes: one predicate-free
    /// `child` / `attribute` step, or `descendant(-or-self)` under a name.
    fn count_step(&self, id: ExprId) -> Option<(ExprId, &'q Step, ResolvedTest)> {
        let (path, [step]) = self.simple_relative_path(id)? else {
            return None;
        };
        let test = self.query.step_test(path, 0);
        let ranked = matches!(step.axis, Axis::Descendant | Axis::DescendantOrSelf);
        let counted = matches!(step.axis, Axis::Child | Axis::Attribute)
            || ranked && matches!(test, ResolvedTest::Name(_));
        counted.then_some((path, step, test))
    }

    /// The members of `todo` a column predicate holds for, by one kernel
    /// call per path in it; `ranks`, where the list is ranked, are its
    /// `position()` and `last()`.
    fn column_holds(
        &mut self,
        column: Column<'q>,
        todo: &[NodeId],
        ranks: Option<&[SiblingRank]>,
    ) -> Result<Vec<NodeId>, EvalError> {
        if todo.is_empty() {
            return Ok(Vec::new());
        }
        self.columns += 1;
        Ok(match column {
            Column::Counts(op, a, b) => {
                let (x, y) = (self.numbers(a, todo, ranks)?, self.numbers(b, todo, ranks)?);
                let holds =
                    |i: usize| compare_scalars(op, &Value::Number(x[i]), &Value::Number(y[i]));
                todo.iter()
                    .enumerate()
                    .filter(|&(i, _)| holds(i))
                    .map(|(_, &c)| c)
                    .collect()
            }
            Column::Compare(path, step, cmp) => {
                let doc = self.doc;
                let cmp = cmp.map(|(op, c)| (op, self.constant_scalar(c).expect("a constant")));
                let (mut list, mut read, timer) = (todo.to_vec(), 0, self.timer());
                let test = self.query.step_test(path, 0);
                let work = retain_local(doc, step.axis, test, &mut list, |y| {
                    read += 1;
                    cmp.as_ref()
                        .is_none_or(|(op, scalar)| node_scalar_compare(doc, *op, y, scalar))
                });
                self.meter.charge(work as u64 + 1)?;
                if let Some(p) = &mut self.prof {
                    p.record_column(path, step, AxisRoute::Walk, todo.len(), read, timer);
                }
                list
            }
        })
    }

    /// (a)'s number column of `id` over `cands`.
    fn numbers(
        &mut self,
        id: ExprId,
        cands: &[NodeId],
        ranks: Option<&[SiblingRank]>,
    ) -> Result<Vec<f64>, EvalError> {
        let ranked = |read: fn(&SiblingRank) -> u32| {
            let ranks = ranks.expect("a ranked list");
            ranks.iter().map(|r| f64::from(read(r))).collect()
        };
        Ok(match self.query.query().node(id) {
            Node::Number(n) => vec![*n; cands.len()],
            Node::Arith(op, a, b) => {
                let mut x = self.numbers(*a, cands, ranks)?;
                for (x, y) in x.iter_mut().zip(self.numbers(*b, cands, ranks)?) {
                    *x = arith(*op, *x, y);
                }
                x
            }
            Node::Call(Func::Position, _) => ranked(|r| r.position),
            Node::Call(Func::Last, _) => ranked(|r| r.size),
            Node::Call(_, args) => {
                let (path, step, test) = self.count_step(args[0]).expect("a count");
                let (mut counts, timer) = (Vec::new(), self.timer());
                let (route, work) = axis_counts(self.doc, step.axis, test, cands, &mut counts);
                self.meter.charge(work as u64 + 1)?;
                if let Some(p) = &mut self.prof {
                    let total = counts.iter().map(|&k| k as usize).sum();
                    p.record_column(path, step, route, cands.len(), total, timer);
                }
                counts.into_iter().map(f64::from).collect()
            }
            _ => unreachable!("not a number column"),
        })
    }

    /// (c): the step started from the backward set `B` of its first
    /// position-free predicate — which then holds for all of it — when the
    /// test has no postings and [`axis_image_among`] finds `B` the smaller
    /// side.  An (a) or (b) comparison is not built only to ask, an
    /// existence test (postings and preimages only) is.
    fn selective_end(
        &mut self,
        axis: Axis,
        test: ResolvedTest,
        first: Option<&ExprId>,
        cur: &NodeSet,
        next: &mut NodeSet,
    ) -> Result<Option<Dispatch>, EvalError> {
        let Some(&first) = first else {
            return Ok(None);
        };
        let named = self.postings(axis, test).is_some();
        let column = self.column(first, 0);
        let compares = column.is_some() && !matches!(column, Some(Column::Compare(.., None)));
        if named || compares || self.backward_set(first)?.is_none() {
            return Ok(None);
        }
        let Some(Some(b)) = &self.backward[first.index()] else {
            unreachable!("built above");
        };
        let (doc, exec, b) = (self.doc, self.exec, b.as_slice());
        let ran = axis_image_among(doc, axis, cur, test, b, self.scratch, next, exec);
        self.meter.charge(ran.map_or(0, |_| b.len() as u64))?;
        Ok(ran)
    }

    /// The clock, read only for a profiled run.
    fn timer(&self) -> Option<Instant> {
        self.prof.is_some().then(Instant::now)
    }

    // ---- OPTMINCONTEXT: backward propagation --------------------------

    /// The backward set of `id` — every context node its predicate holds
    /// for — built on first request; `None` when the engine is plain
    /// MINCONTEXT or `id` is not of a backward-propagatable shape.
    fn backward_set(&mut self, id: ExprId) -> Result<Option<&NodeSet>, EvalError> {
        if !self.opt {
            return Ok(None);
        }
        if self.backward[id.index()].is_none() {
            let built = self.build_backward(id)?;
            if let (Some(_), Some(p)) = (&built, &mut self.prof) {
                p.backward_pass();
            }
            self.backward[id.index()] = Some(built);
        }
        Ok(self.backward[id.index()].as_ref().and_then(Option::as_ref))
    }

    /// Builds the backward set for `boolean(π)` / `π RelOp c` / `c RelOp π`
    /// shapes, or `None` when the shape does not apply.
    ///
    /// Witnesses are seeded from the last step's node test — its postings
    /// for a name test, a test-filtered sweep otherwise — *before* any
    /// string value is read: `@v > 500` compares the `v` attributes, not
    /// the text of every element in the document.
    fn build_backward(&mut self, id: ExprId) -> Result<Option<NodeSet>, EvalError> {
        let Some((path_id, steps, cmp)) = self.backward_shape(id) else {
            return Ok(None);
        };
        let cmp = cmp.map(|(op, c)| (op, self.constant_scalar(c).expect("a constant by shape")));
        let last = steps.len().checked_sub(1);
        let last = last.map(|si| (steps[si].axis, self.query.step_test(path_id, si)));
        let seed = last.and_then(|(axis, test)| self.postings(axis, test));
        // The witness scan visits every seeded node once.
        self.meter
            .charge(seed.map_or(self.doc.len(), <[NodeId]>::len) as u64 + 1)?;
        let mut witnesses: Vec<NodeId> = match seed {
            Some(hits) => hits.to_vec(),
            None => {
                let selects =
                    |&y: &NodeId| last.is_none_or(|(axis, test)| test.matches(self.doc, axis, y));
                self.doc.all_nodes().filter(selects).collect()
            }
        };
        if let Some((op, scalar)) = cmp {
            // Branch-free compaction: the outcome is a coin flip per node.
            let mut kept = 0;
            for i in 0..witnesses.len() {
                let y = witnesses[i];
                witnesses[kept] = y;
                kept += usize::from(node_scalar_compare(self.doc, op, y, &scalar));
            }
            witnesses.truncate(kept);
        }
        let witnesses = NodeSet::from_sorted_vec(witnesses);
        self.propagate_backwards(path_id, steps, witnesses)
            .map(Some)
    }

    /// `χ₁⁻¹(t₁ ∩ … χₖ⁻¹(tₖ ∩ T))`: one preimage sweep per step, right to
    /// left, filtering by each step's node test first.
    ///
    /// Attribute nodes in the target set are kept only where the forward
    /// axis can actually produce them: always for `self` and the or-self
    /// axes (an attribute is its own or-self image), only attributes for
    /// `attribute`, never for the rest.  The preimage kernels themselves
    /// are exact for attribute *origins* (see
    /// [`minctx_xml::axes::axis_preimage`]), so every axis propagates
    /// backward exactly.
    fn propagate_backwards(
        &mut self,
        path_id: ExprId,
        steps: &[Step],
        targets: NodeSet,
    ) -> Result<NodeSet, EvalError> {
        let mut set = targets;
        let mut pre = NodeSet::new();
        for (si, step) in steps.iter().enumerate().rev() {
            let test = self.query.step_test(path_id, si);
            set.retain(|y| {
                let is_attr = self.doc.kind(y).is_attribute();
                let attr_ok = match step.axis {
                    Axis::SelfAxis
                    | Axis::Parent
                    | Axis::DescendantOrSelf
                    | Axis::AncestorOrSelf => true,
                    Axis::Attribute => is_attr,
                    _ => !is_attr,
                };
                attr_ok && test.matches(self.doc, step.axis, y)
            });
            self.preimage(step.axis, &set, &mut pre)?;
            std::mem::swap(&mut set, &mut pre);
        }
        Ok(set)
    }

    /// `boolean(π)` as `(π, None)`; `π op c` and `c op π` as
    /// `(π, Some((op, c)))`, normalized to path-on-the-left.
    #[allow(clippy::type_complexity)]
    fn backward_shape(&self, id: ExprId) -> Option<(ExprId, &'q [Step], Option<(CmpOp, ExprId)>)> {
        let q = self.query.query();
        let ((path, steps), cmp) = match q.node(id) {
            Node::Call(Func::Boolean, args) => (self.simple_relative_path(args[0])?, None),
            Node::Compare(op, a, b) => match self.simple_relative_path(*a) {
                Some(path) => (path, Some((*op, *b))),
                None => (self.simple_relative_path(*b)?, Some((op.swapped(), *a))),
            },
            _ => return None,
        };
        let constant = |c: ExprId| matches!(q.node(c), Node::Number(_) | Node::Literal(_));
        cmp.is_none_or(|(_, c)| constant(c))
            .then_some((path, steps, cmp))
    }

    /// A relative, predicate-free location path — the shape the backward
    /// optimization handles, on every axis (the preimage kernels are exact
    /// for attribute nodes on both sides of the relation).
    fn simple_relative_path(&self, id: ExprId) -> Option<(ExprId, &'q [Step])> {
        match self.query.query().node(id) {
            Node::Path(PathStart::Context, steps)
                if steps.iter().all(|s| s.predicates.is_empty()) =>
            {
                Some((id, steps))
            }
            _ => None,
        }
    }

    /// A constant scalar operand (number or string literal).  Booleans are
    /// excluded: comparing a node-set against a boolean converts the *set*,
    /// which is not an existential per-node comparison.
    fn constant_scalar(&self, id: ExprId) -> Option<Value> {
        match self.query.query().node(id) {
            Node::Number(n) => Some(Value::Number(*n)),
            Node::Literal(s) => Some(Value::String(s.to_string())),
            _ => None,
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
        MinContext {
            optimized,
            threads: 1,
        }
        .evaluate(doc, &cq, Context::document(doc), &mut scratch, &mut meter)
        .unwrap()
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
        let config = MinContext::default();
        let mut run = Run::new(&doc, &cq, &config, &mut scratch, &mut meter, None);
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
        // OPTMINCONTEXT the walks are column kernel calls, whose rows'
        // `in` count the <a>s computed.
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
                if strategy == Strategy::MinContext {
                    assert_eq!(inner.invocations, 3, "{strategy}:\n{}", p.plan_text());
                } else {
                    let column = p.steps.iter().filter(|s| s.mode == Some(PredMode::Column));
                    let computed: u64 = column.filter(|s| s.predicates == 0).map(|s| s.input).sum();
                    assert_eq!(computed, 3, "{strategy}:\n{}", p.plan_text());
                }
                let anc = p.steps.iter().find(|s| s.display == "ancestor::a").unwrap();
                assert_eq!(anc.invocations, 4, "{strategy} {q}");
            }
        }
    }

    #[test]
    fn columns_agree_with_naive_on_the_shapes_that_break_them() {
        // <item>s nested ten deep, then eight shallow ones under <x>s; `v`
        // values that are no number (`''`, `'NaN'`, `'1e3'`) or only one
        // after trimming (`' 7 '`), and a negative zero.  `v` and `id` are
        // on more nodes than there are <item>s (read on the candidates'
        // side), `w` on fewer (the backward set is built).
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
        // Both routes of a comparison and of an existence test ran, and (c)
        // from nested origins — an existence `B` still built for it.
        for (q, mode, passes) in [
            ("//item[@v > 0]", PredMode::Column, 0),
            ("//item[@w > 0]", PredMode::Backward, 1),
            ("//item[@id]", PredMode::Column, 0),
            ("//item[@w]", PredMode::Backward, 1),
            ("//item/*[@id]", PredMode::SelectiveEnd, 1),
            ("//item//*[@id]", PredMode::SelectiveEnd, 1),
            ("//*[@id]", PredMode::SelectiveEnd, 1),
        ] {
            let p = opt.explain(&doc, q).unwrap();
            let step = p.steps.iter().find(|s| s.predicates == 1).unwrap();
            assert_eq!(
                (step.mode, p.backward_passes),
                (Some(mode), passes),
                "{}",
                p.plan_text()
            );
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
            let v = MinContext::default().evaluate(&doc, &cq, ctx, scratch, &mut meter);
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
            // OPTMINCONTEXT reads every one of these predicates off the rank
            // column; MINCONTEXT evaluates each candidate, as the paper does.
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
            // One predicate per candidate — `@k` after a position, a literal
            // operand — and the step is `sibling-rank` on both.
            for q in ["//*/b[1][@k]", "//*/b[position() = '2']"] {
                let p = engine.explain(&doc, q).unwrap();
                let step = p.steps.iter().find(|s| s.display == "child::b").unwrap();
                assert_eq!(step.mode, Some(PredMode::SiblingRank), "{strategy} {q}");
                assert_eq!(engine.evaluate_str(&doc, q), naive.evaluate_str(&doc, q));
            }
            // `//b[k]` cannot be fused (`descendant::b[k]` is another
            // query), but its `descendant-or-self::node()` is never built:
            // the ranked step sweeps `descendant::b` from the root itself.
            for optimizer in [true, false] {
                let engine = engine.clone().with_optimizer(optimizer);
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
