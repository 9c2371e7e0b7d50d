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
//! paper's context-propagation), total work is polynomial — `O(|D|·|Q|)`
//! on Core XPath and the Extended Wadler fragment (Theorems 7 and 10).
//!
//! Predicates are set-at-a-time too.  A step whose predicates all ignore
//! `position()` and `last()` sweeps its axis once for the whole context
//! set and filters the resulting candidate *set* (`and` in sequence, `or`
//! as a union, `not` as a difference, anything else node by node); a step
//! with a positional predicate lists candidates per origin in axis order,
//! but only for origins the node test's postings say have a candidate at
//! all, and still answers its leading position-free predicates once, as a
//! set (DESIGN.md "Set-at-a-time predicates").
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
use crate::engine::{Context, Evaluator, Strategy};
use crate::error::EvalError;
use crate::explain::{PredMode, ProfileCollector, StepObservation};
use crate::funcs;
use crate::memo::{tables_for, Table};
use crate::naive::arith;
use crate::value::{compare, node_scalar_compare, Value};
use minctx_syntax::{ExprId, Func, Node, PathStart, Relev, Step};
use minctx_xml::axes::{axis_image_on, axis_preimage_on, Axis, Dispatch, ResolvedTest};
use minctx_xml::{sibling_ranks, Document, Exec, NodeId, NodeSet, Scratch, WorkerPool};
use std::sync::Arc;
use std::time::Instant;

/// The MINCONTEXT evaluator; with `optimized` set, OPTMINCONTEXT.
#[derive(Debug, Clone, Default)]
pub struct MinContext {
    /// Enables the Section-4 backward-propagation optimizations.
    pub optimized: bool,
    /// The engine's worker pool
    /// ([`Engine::with_threads`](crate::Engine::with_threads); shared
    /// across engine clones, regions are serialized inside it).  With one
    /// attached, the axis kernels cut their large scans into ranges on it
    /// — same kernel bodies, same results, same fuel; nothing else about
    /// the evaluation changes.  `None` (the default) runs every scan as
    /// one range on the calling thread.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Evaluator for MinContext {
    fn strategy(&self) -> Strategy {
        if self.optimized {
            Strategy::OptMinContext
        } else {
            Strategy::MinContext
        }
    }

    fn evaluate(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
    ) -> Result<Value, EvalError> {
        Run::new(doc, query, self, scratch, meter, None).eval(query.query().root(), ctx)
    }
}

impl MinContext {
    /// [`Evaluator::evaluate`] with a [`ProfileCollector`] attached: the
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
    /// How the axis kernels run their scans: on the evaluator's pool when
    /// it has one, inline otherwise.
    exec: Exec<'q>,
    /// How many set filters had to evaluate a predicate node by node; a
    /// step that leaves it unchanged was answered from backward sets alone
    /// (EXPLAIN's `mode=backward` as opposed to `mode=set`).
    per_node: u64,
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
            exec: Exec::on(config.pool.as_deref()),
            per_node: 0,
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
            let timer = self.prof.is_some().then(Instant::now);
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
                let ran = axis_image_on(doc, axis, &cur, test, self.scratch, &mut next, exec);
                // Charge the sweep's output too: from a singleton
                // context, `preceding::*` can touch most of the
                // document, and deadline polling granularity must
                // track that work, not just the input size.
                self.meter.charge(next.len() as u64)?;
                std::mem::swap(&mut cur, &mut next);
                let visited = self.per_node;
                for &p in &step.predicates[..free] {
                    cur = self.filter_set(p, cur)?;
                }
                let mode = if free < step.predicates.len() {
                    // What a ranked step takes in is the candidates it ranks.
                    input = cur.len();
                    cur = self.filter_ranked(&step.predicates[free..], cur)?;
                    Some(PredMode::SiblingRank)
                } else if step.predicates.is_empty() {
                    None
                } else if self.per_node > visited {
                    Some(PredMode::Set)
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
    /// for: a backward-propagatable shape intersects with its backward
    /// set; `and` filters in sequence, `or` unions (the right operand sees
    /// only what the left rejected), `not` takes the difference — each
    /// consulting and extending the predicate's own table, which stands in
    /// for the per-node computes that would have shielded the operands;
    /// any other shape is evaluated node by node through [`Run::eval`].
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
        if let Some(holds) = self.backward_set(pred)? {
            let kept = cands.intersect(holds);
            self.meter.charge(charge)?;
            return Ok(kept);
        }
        let (a, b) = match q.node(pred) {
            Node::And(a, b) | Node::Or(a, b) => (*a, Some(*b)),
            Node::Call(Func::Not, args) => (args[0], None),
            _ => return self.filter_nodes(pred, cands),
        };
        self.meter.charge(charge)?;
        let (known, todo) = self.memo[pred.index()].split(cands);
        let left = self.filter_set(a, todo.clone())?;
        let holds = match (q.node(pred), b) {
            (Node::And(..), Some(b)) => self.filter_set(b, left)?,
            (_, Some(b)) => {
                let right = self.filter_set(b, todo.difference(&left))?;
                left.union(&right)
            }
            (_, None) => todo.difference(&left),
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
    /// before among their siblings ([`sibling_ranks`]) and evaluates them
    /// through the usual `{position, size}` tables.
    fn filter_ranked(&mut self, preds: &[ExprId], cands: NodeSet) -> Result<NodeSet, EvalError> {
        let mut list = cands.into_vec();
        for &pred in preds {
            // One ranking pass and one filtering pass over the list.
            self.meter.charge(2 * (list.len() as u64 + 1))?;
            let ranks = sibling_ranks(self.doc, &list, self.scratch);
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
            self.scratch.recycle_ranks(ranks);
        }
        Ok(NodeSet::from_sorted_vec(list))
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
        let (path, cmp) = match self.query.query().node(id) {
            Node::Call(Func::Boolean, args) => (self.simple_relative_path(args[0]), None),
            Node::Compare(op, a, b) => {
                // Normalize to path-on-the-left.
                let (path, scalar, op) = match self.simple_relative_path(*a) {
                    Some(path) => (Some(path), *b, *op),
                    None => (self.simple_relative_path(*b), *a, op.swapped()),
                };
                let Some(scalar) = self.constant_scalar(scalar) else {
                    return Ok(None);
                };
                (path, Some((op, scalar)))
            }
            _ => return Ok(None),
        };
        let Some((path_id, steps)) = path else {
            return Ok(None);
        };
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

    /// A relative, predicate-free location path — the shape the backward
    /// optimization handles.  Every axis now propagates backward exactly:
    /// the preimage kernels handle attribute nodes on both sides of the
    /// relation, where their mirror-axis predecessors diverged from `χ⁻¹`
    /// for attribute origins of `parent` / `ancestor(-or-self)` /
    /// `descendant-or-self` / `following` / `preceding` (those axes were
    /// therefore excluded here).
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
    use minctx_syntax::parse_xpath;
    use minctx_xml::parse;

    fn eval_one(doc: &minctx_xml::Document, query: &str, optimized: bool) -> Value {
        let q = parse_xpath(query).unwrap();
        let cq = CompiledQuery::new(doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        MinContext {
            optimized,
            pool: None,
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
        // per distinct <a> — not once per (origin, ancestor) pair.
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
                assert_eq!(inner.invocations, 3, "{strategy}:\n{}", p.plan_text());
                let anc = p.steps.iter().find(|s| s.display == "ancestor::a").unwrap();
                assert_eq!(anc.invocations, 4, "{strategy} {q}");
            }
        }
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
                assert_eq!(step.mode, Some(PredMode::SiblingRank), "{q}");
                assert_eq!((step.input, step.origins), (ranked, ranked), "{q}");
                assert!(!p.plan_text().contains("origins="), "{}", p.plan_text());
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
                        && text.contains("child::b preds=1 mode=sibling-rank route=postings"),
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
