//! The deliberately naive evaluator: Section 1's exponential baseline.
//!
//! This models the XPath engines the paper benchmarks against (XALAN, XT,
//! IE6): location paths are evaluated *context node at a time*, recursing
//! into every subexpression afresh for every context, and — crucially —
//! intermediate node lists are **not deduplicated**.  On the paper's query
//! family
//!
//! ```text
//! //b, //b/parent::a/child::b, //b/parent::a/child::b/parent::a/child::b, …
//! ```
//!
//! over the two-`<b/>` document, each `parent::a/child::b` pair doubles the
//! context list, so running time is `Θ(2^(|Q|/2))`.  The evaluator charges
//! an abstract work unit per expression visit and per candidate node
//! against the caller's [`BudgetMeter`], and aborts with
//! [`EvalError::BudgetExhausted`] once the fuel or deadline is spent —
//! which is how the test suite demonstrates the blow-up without waiting
//! for it.
//!
//! The final value of a path is deduplicated into a proper [`NodeSet`], so
//! the naive strategy is *correct*, just exponentially slow.

use crate::budget::BudgetMeter;
use crate::compile::CompiledQuery;
use crate::engine::Context;
use crate::error::EvalError;
use crate::funcs;
use crate::value::{compare, Value};
use minctx_syntax::{ArithOp, ExprId, Func, Node, PathStart, Step};
use minctx_xml::{Document, NodeId, NodeSet};

/// Evaluates a compiled query at a context by the exponential-time
/// baseline, charging work to `meter`.
pub(crate) fn evaluate(
    doc: &Document,
    query: &CompiledQuery,
    ctx: Context,
    meter: &mut BudgetMeter,
) -> Result<Value, EvalError> {
    let mut run = Run { doc, query, meter };
    run.eval(query.query().root(), ctx)
}

struct Run<'d, 'q, 'm> {
    doc: &'d Document,
    query: &'q CompiledQuery,
    meter: &'m mut BudgetMeter,
}

impl Run<'_, '_, '_> {
    fn charge(&mut self, units: u64) -> Result<(), EvalError> {
        self.meter.charge(units)
    }

    fn eval(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        self.charge(1)?;
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

    fn eval_path(
        &mut self,
        path_id: ExprId,
        start: &PathStart,
        steps: &[Step],
        ctx: Context,
    ) -> Result<Value, EvalError> {
        // The context *list*: duplicates deliberately retained.
        let mut cur: Vec<NodeId> = match start {
            PathStart::Root => vec![self.doc.root()],
            PathStart::Context => vec![ctx.node],
            PathStart::Filter {
                primary,
                predicates,
            } => {
                let primary = self.eval(*primary, ctx)?.into_node_set()?;
                let mut list: Vec<NodeId> = primary.into_vec();
                for &p in predicates {
                    list = self.filter_candidates(p, list)?;
                }
                list
            }
        };
        for (si, step) in steps.iter().enumerate() {
            // Node tests were resolved at compile time; no per-origin name
            // lookups even in the deliberately slow baseline.
            let test = self.query.step_test(path_id, si);
            let mut next = Vec::new();
            let mut cands = Vec::new();
            for &x in &cur {
                self.charge(1)?;
                self.doc.axis_nodes_into(step.axis, x, test, &mut cands);
                self.charge(cands.len() as u64)?;
                let mut kept = std::mem::take(&mut cands);
                for &p in &step.predicates {
                    kept = self.filter_candidates(p, kept)?;
                }
                next.extend_from_slice(&kept);
                cands = kept;
            }
            cur = next;
        }
        Ok(Value::NodeSet(NodeSet::from_unsorted_with_capacity(
            self.doc.len(),
            cur,
        )))
    }

    /// Applies one predicate to a candidate list, renumbering proximity
    /// positions among the candidates (axis order is already baked into the
    /// list order).
    fn filter_candidates(
        &mut self,
        pred: ExprId,
        cands: Vec<NodeId>,
    ) -> Result<Vec<NodeId>, EvalError> {
        let size = cands.len();
        let mut kept = Vec::with_capacity(size);
        for (i, &y) in cands.iter().enumerate() {
            let inner = Context {
                node: y,
                position: i + 1,
                size,
            };
            if self.eval(pred, inner)?.boolean() {
                kept.push(y);
            }
        }
        Ok(kept)
    }
}

pub(crate) fn arith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        // XPath `div`/`mod` are IEEE: div by zero gives ±Infinity, and mod
        // takes the sign of the dividend — both match Rust's `f64` ops.
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }
}
