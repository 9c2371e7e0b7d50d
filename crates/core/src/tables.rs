//! The bottom-up context-value-table evaluator — the VLDB 2002 predecessor
//! algorithm the paper improves on.
//!
//! One table per parse-tree node, filled in a single bottom-up sweep over
//! the arena (children have smaller [`ExprId`]s, so a forward loop is a
//! bottom-up traversal).  A table covers **every** potentially arising
//! context, before any are known to be needed:
//!
//! * for every context node `x ∈ dom`, and
//! * for position/size-dependent expressions, every pair `(k, n)` with
//!   `1 ≤ k ≤ n ≤ |dom|`.
//!
//! That unconditional materialization is precisely the inefficiency the
//! ICDE 2003 paper attacks: the tables cost `Θ(|D|³)` space per positional
//! predicate and are filled for contexts that can never occur, whereas
//! MINCONTEXT touches only the contexts the query actually propagates
//! top-down (and OPTMINCONTEXT avoids even those where a backward pass
//! suffices).  Keeping this evaluator around gives the theorem suite
//! (`tests/theorems.rs`, which counts those cells) the paper's own baseline
//! and the differential suite a structurally independent oracle: it shares
//! no evaluation order with the recursive strategies.

use crate::budget::BudgetMeter;
use crate::compile::CompiledQuery;
use crate::engine::Context;
use crate::error::EvalError;
use crate::funcs;
use crate::naive::arith;
use crate::value::{compare, Value};
use minctx_syntax::{ExprId, Func, Node, PathStart, Relev, Step};
use minctx_xml::axes::axis_image_resolved;
use minctx_xml::{Document, NodeId, NodeSet, Scratch};

/// The bottom-up context-value-table evaluator.
#[derive(Debug, Clone, Default)]
pub struct ContextValueTables;

impl ContextValueTables {
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
        let q = query.query();
        let mut tables: Vec<Table> = Vec::with_capacity(q.len());
        for (id, _) in q.iter() {
            let t = build_table(doc, query, &tables, id, scratch, meter)?;
            tables.push(t);
        }
        Ok(tables[q.root().index()].get(ctx).clone())
    }
}

/// A context-value table: the node's value for every context in its
/// (relevance-shaped) domain.
struct Table {
    relev: Relev,
    /// Entries per context node (1 when position and size are irrelevant).
    per_node: usize,
    vals: Vec<Value>,
}

impl Table {
    fn get(&self, ctx: Context) -> &Value {
        &self.vals[self.index(ctx)]
    }

    fn index(&self, ctx: Context) -> usize {
        let node_part = if self.relev.node() {
            ctx.node.index() * self.per_node
        } else {
            0
        };
        node_part + self.pos_part(ctx.position, ctx.size)
    }

    fn pos_part(&self, k: usize, n: usize) -> usize {
        match (self.relev.position(), self.relev.size()) {
            // Triangular layout over 1 ≤ k ≤ n ≤ max_n.
            (true, true) => n * (n - 1) / 2 + (k - 1),
            (true, false) => k - 1,
            (false, true) => n - 1,
            (false, false) => 0,
        }
    }
}

/// The number of `(k, n)` slots a relevance shape needs.
fn per_node_slots(relev: Relev, max_n: usize) -> usize {
    match (relev.position(), relev.size()) {
        (true, true) => max_n * (max_n + 1) / 2,
        (true, false) | (false, true) => max_n,
        (false, false) => 1,
    }
}

/// Enumerates every context in a table's domain, in exactly the order
/// [`Table::index`] lays entries out.
fn for_each_context(
    relev: Relev,
    max_n: usize,
    node_count: usize,
    mut f: impl FnMut(Context) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let nodes = if relev.node() { node_count } else { 1 };
    for x in 0..nodes {
        let node = NodeId::from_index(x);
        match (relev.position(), relev.size()) {
            (true, true) => {
                for n in 1..=max_n {
                    for k in 1..=n {
                        f(Context {
                            node,
                            position: k,
                            size: n,
                        })?;
                    }
                }
            }
            (true, false) => {
                for k in 1..=max_n {
                    f(Context {
                        node,
                        position: k,
                        size: 1,
                    })?;
                }
            }
            (false, true) => {
                for n in 1..=max_n {
                    f(Context {
                        node,
                        position: 1,
                        size: n,
                    })?;
                }
            }
            (false, false) => f(Context {
                node,
                position: 1,
                size: 1,
            })?,
        }
    }
    Ok(())
}

fn build_table(
    doc: &Document,
    query: &CompiledQuery,
    tables: &[Table],
    id: ExprId,
    scratch: &mut Scratch,
    meter: &mut BudgetMeter,
) -> Result<Table, EvalError> {
    let relev = query.query().relev(id);
    let max_n = doc.len();
    let per_node = per_node_slots(relev, max_n);
    let total = if relev.node() {
        doc.len() * per_node
    } else {
        per_node
    };
    let mut vals = Vec::with_capacity(total);
    for_each_context(relev, max_n, doc.len(), |ctx| {
        // One unit per table cell: the cell count *is* this algorithm's
        // cost model (and its Θ(|D|³)-per-positional-predicate blow-up).
        // Path cells charge their axis sweeps on top (a predicate-free
        // absolute path is a single cell doing `O(|D|)` work).
        meter.charge(1)?;
        vals.push(value_at(doc, query, tables, id, ctx, scratch, meter)?);
        Ok(())
    })?;
    debug_assert_eq!(vals.len(), total);
    Ok(Table {
        relev,
        per_node,
        vals,
    })
}

/// The value of node `id` at one context, all children read from their
/// (already complete) tables.
fn value_at(
    doc: &Document,
    query: &CompiledQuery,
    tables: &[Table],
    id: ExprId,
    ctx: Context,
    scratch: &mut Scratch,
    meter: &mut BudgetMeter,
) -> Result<Value, EvalError> {
    let lookup = |child: ExprId| tables[child.index()].get(ctx);
    Ok(match query.query().node(id) {
        Node::Or(a, b) => Value::Boolean(lookup(*a).boolean() || lookup(*b).boolean()),
        Node::And(a, b) => Value::Boolean(lookup(*a).boolean() && lookup(*b).boolean()),
        Node::Compare(op, a, b) => Value::Boolean(compare(doc, *op, lookup(*a), lookup(*b))),
        Node::Arith(op, a, b) => {
            Value::Number(arith(*op, lookup(*a).number(doc), lookup(*b).number(doc)))
        }
        Node::Neg(a) => Value::Number(-lookup(*a).number(doc)),
        Node::Union(a, b) => {
            let x = lookup(*a).as_node_set().ok_or(type_err(lookup(*a)))?;
            let y = lookup(*b).as_node_set().ok_or(type_err(lookup(*b)))?;
            Value::NodeSet(x.union(y))
        }
        Node::Path(start, steps) => {
            path_value(doc, query, id, tables, start, steps, ctx, scratch, meter)?
        }
        Node::Call(Func::Position, _) => Value::Number(ctx.position as f64),
        Node::Call(Func::Last, _) => Value::Number(ctx.size as f64),
        Node::Call(func, args) => {
            let vals: Vec<Value> = args.iter().map(|&a| lookup(a).clone()).collect();
            funcs::apply(doc, *func, &vals, ctx.node)?
        }
        Node::Number(n) => Value::Number(*n),
        Node::Literal(s) => Value::String(s.to_string()),
    })
}

fn type_err(v: &Value) -> EvalError {
    EvalError::Type {
        expected: "node-set",
        got: v.value_type().as_str(),
    }
}

#[allow(clippy::too_many_arguments)]
fn path_value(
    doc: &Document,
    query: &CompiledQuery,
    path_id: ExprId,
    tables: &[Table],
    start: &PathStart,
    steps: &[Step],
    ctx: Context,
    scratch: &mut Scratch,
    meter: &mut BudgetMeter,
) -> Result<Value, EvalError> {
    let mut cur: NodeSet = match start {
        PathStart::Root => NodeSet::singleton(doc.root()),
        PathStart::Context => NodeSet::singleton(ctx.node),
        PathStart::Filter {
            primary,
            predicates,
        } => {
            let primary = tables[primary.index()]
                .get(ctx)
                .as_node_set()
                .ok_or(type_err(tables[primary.index()].get(ctx)))?
                .clone();
            let mut list: Vec<NodeId> = primary.into_vec();
            for &p in predicates {
                list = filter_candidates(tables, p, list);
            }
            NodeSet::from_sorted_vec(list)
        }
    };
    for (si, step) in steps.iter().enumerate() {
        if cur.is_empty() {
            break;
        }
        let test = query.step_test(path_id, si);
        // An axis sweep touches at least the whole context set, and its
        // output too: from a singleton context `preceding::*` can touch
        // most of the document (as MINCONTEXT charges it).
        meter.charge(cur.len() as u64 + 1)?;
        if step.predicates.is_empty() {
            cur = axis_image_resolved(doc, step.axis, &cur, test, scratch);
            meter.charge(cur.len() as u64)?;
        } else {
            let mut acc = Vec::new();
            let mut cands = Vec::new();
            for x in cur.iter() {
                doc.axis_nodes_into(step.axis, x, test, &mut cands);
                meter.charge(cands.len() as u64)?;
                let mut kept = std::mem::take(&mut cands);
                for &p in &step.predicates {
                    kept = filter_candidates(tables, p, kept);
                }
                acc.extend_from_slice(&kept);
                cands = kept;
            }
            cur = NodeSet::from_unsorted_with_capacity(doc.len(), acc);
        }
    }
    Ok(Value::NodeSet(cur))
}

/// Predicate application is pure table lookup: the predicate's value for
/// every `(y, k, n)` was already materialized bottom-up.
fn filter_candidates(tables: &[Table], pred: ExprId, cands: Vec<NodeId>) -> Vec<NodeId> {
    let size = cands.len();
    let table = &tables[pred.index()];
    cands
        .into_iter()
        .enumerate()
        .filter(|&(i, y)| {
            table
                .get(Context {
                    node: y,
                    position: i + 1,
                    size,
                })
                .boolean()
        })
        .map(|(_, y)| y)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_syntax::parse_xpath;
    use minctx_xml::parse;

    #[test]
    fn triangular_indexing_is_bijective() {
        let t = Table {
            relev: Relev::NODE.union(Relev::POSITION).union(Relev::SIZE),
            per_node: per_node_slots(Relev::POSITION.union(Relev::SIZE), 5),
            vals: Vec::new(),
        };
        let mut seen = std::collections::HashSet::new();
        for n in 1..=5 {
            for k in 1..=n {
                let idx = t.pos_part(k, n);
                assert!(idx < t.per_node, "({k},{n}) out of range");
                assert!(seen.insert(idx), "({k},{n}) collides");
            }
        }
        assert_eq!(seen.len(), t.per_node);
    }

    #[test]
    fn evaluates_positional_predicates_from_tables() {
        let doc = parse("<a><b/><b/><b/></a>").unwrap();
        let q = parse_xpath("/a/b[position() = last() - 1]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let v = ContextValueTables
            .evaluate(
                &doc,
                &cq,
                Context::document(&doc),
                &mut Scratch::new(),
                &mut BudgetMeter::unlimited(),
            )
            .unwrap();
        let ns = v.as_node_set().unwrap();
        assert_eq!(ns.len(), 1);
        // The middle <b>.
        let a = doc.document_element();
        let second = doc.children(a).nth(1).unwrap();
        assert!(ns.contains(second));
    }

    #[test]
    fn table_shapes_follow_relevance() {
        let doc = parse("<a><b/></a>").unwrap();
        let q = parse_xpath("a[position() = 1]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        let mut tables = Vec::new();
        for (id, _) in q.iter() {
            tables.push(build_table(&doc, &cq, &tables, id, &mut scratch, &mut meter).unwrap());
        }
        for (id, node) in q.iter() {
            let t = &tables[id.index()];
            match node {
                // position() table: one entry per k, no node dimension.
                Node::Call(Func::Position, _) => {
                    assert_eq!(t.vals.len(), doc.len());
                }
                // The literal 1: a single constant cell.
                Node::Number(_) => assert_eq!(t.vals.len(), 1),
                _ => {}
            }
        }
    }
}
