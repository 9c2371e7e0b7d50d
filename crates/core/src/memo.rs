//! MINCONTEXT's memo tables: which expression nodes get one, and how each
//! kind is stored.
//!
//! The paper's bound needs every expression node `N` computed at most once
//! per distinct *relevant* context.  A table per node gives that, but most
//! tables can never be read back: when `N` has a single parent evaluated in
//! the same context and `Relev(N) = Relev(parent)`, every repeated context
//! of `N` is a repeated context of the parent, whose own table (or, by
//! induction, its parent's) answers first.  [`tables_for`] therefore keeps a
//! table only where that argument breaks:
//!
//! * predicates — a path evaluates them in *new* contexts (its candidates),
//!   so the path's table says nothing about them;
//! * nodes hash-consing gave several parents;
//! * nodes whose `Relev` is strictly smaller than their parent's (an
//!   absolute path under a per-node comparison is computed once, not once
//!   per node).
//!
//! Literals and argument-free calls are cheaper to recompute than to look
//! up and get none.  `Relev = {node}` booleans — what predicates over
//! large candidate sets produce — are stored densely by node index;
//! everything else, per-node numbers included, keeps the hashed map keyed
//! on the packed relevant context, sized to the entries written (a dense
//! `f64` per node was 8·|D| bytes for one `count(b)` under
//! `//a[position() = count(b)]`).

use crate::engine::Context;
use crate::value::Value;
use minctx_syntax::{ExprId, Node, PathStart, Query, Relev, ValueType};
use minctx_xml::{DenseSet, NodeSet};
use std::collections::HashMap;

/// One expression node's memo table.  The dense table allocates on first
/// write.
#[derive(Debug, Clone)]
pub(crate) enum Table {
    /// Never read back (see the module docs): nothing is stored.
    None,
    /// `Relev = {node}`, boolean-valued: bit `i` of `known` says node `i` was
    /// computed, bit `i` of `truth` holds the answer.
    Bools { known: DenseSet, truth: DenseSet },
    /// Any other shape: relevant-context key → value.
    Sparse(HashMap<u128, Value>),
}

/// Packs the *relevant* components of a context into a memo key; the
/// irrelevant components are zeroed so contexts that agree on `Relev(N)`
/// share an entry.  42-bit fields: node ids are `u32` by construction,
/// and positions/sizes are bounded by the document's node count, so any
/// document the arena can represent fits without aliasing.
fn memo_key(relev: Relev, ctx: Context) -> u128 {
    debug_assert!(ctx.position <= u32::MAX as usize && ctx.size <= u32::MAX as usize);
    let mut key = 0u128;
    if relev.node() {
        key |= ctx.node.index() as u128;
    }
    if relev.position() {
        key |= (ctx.position as u128) << 42;
    }
    if relev.size() {
        key |= (ctx.size as u128) << 84;
    }
    key
}

impl Table {
    pub(crate) fn get(&self, relev: Relev, ctx: Context) -> Option<Value> {
        match self {
            Table::None => None,
            Table::Bools { known, truth } => known
                .contains(ctx.node)
                .then(|| Value::Boolean(truth.contains(ctx.node))),
            Table::Sparse(map) => map.get(&memo_key(relev, ctx)).cloned(),
        }
    }

    /// Stores `v` for `ctx`; `nodes` is the document's node count, the
    /// capacity the dense table grows to on its first write.
    pub(crate) fn put(&mut self, relev: Relev, ctx: Context, nodes: usize, v: &Value) {
        match (self, v) {
            (Table::Bools { known, truth }, Value::Boolean(b)) => {
                known.ensure_capacity(nodes);
                known.insert(ctx.node);
                if *b {
                    truth.ensure_capacity(nodes);
                    truth.insert(ctx.node);
                }
            }
            (Table::Sparse(map), v) => {
                map.insert(memo_key(relev, ctx), v.clone());
            }
            // `Table::None`; a dense table is only planned for a node of
            // its static type, so the mixed pairs do not arise.
            _ => {}
        }
    }

    /// Splits a candidate set by what a boolean table already knows:
    /// `(known true, not yet computed)` — known-false candidates drop out.
    /// Any other table knows nothing.
    pub(crate) fn split(&self, cands: NodeSet) -> (NodeSet, NodeSet) {
        match self {
            Table::Bools { known, truth } if known.capacity() > 0 => {
                let (mut yes, mut unknown) = (Vec::new(), Vec::new());
                for y in cands.iter() {
                    if !known.contains(y) {
                        unknown.push(y);
                    } else if truth.contains(y) {
                        yes.push(y);
                    }
                }
                (
                    NodeSet::from_sorted_vec(yes),
                    NodeSet::from_sorted_vec(unknown),
                )
            }
            _ => (NodeSet::new(), cands),
        }
    }

    /// Records a set-at-a-time answer in a boolean table: every node of
    /// `computed` is now known, those also in `holds` are true.
    pub(crate) fn record(&mut self, nodes: usize, computed: &NodeSet, holds: &NodeSet) {
        if let Table::Bools { known, truth } = self {
            known.ensure_capacity(nodes);
            truth.ensure_capacity(nodes);
            known.extend(computed.iter());
            truth.extend(holds.iter());
        }
    }

    /// How many contexts the table holds an answer for.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        match self {
            Table::None => 0,
            Table::Bools { known, .. } => known.len(),
            Table::Sparse(map) => map.len(),
        }
    }
}

/// One (empty) table per expression node of `q`, of the kind the module
/// docs assign it.
pub(crate) fn tables_for(q: &Query) -> Vec<Table> {
    // Same-context parents per node, and whether any of them has a larger
    // Relev than the node itself.
    let mut parents = vec![0u32; q.len()];
    let mut shrinks = vec![false; q.len()];
    let mut predicate = vec![false; q.len()];
    for (id, node) in q.iter() {
        let mut edge = |c: ExprId| {
            parents[c.index()] += 1;
            shrinks[c.index()] |= q.relev(c) != q.relev(id);
        };
        match node {
            Node::Or(a, b)
            | Node::And(a, b)
            | Node::Compare(_, a, b)
            | Node::Arith(_, a, b)
            | Node::Union(a, b) => {
                edge(*a);
                edge(*b);
            }
            Node::Neg(a) => edge(*a),
            Node::Call(_, args) => args.iter().copied().for_each(edge),
            Node::Path(start, steps) => {
                let mut own: &[ExprId] = &[];
                if let PathStart::Filter {
                    primary,
                    predicates,
                } = start
                {
                    edge(*primary);
                    own = predicates;
                }
                for p in own.iter().chain(steps.iter().flat_map(|s| &s.predicates)) {
                    predicate[p.index()] = true;
                }
            }
            Node::Number(_) | Node::Literal(_) => {}
        }
    }
    q.iter()
        .map(|(id, node)| {
            let i = id.index();
            let trivial = match node {
                Node::Number(_) | Node::Literal(_) => true,
                Node::Call(_, args) => args.is_empty(),
                _ => false,
            };
            if trivial || !(predicate[i] || parents[i] > 1 || shrinks[i]) {
                return Table::None;
            }
            if q.relev(id) == Relev::NODE && q.value_type(id) == ValueType::Boolean {
                Table::Bools {
                    known: DenseSet::new(),
                    truth: DenseSet::new(),
                }
            } else {
                Table::Sparse(HashMap::new())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_syntax::parse_xpath;

    /// The table kind of every node matching `pick`, in arena order.
    fn kinds(src: &str, pick: impl Fn(&Node) -> bool) -> Vec<&'static str> {
        let q = parse_xpath(src).unwrap();
        let tables = tables_for(&q);
        q.iter()
            .filter(|(_, n)| pick(n))
            .map(|(id, _)| match tables[id.index()] {
                Table::None => "none",
                Table::Bools { .. } => "bools",
                Table::Sparse(_) => "sparse",
            })
            .collect()
    }

    #[test]
    fn only_predicates_shrinking_relev_and_shared_nodes_get_tables() {
        // The predicate gets the dense boolean table; the count() call and
        // the path under it are shielded by it; the literal is trivial.
        let src = "//parlist[count(listitem) > 2]";
        assert_eq!(
            kinds(src, |n| matches!(n, Node::Compare(..))),
            vec!["bools"]
        );
        assert_eq!(kinds(src, |n| matches!(n, Node::Call(..))), vec!["none"]);
        assert_eq!(kinds(src, |n| matches!(n, Node::Number(_))), vec!["none"]);
        // …as is the root path, evaluated once.
        assert_eq!(
            kinds(src, |n| matches!(n, Node::Path(..))),
            vec!["none", "none"]
        );
        // A positional predicate keeps the hashed (k, n) table.
        assert_eq!(
            kinds("//a[position() = last()]", |n| matches!(
                n,
                Node::Compare(..)
            )),
            vec!["sparse"]
        );
        // An absolute path under a per-node comparison: Relev shrinks from
        // {node} to ∅, so it is computed once and kept.
        let paths = kinds("//a[. = //b]", |n| matches!(n, Node::Path(..)));
        assert!(paths.contains(&"sparse"), "{paths:?}");
        // A per-node number under a positional comparison is hashed.
        assert_eq!(
            kinds("//a[position() = count(b)]", |n| matches!(
                n,
                Node::Call(minctx_syntax::Func::Count, _)
            )),
            vec!["sparse"]
        );
    }

    #[test]
    fn dense_tables_round_trip_split_and_record() {
        use minctx_xml::NodeId;
        let ctx = |i: usize| Context::at(NodeId::from_index(i));
        let set = |v: &[usize]| -> NodeSet { v.iter().map(|&i| NodeId::from_index(i)).collect() };
        let mut t = Table::Bools {
            known: DenseSet::new(),
            truth: DenseSet::new(),
        };
        assert_eq!(t.get(Relev::NODE, ctx(3)), None);
        assert_eq!(t.split(set(&[1, 3])), (set(&[]), set(&[1, 3])));
        t.put(Relev::NODE, ctx(3), 10, &Value::Boolean(true));
        t.put(Relev::NODE, ctx(4), 10, &Value::Boolean(false));
        assert_eq!(t.get(Relev::NODE, ctx(3)), Some(Value::Boolean(true)));
        assert_eq!(t.get(Relev::NODE, ctx(4)), Some(Value::Boolean(false)));
        assert_eq!(t.split(set(&[1, 3, 4])), (set(&[3]), set(&[1])));
        t.record(10, &set(&[1, 2]), &set(&[2]));
        assert_eq!(t.split(set(&[1, 2, 3, 4, 5])), (set(&[2, 3]), set(&[5])));
        assert_eq!(t.entries(), 4);
    }
}
