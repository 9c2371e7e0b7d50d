//! Per-document query compilation: [`CompiledQuery`].
//!
//! A [`Query`] is document-independent; its node
//! tests are strings.  Every axis call used to re-resolve them against the
//! document's name table — per step, per context node, per evaluation.  A
//! `CompiledQuery` binds a query to one document, resolving every
//! [`NodeTest`] to a [`ResolvedTest`] (an integer
//! comparison) exactly once.  The [`Engine`](crate::Engine) caches
//! compiled queries per `(query stamp, document stamp)`, so the production
//! serving pattern — one document, a fixed query set, many evaluations —
//! performs **zero** name resolution after the first call (verified by a
//! test against [`NameTable::lookup_count`](minctx_xml::NameTable)).

use minctx_syntax::{ExprId, Node, Query, Step};
use minctx_xml::{Axis, Document, NodeTest, ResolvedTest};

/// How MINCONTEXT evaluates one location step — a property of the query's
/// shape, decided here once rather than on every evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepRoute {
    /// No positional predicate: one axis sweep for the whole context set,
    /// then the candidate set is filtered.
    Set,
    /// A positional predicate on `child` / `attribute`, where a candidate
    /// has exactly one origin: one sweep of the given axis, then candidates
    /// are ranked among their siblings.  The axis is the step's own, or
    /// `descendant` when the step in front is [`StepRoute::Elided`].
    Ranked(Axis),
    /// A predicate-free `descendant-or-self::node()` in front of a ranked
    /// `child` step: never built.  `child(dos(X)) = descendant(X)` as a set
    /// and every sibling of a member is a member, so ranks within the
    /// `descendant` image are exactly the child step's positions.  (As
    /// XPath, `descendant::t[k]` is a different query — which is why this
    /// is an evaluation route and not a rewrite.)
    Elided,
    /// A positional predicate on any other axis: a candidate can have
    /// several origins, so candidates are listed per origin in axis order.
    PerOrigin,
}

/// The steps of path `id` that are not evaluated as [`StepRoute::Set`],
/// as `(path, step, route)`.
fn routes(q: &Query, id: ExprId, steps: &[Step], out: &mut Vec<(ExprId, usize, StepRoute)>) {
    let positional = |s: &Step| {
        let mut relev = s.predicates.iter().map(|&p| q.relev(p));
        relev.any(|r| r.position() || r.size())
    };
    for (i, s) in steps.iter().enumerate().filter(|(_, s)| positional(s)) {
        let elides = s.axis == Axis::Child
            && i > 0
            && steps[i - 1].axis == Axis::DescendantOrSelf
            && steps[i - 1].test == NodeTest::AnyNode
            && steps[i - 1].predicates.is_empty();
        if elides {
            out.push((id, i - 1, StepRoute::Elided));
        }
        out.push(match s.axis {
            Axis::Child if elides => (id, i, StepRoute::Ranked(Axis::Descendant)),
            Axis::Child | Axis::Attribute => (id, i, StepRoute::Ranked(s.axis)),
            _ => (id, i, StepRoute::PerOrigin),
        });
    }
}

/// A [`Query`] bound to a specific [`Document`]: every node test of every
/// location path resolved to a [`ResolvedTest`].
///
/// Obtain one from [`Engine::compile`](crate::Engine::compile) (cached) or
/// [`CompiledQuery::new`] (direct).  A compiled query may be used with any
/// document whose [`stamp`](Document::stamp) matches — i.e. the document
/// it was compiled against or a clone of it.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: Query,
    /// Per arena node: the resolved tests of that node's steps (empty for
    /// non-path nodes), in step order.
    tests: Vec<Box<[ResolvedTest]>>,
    /// The steps that are not evaluated as [`StepRoute::Set`] — those with
    /// a positional predicate and the ones elided in front of them; few or
    /// none per query, so a list, not a table.
    routes: Box<[(ExprId, usize, StepRoute)]>,
    doc_stamp: u64,
}

impl CompiledQuery {
    /// Resolves every node test of `query` against `doc`.
    pub fn new(doc: &Document, query: &Query) -> CompiledQuery {
        CompiledQuery::from_query(doc, query.clone())
    }

    /// [`CompiledQuery::new`] for a caller that is done with the query:
    /// it moves in instead of being cloned.
    pub fn from_query(doc: &Document, query: Query) -> CompiledQuery {
        let tests = query
            .iter()
            .map(|(_, node)| match node {
                Node::Path(_, steps) => steps
                    .iter()
                    .map(|s| s.test.resolve(doc))
                    .collect::<Box<[ResolvedTest]>>(),
                _ => Box::default(),
            })
            .collect();
        let mut listed = Vec::new();
        for (id, node) in query.iter() {
            if let Node::Path(_, steps) = node {
                routes(&query, id, steps, &mut listed);
            }
        }
        CompiledQuery {
            query,
            tests,
            routes: listed.into(),
            doc_stamp: doc.stamp(),
        }
    }

    /// The underlying lowered query.
    #[inline]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The resolved test of step `step` of path node `id`.
    #[inline]
    pub fn step_test(&self, id: ExprId, step: usize) -> ResolvedTest {
        self.tests[id.index()][step]
    }

    /// How step `step` of path node `id` is evaluated.
    #[inline]
    pub(crate) fn step_route(&self, id: ExprId, step: usize) -> StepRoute {
        let listed = self.routes.iter().find(|r| r.0 == id && r.1 == step);
        listed.map_or(StepRoute::Set, |r| r.2)
    }

    /// The stamp of the document this was compiled against.
    #[inline]
    pub fn doc_stamp(&self) -> u64 {
        self.doc_stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_syntax::parse_xpath;
    use minctx_xml::parse;

    #[test]
    fn resolves_every_path_step() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        let q = parse_xpath("/a/b[c]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let mut path_nodes = 0;
        for (id, node) in q.iter() {
            match node {
                Node::Path(_, steps) => {
                    assert_eq!(cq.tests[id.index()].len(), steps.len());
                    for (i, s) in steps.iter().enumerate() {
                        assert_eq!(cq.step_test(id, i), s.test.resolve(&doc));
                    }
                    path_nodes += 1;
                }
                _ => assert!(cq.tests[id.index()].is_empty()),
            }
        }
        assert!(path_nodes >= 2); // outer path + predicate path
        assert_eq!(cq.doc_stamp(), doc.stamp());
    }

    #[test]
    fn unknown_names_resolve_to_never_matches() {
        let doc = parse("<a/>").unwrap();
        let q = parse_xpath("/zzz").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let root = q.root();
        assert_eq!(cq.step_test(root, 0), ResolvedTest::NeverMatches);
    }
}
