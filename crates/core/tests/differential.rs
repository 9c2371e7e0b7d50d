//! The cross-strategy differential oracle: the corpus in every
//! configuration of the evaluation lattice, strategies at non-root
//! contexts, and pinned answers that keep it from agreeing vacuously.
//!
//! The strategies share the value/conversion library but nothing of their
//! evaluation order — naive is top-down context-at-a-time, the tables are
//! bottom-up over all contexts, MINCONTEXT is top-down set-at-a-time with
//! memoization, OPTMINCONTEXT adds backward axis propagation — so their
//! agreement, each with the rewrite pipeline off and on, is strong
//! evidence of semantic correctness.

use minctx_bench::corpus::{documents, QUERIES};
use minctx_bench::{engines, lattice, values_agree};
use minctx_core::{Engine, Value};

/// `"cvt"` / `"cvt+opt"` — for failure messages.
fn tag(e: &Engine) -> String {
    let opt = if e.optimizer() { "+opt" } else { "" };
    format!("{}{opt}", e.strategy())
}

#[test]
fn corpus_has_at_least_forty_queries() {
    assert!(
        QUERIES.len() >= 40,
        "differential corpus shrank to {}",
        QUERIES.len()
    );
}

#[test]
fn all_strategies_agree_on_the_corpus() {
    // Every strategy with the rewriter off and on, over owned and mapped
    // copies, and the streamer off and on, against raw naive, which must
    // answer every case.
    let tally = lattice::queries_on(&documents(), QUERIES);
    tally.floors(25, 10);
    assert_eq!(tally.naive, tally.cases, "raw naive sat out a corpus case");
}

#[test]
fn strategies_agree_at_non_root_contexts() {
    use minctx_core::Context;
    let docs = documents();
    let queries = [
        "n",
        ".",
        "..",
        "self::node()",
        "following-sibling::*[1]",
        "count(preceding-sibling::*)",
        "string(.)",
        "position() + last()",
    ];
    let engines = engines(None);
    for (doc_name, doc) in &docs {
        for q in queries {
            let query = minctx_syntax::parse_xpath(q).unwrap();
            // Every element of the document becomes a context node.
            for node in doc.all_nodes().filter(|&n| doc.kind(n).is_element()) {
                let ctx = Context::at(node);
                let mut results = engines.iter().map(|e| {
                    e.evaluate_at(doc, &query, ctx).unwrap_or_else(|err| {
                        panic!("{doc_name}: {} failed on {q:?}: {err}", tag(e))
                    })
                });
                let first = results.next().unwrap();
                for v in results {
                    assert!(
                        values_agree(&first, &v),
                        "{doc_name}: node {node} query {q:?}: {first:?} vs {v:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn known_answers_spot_check() {
    // The oracle should not be vacuously agreeing on empty results:
    // pin a few absolute answers on the books document.
    let (_, doc) = &documents()[0];
    for engine in engines(None) {
        let v = engine.evaluate_str(doc, "count(//book)").unwrap();
        assert_eq!(v, Value::Number(3.0), "{}", tag(&engine));
        let v = engine
            .evaluate_str(doc, "string(//book[last()]/title)")
            .unwrap();
        assert_eq!(v, Value::String("XML".into()), "{}", tag(&engine));
        let v = engine
            .evaluate_str(doc, "id(//book[3]/@ref)/title")
            .unwrap()
            .into_node_set()
            .unwrap();
        assert_eq!(v.len(), 1, "{}", tag(&engine));
        let v = engine.evaluate_str(doc, "//book[price > 40]").unwrap();
        assert_eq!(v.into_node_set().unwrap().len(), 2, "{}", tag(&engine));
    }
}
