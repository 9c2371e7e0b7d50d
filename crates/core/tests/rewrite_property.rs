//! Randomized rewrite-soundness property tests.
//!
//! The shared seeded grammar (`minctx_bench::random_query`: every axis,
//! explicit `descendant-or-self::node()` steps to tempt the fuser,
//! positional, boolean and constant predicates, duplicated union
//! branches) is evaluated on `minctx_bench::random_doc`s under all four
//! strategies with the rewrite pipeline off and on.  All answers must
//! coincide: the raw naive evaluator is the semantics oracle, and any
//! unsound pass (fusing past a positional predicate, dropping a non-total
//! step, hoisting a context-dependent predicate, interning distinct nodes)
//! shows up as a divergence on some seed.  Boolean predicate trees
//! (`minctx_bench::random_tree_query`) get their own documents, and a
//! list of positional shapes runs beside a long sibling run through the
//! whole evaluation lattice (`minctx_bench::lattice`): mapped documents
//! and the streamer too.
//!
//! Every query is also rewritten twice: one call must reach the fixpoint
//! (rewriting its result fires nothing and changes nothing), in at most
//! two arena traversals, and leave a canonical arena.

use minctx_bench::{engines, lattice, random_doc, random_query, random_tree_query, values_agree};
use minctx_core::{rewrite_traced, Engine, EvalError, Value};
use minctx_syntax::{parse_xpath, Query};
use minctx_xml::{serialize::to_xml_string, Document};

/// Naive can hit its guard budget on deep dos-chains; that is not a
/// divergence, just an expensive query — skip those outcomes.
fn eval(e: &Engine, doc: &Document, q: &str) -> Option<Value> {
    match e.evaluate_str(doc, q) {
        Ok(v) => Some(v),
        Err(EvalError::BudgetExhausted { .. }) => None,
        Err(e) => panic!("{q:?}: {e}"),
    }
}

/// Rewrites `q` and checks that the one call reached the fixpoint, in at
/// most two traversals, and left a canonical arena: root last, children
/// before parents, nothing unreachable.  Returns whether `q` changed.
fn rewritten_once_is_the_fixpoint(src: &str) -> bool {
    let q = parse_xpath(src).unwrap_or_else(|e| panic!("{src:?} failed to parse: {e}"));
    let (once, trace) = rewrite_traced(&q);
    assert!((1..=2).contains(&trace.passes), "{src:?}: {trace:?}");
    let (twice, again) = rewrite_traced(&once);
    assert_eq!(once, twice, "{src:?}: a second call changed the query");
    assert_eq!(
        (again.total(), again.passes),
        (0, 1),
        "{src:?}: a second call found work: {again:?}"
    );
    assert_canonical(&once, src);
    once != q
}

fn assert_canonical(q: &Query, src: &str) {
    assert_eq!(q.root().index(), q.len() - 1, "{src:?}: root not last");
    let mut referenced = vec![false; q.len()];
    for (id, node) in q.iter() {
        node.clone().for_each_child_mut(|c| {
            assert!(*c < id, "{src:?}: child {c} not before {id}");
            referenced[c.index()] = true;
        });
    }
    // Children precede parents, so a node no later node refers to is
    // unreachable unless it is the root.
    let strays = referenced[..q.len() - 1].iter().filter(|r| !**r).count();
    assert_eq!(strays, 0, "{src:?}: {strays} unreachable nodes in {q:#?}");
}

/// Asserts that every engine that answers `q` gives the same answer, and
/// returns it; a failure prints the seed, the query, the engine and the
/// document.
fn assert_all_agree(engines: &[Engine], doc: &Document, q: &str, seed: u64) -> Value {
    let mut baseline: Option<Value> = None;
    for e in engines {
        let Some(v) = eval(e, doc, q) else { continue };
        match &baseline {
            None => baseline = Some(v),
            Some(b) => assert!(
                values_agree(b, &v),
                "seed {seed}: {} optimize={} diverges on {q:?}:\n  baseline: {b:?}\n  got: {v:?}\n  \
                 document: {}",
                e.strategy(),
                e.optimizer(),
                to_xml_string(doc),
            ),
        }
    }
    baseline.unwrap_or_else(|| panic!("seed {seed}: no engine answered {q:?}"))
}

#[test]
fn raw_and_rewritten_agree_on_random_queries_and_documents() {
    let mut rewrites = 0usize;
    let mut total = 0usize;
    let engines = engines(Some(3_000_000));
    for seed in 1..=8u64 {
        let doc = random_doc(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            25 + seed as usize * 5,
            0,
        );
        let mut rng = seed;
        for _ in 0..60 {
            let q = random_query(&mut rng);
            total += 1;
            rewrites += usize::from(rewritten_once_is_the_fixpoint(&q));
            assert_all_agree(&engines, &doc, &q, seed);
        }
    }
    // The generator must actually exercise the pipeline: a large share of
    // the random queries has to be rewritten into something different.
    assert!(
        rewrites * 4 >= total,
        "only {rewrites}/{total} random queries were rewritten — generator rotted?"
    );
}

#[test]
fn boolean_predicate_trees_agree_across_strategies() {
    // 50 boolean trees per document, on documents of their own.
    let engines = engines(Some(3_000_000));
    let (mut total, mut non_empty) = (0usize, 0usize);
    for seed in 1..=6u64 {
        let doc = random_doc(
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d),
            30 + seed as usize * 4,
            0,
        );
        let mut rng = seed ^ 0xb001_ea17;
        for _ in 0..50 {
            let q = random_tree_query(&mut rng);
            rewritten_once_is_the_fixpoint(&q);
            total += 1;
            non_empty += usize::from(match assert_all_agree(&engines, &doc, &q, seed) {
                Value::NodeSet(ns) => !ns.is_empty(),
                Value::Number(n) => n > 0.0,
                Value::Boolean(b) => b,
                Value::String(s) => !s.is_empty(),
            });
        }
    }
    // Agreement on empty answers proves little: a fair share must select
    // something.
    assert!(
        non_empty * 3 >= total,
        "only {non_empty}/{total} tree queries were non-empty"
    );
}

/// Positional steps on every route: the sibling-rank route (child and
/// sibling axes, after a `//` the rewriter may elide), name and wildcard
/// tests, a predicate before the position, nested positionals, non-sibling
/// axes and `(…)[k]` filter starts.  Then the shapes OPTMINCONTEXT reads
/// off a column: `position()` / `last()` off the rank column — through
/// arithmetic, ±∞ and NaN, beside a count, or not at all for a literal
/// operand — and `boolean(χ::t)` on the candidates' side.
fn positional_queries() -> Vec<String> {
    const LABELS: [&str; 4] = ["a", "b", "c", "d"];
    let mut queries = Vec::new();
    for (i, t) in LABELS.iter().enumerate() {
        let x = LABELS[(i + 1) % LABELS.len()];
        for k in 1..=3 {
            queries.extend([
                format!("//{t}[{k}]"),
                format!("*/{t}[@p][{k}]"),
                format!("//{t}[{k}][1]"),
                format!("//{x}//{t}[{k}]"),
                format!("(//@p | //{x})//{t}[{k}]"),
                format!("//{x}/@*/..//{t}[{k}]"),
                format!("//@*[{k}]"),
                format!("//node()[{}]", k + 1),
                format!("//{x}[{t}[{k}]][last()]"),
                format!("//{t}[position() = count({x}[1]) + {k}]"),
                format!("(//{t})[{k}]"),
                format!("//{x}/descendant::{t}[{k}]"),
                format!("//{x}/following-sibling::{t}[{k}]"),
            ]);
        }
        queries.extend([
            format!("//{t}[last()]"),
            format!("//{t}[position() mod 2 = 1]"),
            format!("//{t}[last()][@p]"),
            format!("//{t}[@q][last()]/@*[1]"),
            format!("//{x}//{t}[last()]/text()[1]"),
            format!("//{t}[last() - position() < 2]"),
            format!("//{t}[position() = last() div 2]"),
            format!("//{t}[position() div 0 = last() div 0]"),
            format!("//{t}[(last() - position()) div 0 > 0]"),
            format!("//{t}[position() = count(@*)]"),
            format!("//{t}[position() = '2']"),
            format!("//{x}/{t}[@p]"),
            format!("//{x}/{t}[not(@q)]"),
            format!("//{x}/{t}[*]"),
            format!("//{x}/{t}[text()]"),
            format!("//{x}/*[self::{t}]"),
            format!("//{x}/*[@p][last()]"),
            format!("//*[{t}][text()][1]"),
        ]);
    }
    queries.push("//text()[last()]".to_string());
    queries.push("//*[2]/*[last()]/node()[1]".to_string());
    queries
}

#[test]
fn positional_steps_agree_with_naive_across_the_lattice() {
    // Beside a run of 240 siblings, where `last()` and `position()` take
    // large values, in every configuration of the lattice.
    let queries = positional_queries();
    for q in &queries {
        rewritten_once_is_the_fixpoint(q);
    }
    let docs: Vec<_> = (1..=5u64)
        .map(|seed| {
            let (seed, nodes) = (
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                40 + seed as usize * 8,
            );
            (
                format!("random_doc({seed}, {nodes}, 240)"),
                random_doc(seed, nodes, 240),
            )
        })
        .collect();
    // Agreement on empty answers proves little: half must select something.
    let tally = lattice::queries_on(&docs, &queries);
    tally.floors(50, 0);
    assert_eq!(
        tally.naive, tally.cases,
        "raw naive sat out a positional case"
    );
}

#[test]
fn raw_and_rewritten_agree_at_every_element_context() {
    // Relative queries evaluated from every element, not just the root.
    let queries = [
        "descendant-or-self::node()/child::a",
        "a/parent::node()",
        "descendant-or-self::node()/child::b[1]",
        "b[c][ancestor::r]",
        "count(descendant-or-self::node()/descendant::c)",
        "boolean(a/ancestor-or-self::node())",
        ".//b",
        "..",
    ];
    let engines = engines(None);
    for seed in [3u64, 17] {
        let doc = random_doc(seed.wrapping_mul(0xdead_beef), 30, 0);
        for q in queries {
            let query = parse_xpath(q).unwrap();
            for node in doc.all_nodes().filter(|&n| doc.kind(n).is_element()) {
                let ctx = minctx_core::Context::at(node);
                let mut answers = engines.iter().map(|e| {
                    let v = e.evaluate_at(&doc, &query, ctx);
                    (
                        e,
                        v.unwrap_or_else(|err| panic!("{} on {q:?}: {err}", e.strategy())),
                    )
                });
                let (_, first) = answers.next().expect("eight engines");
                for (e, v) in answers {
                    assert!(
                        values_agree(&first, &v),
                        "seed {seed}: {} optimize={} at {node} on {q:?}: {first:?} vs {v:?}\n  \
                         document: {}",
                        e.strategy(),
                        e.optimizer(),
                        to_xml_string(&doc),
                    );
                }
            }
        }
    }
}
