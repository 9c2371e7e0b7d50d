//! Randomized rewrite-soundness property tests.
//!
//! A seeded generator (xorshift, like `crates/xml/tests/axis_property.rs`)
//! emits step chains — with and without positional predicates, with
//! explicit `descendant-or-self::node()` steps to tempt the fuser, reverse
//! axes, `parent::node()` suffixes, constant subexpressions, and duplicated
//! union branches — and every query is evaluated on random documents under
//! all four strategies with the rewrite pipeline off and on.  All answers
//! must coincide: the raw naive evaluator is the semantics oracle, and any
//! unsound pass (fusing past a positional predicate, dropping a non-total
//! step, hoisting a context-dependent predicate, interning distinct nodes)
//! shows up as a divergence on some seed.
//!
//! Every generated query is also rewritten twice: one call must reach the
//! fixpoint (rewriting its result fires nothing and changes nothing), in
//! at most two arena traversals, and leave a canonical arena.

use minctx_bench::{values_agree, xorshift};
use minctx_core::{rewrite_traced, Engine, EvalError, Strategy, Value};
use minctx_syntax::{parse_xpath, Query};
use minctx_xml::{Document, DocumentBuilder};

fn pick<'a>(rng: &mut u64, pool: &[&'a str]) -> &'a str {
    pool[xorshift(rng) as usize % pool.len()]
}

const LABELS: &[&str] = &["a", "b", "c", "d"];

/// A random nested document over a 4-letter alphabet with attributes and
/// text, kept small: the raw naive evaluator must survive 4-step chains of
/// `descendant-or-self::node()` steps within its budget.
fn random_doc(seed: u64, target: usize) -> Document {
    let mut rng = seed | 1;
    let mut b = DocumentBuilder::new();
    let mut open = 1usize;
    let mut made = 1usize;
    b.start_element("r", &[]);
    while made < target {
        match xorshift(&mut rng) % 5 {
            // Close one level (keep the root open).
            0 if open > 1 => {
                b.end_element();
                open -= 1;
            }
            1 => {
                b.text(pick(&mut rng, &["v", "x", "1", "2.5", ""]));
                made += 1;
            }
            _ => {
                let label = pick(&mut rng, LABELS);
                let with_attr = xorshift(&mut rng) % 3 == 0;
                if with_attr {
                    b.start_element(label, &[(pick(&mut rng, &["p", "q"]), "v")]);
                } else {
                    b.start_element(label, &[]);
                }
                open += 1;
                made += 1;
            }
        }
    }
    for _ in 0..open {
        b.end_element();
    }
    b.finish().expect("random doc is well-formed")
}

/// One random step: axis, test, 0–2 predicates.
fn random_step(rng: &mut u64) -> String {
    // descendant-or-self::node() is over-weighted: it is the shape the
    // fusion pass exists for.
    let axis_test = match xorshift(rng) % 12 {
        0..=2 => "descendant-or-self::node()".to_string(),
        3 => format!("descendant::{}", pick(rng, LABELS)),
        4 => "parent::node()".to_string(),
        5 => format!("ancestor::{}", pick(rng, &["a", "b", "*"])),
        6 => pick(
            rng,
            &[
                "preceding-sibling::*",
                "following-sibling::*",
                "preceding::b",
                "following::c",
                "ancestor-or-self::node()",
                "self::node()",
                "self::a",
                "@p",
                "@*",
                "text()",
            ],
        )
        .to_string(),
        _ => format!("child::{}", pick(rng, &["a", "b", "c", "d", "*"])),
    };
    let mut step = axis_test;
    // 0, 1 or 2 predicates — two-predicate steps exercise the mixed
    // positional/non-positional fusion veto and hoist ordering.
    let npreds = match xorshift(rng) % 8 {
        0..=3 => 0,
        4 | 5 => 1,
        _ => 2,
    };
    for _ in 0..npreds {
        step.push_str(pick(
            rng,
            &[
                // Positional predicates: fusion and hoisting must refuse.
                "[1]",
                "[2]",
                "[last()]",
                "[position() != last()]",
                "[position() mod 2 = 1]",
                // Existential / comparison predicates (position-free).
                "[b]",
                "[a/b]",
                "[@p]",
                "[ancestor::b]",
                "[c[d]/ancestor::a]",
                "[b/descendant-or-self::node()]",
                "[a/parent::node()]",
                "[. = 'v']",
                "[count(b) > 1]",
                "[not(d)]",
                // Constant predicates: folding and hoisting targets.
                "[true()]",
                "[1 = 1]",
                "[3 > 2 + 0]",
                "[count(/r) = 1]",
                "[string-length('ab') = 2]",
            ],
        ));
    }
    step
}

fn random_query(rng: &mut u64) -> String {
    let mut q = String::new();
    if xorshift(rng) % 2 == 0 {
        q.push('/');
    }
    let steps = 1 + (xorshift(rng) % 4) as usize;
    for i in 0..steps {
        if i > 0 {
            q.push('/');
        }
        q.push_str(&random_step(rng));
    }
    match xorshift(rng) % 6 {
        0 => format!("count({q})"),
        1 => format!("boolean({q})"),
        // Duplicated branches: the CSE/interning target.
        2 => format!("{q} | {q}"),
        3 => format!("string({q})"),
        _ => q,
    }
}

/// Naive can hit its guard budget on deep dos-chains; that is not a
/// divergence, just an expensive query — skip those outcomes.
fn eval(e: &Engine, doc: &Document, q: &str) -> Option<Value> {
    match e.evaluate_str(doc, q) {
        Ok(v) => Some(v),
        Err(EvalError::BudgetExhausted { .. }) => None,
        Err(e) => panic!("{q:?}: {e}"),
    }
}

/// A random boolean predicate tree: `and` / `or` / `not` over
/// position-free atoms (existence, comparison, count, a context-free
/// absolute path) — the shapes MINCONTEXT filters set-at-a-time.
fn random_pred(rng: &mut u64, depth: usize) -> String {
    if depth == 0 || xorshift(rng) % 3 == 0 {
        return pick(
            rng,
            &[
                "b",
                "@p",
                "a/b",
                ". = 'v'",
                "@q = 'v'",
                "text() > 1",
                "count(*) > 1",
                "ancestor::a",
                "following-sibling::*",
                "c[d]",
                "//d/@q",
                "true()",
            ],
        )
        .to_string();
    }
    let a = random_pred(rng, depth - 1);
    match xorshift(rng) % 3 {
        0 => format!("not({a})"),
        1 => format!("({a} and {})", random_pred(rng, depth - 1)),
        _ => format!("({a} or {})", random_pred(rng, depth - 1)),
    }
}

/// A boolean predicate tree on a step whose candidates are reached from
/// many (often overlapping) origins, alone, beside a positional
/// predicate on either side, nested inside another predicate, or on a
/// `(…)[p]` filter start.
fn random_boolean_tree_query(rng: &mut u64) -> String {
    let step = pick(
        rng,
        &[
            "//*",
            "//a",
            "//*/b",
            "//b/ancestor::*",
            "//c/following::*",
            "//a/descendant-or-self::node()",
            "//@*",
            "//*/preceding-sibling::*",
        ],
    );
    let p = random_pred(rng, 3);
    match xorshift(rng) % 6 {
        0 => format!("{step}[{p}][2]"),
        1 => format!("{step}[last()][{p}]"),
        2 => format!("//*[{}[{p}]]", step.trim_start_matches("//")),
        3 => format!("({step})[{p}]"),
        4 => format!("count({step}[{p}])"),
        _ => format!("{step}[{p}]"),
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

/// Every strategy with the rewrite pipeline off and on; raw naive (the
/// semantics oracle) first, under a guard budget.
fn engines() -> Vec<Engine> {
    let mut engines = Vec::new();
    for s in Strategy::ALL {
        for optimize in [false, true] {
            let mut e = Engine::new(s).with_optimizer(optimize);
            if s == Strategy::Naive {
                e = e.with_budget(3_000_000);
            }
            engines.push(e);
        }
    }
    engines
}

/// Asserts that every engine that answers `q` gives the same answer.
fn assert_all_agree(engines: &[Engine], doc: &Document, q: &str, seed: u64) {
    let mut baseline: Option<Value> = None;
    for e in engines {
        let Some(v) = eval(e, doc, q) else { continue };
        match &baseline {
            None => baseline = Some(v),
            Some(b) => assert!(
                values_agree(b, &v),
                "seed {seed}: {} (optimize={}) diverges on {q:?}:\n  baseline: {b:?}\n  got: {v:?}",
                e.strategy(),
                e.optimizer(),
            ),
        }
    }
    assert!(baseline.is_some(), "seed {seed}: no engine answered {q:?}");
}

#[test]
fn boolean_predicate_trees_agree_across_strategies() {
    let engines = engines();
    let mut non_empty = 0usize;
    for seed in 1..=6u64 {
        let doc = random_doc(
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d),
            30 + seed as usize * 4,
        );
        let mut rng = seed ^ 0xb001_ea17;
        for _ in 0..50 {
            let q = random_boolean_tree_query(&mut rng);
            rewritten_once_is_the_fixpoint(&q);
            assert_all_agree(&engines, &doc, &q, seed);
            let opt = engines.last().expect("eight engines");
            non_empty += match eval(opt, &doc, &q) {
                Some(Value::NodeSet(ns)) => usize::from(!ns.is_empty()),
                Some(Value::Number(n)) => usize::from(n > 0.0),
                _ => 0,
            };
        }
    }
    // Agreement on empty answers proves little: a fair share must select
    // something.
    assert!(
        non_empty >= 100,
        "only {non_empty}/300 tree queries were non-empty"
    );
}

#[test]
fn raw_and_rewritten_agree_on_random_queries_and_documents() {
    let mut rewrites = 0usize;
    let mut total = 0usize;
    let engines = engines();
    for seed in 1..=8u64 {
        let doc = random_doc(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            25 + seed as usize * 5,
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
    use minctx_core::Context;
    for seed in [3u64, 17] {
        let doc = random_doc(seed.wrapping_mul(0xdead_beef), 30);
        for q in queries {
            let query = parse_xpath(q).unwrap();
            for node in doc.all_nodes().filter(|&n| doc.kind(n).is_element()) {
                let ctx = Context::at(node);
                let mut first: Option<Value> = None;
                for s in Strategy::ALL {
                    for optimize in [false, true] {
                        let v = Engine::new(s)
                            .with_optimizer(optimize)
                            .evaluate_at(&doc, &query, ctx)
                            .unwrap_or_else(|e| panic!("{s} on {q:?}: {e}"));
                        match &first {
                            None => first = Some(v),
                            Some(b) => assert!(
                                values_agree(b, &v),
                                "seed {seed}: {s} optimize={optimize} at {node} on {q:?}: {b:?} vs {v:?}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// Every positional shape the sibling-rank route (and the `//` elision in
/// front of it) takes, plus the neighbours it must leave alone: per-origin
/// axes and `(…)[k]` filter starts.
fn positional_queries() -> Vec<String> {
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
        ]);
    }
    queries.push("//text()[last()]".to_string());
    queries.push("//*[2]/*[last()]/node()[1]".to_string());
    queries
}

#[test]
fn positional_steps_agree_with_naive_across_the_lattice() {
    let naive = Engine::new(Strategy::Naive).with_budget(20_000_000);
    let queries = positional_queries();
    for q in &queries {
        rewritten_once_is_the_fixpoint(q);
    }
    let mut non_empty = 0usize;
    for seed in 1..=5u64 {
        let owned = random_doc(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            40 + seed as usize * 8,
        );
        let path = std::env::temp_dir().join(format!(
            "minctx-positional-{}-{seed}.mctx",
            std::process::id()
        ));
        minctx_core::write_snapshot(&owned, &path).expect("write_snapshot");
        let mapped = minctx_core::open_snapshot(&path).expect("open_snapshot");
        std::fs::remove_file(&path).ok();
        for q in &queries {
            let want = eval(&naive, &owned, q).expect("naive answers within its guard budget");
            non_empty += usize::from(want.as_node_set().is_some_and(|ns| !ns.is_empty()));
            for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
                for optimize in [false, true] {
                    for threads in [1, 2, 4] {
                        let engine = Engine::new(strategy)
                            .with_optimizer(optimize)
                            .with_threads(threads);
                        for (store, doc) in [("owned", &owned), ("mapped", &mapped)] {
                            let got = engine.evaluate_str(doc, q).expect("evaluates");
                            assert!(
                                values_agree(&want, &got),
                                "seed {seed}: {strategy} optimize={optimize} threads={threads} \
                                 {store} diverges from naive on {q:?}:\n  naive: {want:?}\n  got: {got:?}",
                            );
                        }
                    }
                }
            }
        }
    }
    // Agreement on empty answers proves little.
    assert!(
        non_empty * 2 >= queries.len() * 5,
        "only {non_empty} of {} answers were non-empty",
        queries.len() * 5
    );
}
