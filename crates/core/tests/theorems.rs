//! The paper's complexity claims as counted bounds.
//!
//! Gottlob, Koch and Pichler (ICDE 2003) make three claims, and this suite
//! checks each one by the fuel an evaluation spends
//! ([`BudgetMeter::spent`](minctx_core::BudgetMeter::spent)), never by a
//! clock:
//!
//! * **Section 1.** Context-at-a-time evaluation is exponential in the
//!   query: on `<a><b/><b/></a>` each `/parent::a/child::b` round trip of
//!   `//b/parent::a/child::b/…` doubles the work of [`Strategy::Naive`],
//!   while the polynomial strategies pay a constant per round trip.
//! * **The VLDB 2002 predecessor.** Context-value tables fill a cell for
//!   every context that *could* arise: a predicate reading `position()`
//!   and `last()` costs `|D|²` cells, one that also reads the context node
//!   `|D|³` — ×4 and ×8 per doubling of the document.
//! * **Theorems 7, 10 and 13.** MINCONTEXT touches only the contexts that
//!   do arise, so Core XPath, the Extended Wadler fragment and full XPath
//!   stay polynomial.  What is checked here is stronger than the
//!   theorems' polynomial bounds and weaker than a proof: on balanced
//!   binary trees every query of the three families spends at most ×2.3
//!   fuel per doubling of `|D|`, under MINCONTEXT and OPTMINCONTEXT, with
//!   the rewriter on and off; on deep chains OPTMINCONTEXT keeps Core
//!   XPath linear too.  (Plain MINCONTEXT does not: a per-node
//!   `descendant::` predicate walks each node's subtree, quadratic on a
//!   chain.  DESIGN.md "The paper's bounds, counted" lists every ratio.)
//!
//! Every engine pins [`Engine::with_optimizer`].  Every query is asserted
//! to select something on every document it is measured on, so no bound
//! holds vacuously on empty answers.

use minctx_bench::{
    exponential_doc, exponential_family, query_families, uniform_tree, CORE_XPATH_QUERIES,
    FULL_XPATH_QUERIES, WADLER_QUERIES,
};
use minctx_core::{Budget, Context, Engine, EvalError, Exhausted, Strategy, Value};
use minctx_xml::Document;

/// Evaluates `q` at the document root and returns the value and the fuel
/// it cost.
fn run(engine: &Engine, doc: &Document, q: &str) -> (Value, u64) {
    let query = minctx_syntax::parse_xpath(q).unwrap();
    let compiled = engine.compile(doc, &query);
    let mut meter = Budget::UNLIMITED.meter();
    let v = engine
        .evaluate_compiled_metered(doc, &compiled, Context::document(doc), &mut meter)
        .unwrap_or_else(|e| panic!("{} failed on {q:?}: {e}", engine.strategy()));
    (v, meter.spent())
}

/// Whether a value is a non-empty answer: some node, a true boolean, a
/// non-zero number, a non-empty string.
fn selects_something(v: &Value) -> bool {
    match v {
        Value::NodeSet(ns) => !ns.is_empty(),
        Value::Boolean(b) => *b,
        Value::Number(x) => *x != 0.0 && !x.is_nan(),
        Value::String(s) => !s.is_empty(),
    }
}

/// Fuel for `q` on each document, asserting a non-empty answer on each.
fn fuel_per_doc(engine: &Engine, docs: &[Document], q: &str) -> Vec<u64> {
    docs.iter()
        .map(|doc| {
            let (v, fuel) = run(engine, doc, q);
            assert!(
                selects_something(&v),
                "{} on {q:?} over {} nodes: empty answer {v:?}",
                engine.strategy(),
                doc.len()
            );
            fuel
        })
        .collect()
}

/// The fuel ratio between consecutive documents.
fn ratios(fuel: &[u64]) -> Vec<f64> {
    fuel.windows(2).map(|w| w[1] as f64 / w[0] as f64).collect()
}

/// Balanced binary trees of depth `depths`: each one has twice the nodes
/// of the one before (depth 6 is 319 nodes, depth 9 is 2 559).
fn balanced(depths: std::ops::RangeInclusive<usize>) -> Vec<Document> {
    depths.map(|d| uniform_tree(d, 2)).collect()
}

const LINEAR: f64 = 2.3;

fn families() -> impl Iterator<Item = &'static str> {
    CORE_XPATH_QUERIES
        .iter()
        .chain(WADLER_QUERIES)
        .chain(FULL_XPATH_QUERIES)
        .copied()
}

#[test]
fn mincontext_fuel_doubles_with_the_document_on_every_family() {
    // Theorems 7, 10 and 13: measured ×1.9–2.15 per doubling.
    let docs = balanced(6..=9);
    for q in families() {
        for s in [Strategy::MinContext, Strategy::OptMinContext] {
            for optimize in [true, false] {
                let engine = Engine::new(s).with_optimizer(optimize);
                let fuel = fuel_per_doc(&engine, &docs, q);
                for r in ratios(&fuel) {
                    assert!(
                        r <= LINEAR,
                        "{s} optimize={optimize} {q:?}: ×{r:.2} per doubling, fuel {fuel:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn mincontext_fuel_doubles_with_the_query_on_every_family() {
    // Theorems 7, 10 and 13 bound time in |Q| as well as |D|: at a fixed
    // document (511 elements, each with `@v`, and 256 texts), fuel per
    // doubling of k = 4 → 32 terms, measured ×1.70–2.06.  k stops at 32
    // under `MAX_QUERY_DEPTH`.  `Naive` is left out: Section 1 makes it
    // exponential in |Q| by design.
    let doc = uniform_tree(8, 2);
    let members = [4, 8, 16, 32].map(query_families);
    for (f, (family, _)) in members[0].iter().enumerate() {
        for s in [Strategy::MinContext, Strategy::OptMinContext] {
            for optimize in [true, false] {
                let engine = Engine::new(s).with_optimizer(optimize);
                let fuel: Vec<u64> = members
                    .iter()
                    .map(|m| fuel_per_doc(&engine, std::slice::from_ref(&doc), &m[f].1)[0])
                    .collect();
                for r in ratios(&fuel) {
                    assert!(
                        r <= LINEAR,
                        "{s} optimize={optimize} {family}: ×{r:.2} per doubling of k, \
                         fuel {fuel:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn optmincontext_keeps_core_xpath_linear_on_deep_chains() {
    // Chains of 100, 200 and 400 elements: satisfying sets answer the
    // `descendant::` and `ancestor::` predicates for all nodes at once.
    // Measured ×1.94–1.99 per doubling.  `[.//even]` too: from a wildcard
    // step the step starts from the predicate's satisfying set; from a
    // named one the predicate is one ancestor merge of the candidates
    // against the `even` postings, its cursor one witness a candidate
    // (×1.96–1.99).  The last two carry a predicate inside the predicate,
    // whose satisfying set is built once, innermost first (×1.97–2.00).
    // They stay out of `CORE_XPATH_QUERIES`, which plain MINCONTEXT's
    // balanced-tree test reads too.
    let docs: Vec<Document> = [100, 200, 400].map(|n| uniform_tree(n, 1)).into();
    let existence = [
        "//*[.//even]",
        "//odd[.//even]",
        "//even[not(descendant::odd)]",
        "//*[ancestor::*[even]]",
        "//odd[descendant::even[odd]]",
    ];
    for q in CORE_XPATH_QUERIES.iter().chain(&existence) {
        for optimize in [true, false] {
            let engine = Engine::new(Strategy::OptMinContext).with_optimizer(optimize);
            let fuel = fuel_per_doc(&engine, &docs, q);
            for r in ratios(&fuel) {
                assert!(
                    r <= LINEAR,
                    "optimize={optimize} {q:?}: ×{r:.2} per doubling, fuel {fuel:?}"
                );
            }
        }
    }
}

#[test]
fn optmincontext_keeps_nested_predicates_linear_on_balanced_trees() {
    // OPTMINCONTEXT only: plain MINCONTEXT evaluates `descendant::even[odd]`
    // once per `odd` candidate by design, ×2.31 per doubling at depth
    // 6 → 7, and stays the paper's algorithm and the independent check.
    // Under OPTMINCONTEXT the inner path is one satisfying set, not a start
    // from the inner predicate's set once per candidate, each charged that
    // whole set: measured ×1.98–2.00.
    let docs = balanced(6..=9);
    for q in [
        "//*[following-sibling::*[odd]]",
        "//odd[descendant::even[odd]]",
    ] {
        for optimize in [true, false] {
            let engine = Engine::new(Strategy::OptMinContext).with_optimizer(optimize);
            let fuel = fuel_per_doc(&engine, &docs, q);
            for r in ratios(&fuel) {
                assert!(
                    r <= LINEAR,
                    "optimize={optimize} {q:?}: ×{r:.2} per doubling, fuel {fuel:?}"
                );
            }
        }
    }
}

#[test]
fn a_per_candidate_ancestor_step_stays_linear() {
    // `//x[y/ancestor::a]`: MINCONTEXT evaluates `y/ancestor::a` once per
    // `x`, an ancestor step from that `x`'s `y`s with every `a` of the
    // document around them.  Fuel counts the sets, ×2.0 per doubling
    // measured.  What the ancestor kernel reads is not fuel; it is counted
    // on the same shape, per doubling too, by `minctx-xml`'s
    // `axes::tests::nested_ancestor_steps_cost_what_they_touch` (×2.1),
    // since that count is private to the crate.
    let unit = "<a><x><y/><b/><a><y/></a><y/></x></a><c/>";
    let docs: Vec<Document> = [250, 500, 1_000]
        .map(|n| minctx_xml::parse(&format!("<r>{}</r>", unit.repeat(n))).unwrap())
        .into();
    let q = "//x[y/ancestor::a]";
    for s in [Strategy::MinContext, Strategy::OptMinContext] {
        for optimize in [true, false] {
            let engine = Engine::new(s).with_optimizer(optimize);
            let fuel = fuel_per_doc(&engine, &docs, q);
            for r in ratios(&fuel) {
                assert!(
                    r <= LINEAR,
                    "{s} optimize={optimize}: ×{r:.2} per doubling, fuel {fuel:?}"
                );
            }
        }
    }
}

#[test]
fn context_value_tables_pay_for_every_position_and_size() {
    let cvt = Engine::new(Strategy::ContextValueTable).with_optimizer(true);
    // A predicate reading `position()` and `last()` fills one cell per
    // (position, size) pair: ×4 per doubling in the limit, measured
    // ×3.8–3.9 on 79 → 319 nodes.
    let docs = balanced(4..=6);
    let reads_last: Vec<&str> = WADLER_QUERIES
        .iter()
        .copied()
        .filter(|q| q.contains("last()"))
        .collect();
    assert_eq!(reads_last.len(), 3);
    for q in reads_last {
        let fuel = fuel_per_doc(&cvt, &docs, q);
        for r in ratios(&fuel) {
            assert!(r >= 3.5, "{q:?}: ×{r:.2} per doubling, fuel {fuel:?}");
        }
    }
    // The running example E also reads the context node: one cell per
    // (node, position, size), ×8 per doubling, measured ×8.0 on 39 → 159
    // nodes (319 would fill 1.6·10⁷ cells).
    let e = FULL_XPATH_QUERIES[0];
    assert_eq!(
        e,
        "/descendant::*[position() > last()*0.5 or self::* = 100]"
    );
    let fuel = fuel_per_doc(&cvt, &balanced(3..=5), e);
    for r in ratios(&fuel) {
        assert!(r >= 7.0, "E: ×{r:.2} per doubling, fuel {fuel:?}");
    }
}

/// The Section-1 family's fuel for members `0..=max`, each asserted to
/// select both `<b>`s.
fn family_fuel(engine: &Engine, max: usize) -> Vec<u64> {
    let doc = exponential_doc();
    (0..=max)
        .map(|i| {
            let (v, fuel) = run(engine, &doc, &exponential_family(i));
            assert_eq!(v.into_node_set().unwrap().len(), 2, "i={i}");
            fuel
        })
        .collect()
}

const BUDGET: u64 = 200_000;

#[test]
fn naive_agrees_on_small_members_of_the_family() {
    let doc = exponential_doc();
    for i in 0..6 {
        for s in Strategy::ALL {
            for optimize in [true, false] {
                let v = Engine::new(s)
                    .with_optimizer(optimize)
                    .with_budget(Budget::fuel(BUDGET))
                    .evaluate_str(&doc, &exponential_family(i))
                    .unwrap();
                assert_eq!(v.into_node_set().unwrap().len(), 2, "{s} at i={i}");
            }
        }
    }
}

#[test]
fn naive_work_doubles_per_round_trip() {
    // Counted: from the second round trip on, each one at least doubles
    // Naive's fuel less a constant (measured 22, 42, 82, … = 2ⁱ·10 + 2).
    let naive = Engine::new(Strategy::Naive).with_optimizer(false);
    let fuel = family_fuel(&naive, 12);
    for (i, r) in ratios(&fuel).into_iter().enumerate().skip(1) {
        assert!(r >= 1.9, "round trip {}: ×{r:.2}, fuel {fuel:?}", i + 1);
    }
    // And under a budget: the first member the budget cannot cover must be
    // far below the sizes the polynomial strategies handle, and the
    // failure must be the budget guard, not a wrong answer.
    let doc = exponential_doc();
    let capped = naive.with_budget(Budget::fuel(BUDGET));
    let blew_up_at = (0..64).find(|&i| {
        matches!(
            capped.evaluate_str(&doc, &exponential_family(i)),
            Err(EvalError::BudgetExhausted { .. })
        )
    });
    let i = blew_up_at.expect("naive never exceeded its budget — lost its exponential blow-up?");
    // 2^i contexts ≈ budget ⇒ i ≈ log2(200_000) ≈ 17; allow slack for
    // constant factors but insist the blow-up is exponential-fast.
    assert!(
        (8..=24).contains(&i),
        "naive budget blow-up at unexpected query size i={i}"
    );
}

#[test]
fn polynomial_strategies_pay_a_constant_per_round_trip() {
    // Measured +8 per round trip under each of the three: one unit per
    // step, one per context node in, one per node out.
    for s in [
        Strategy::ContextValueTable,
        Strategy::MinContext,
        Strategy::OptMinContext,
    ] {
        let fuel = family_fuel(&Engine::new(s).with_optimizer(false), 12);
        let steps: Vec<u64> = fuel.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            steps.iter().all(|&d| d == steps[0]) && (1..=16).contains(&steps[0]),
            "{s}: fuel {fuel:?} is not affine in the round trips"
        );
    }
}

#[test]
fn polynomial_strategies_sail_through_much_larger_members() {
    let doc = exponential_doc();
    // 60 round trips = 121 steps; naive would need ~2^60 work units.
    let q = exponential_family(60);
    for s in [
        Strategy::ContextValueTable,
        Strategy::MinContext,
        Strategy::OptMinContext,
    ] {
        for optimize in [true, false] {
            let engine = Engine::new(s).with_optimizer(optimize);
            let v = engine.evaluate_str(&doc, &q).unwrap();
            assert_eq!(v.into_node_set().unwrap().len(), 2, "{s}");
        }
    }
}

#[test]
fn budget_error_reports_the_configured_budget() {
    let err = Engine::new(Strategy::Naive)
        .with_optimizer(false)
        .with_budget(Budget::fuel(1_000))
        .evaluate_str(&exponential_doc(), &exponential_family(30))
        .unwrap_err();
    assert_eq!(
        err,
        EvalError::BudgetExhausted {
            cause: Exhausted::Fuel { fuel: 1_000 }
        }
    );
}
