//! Budget semantics across every strategy: exhaustion is an error, never
//! a panic or a wrong answer, and unmetered runs are unaffected.
//!
//! The fuel/deadline budget (PR 6) generalizes what used to be a
//! Naive-only step counter: all four arena strategies charge work
//! against a [`BudgetMeter`], so a serving loop can bound any
//! evaluation.  (The streaming engine's per-event metering is covered in
//! `crates/stream/tests/budget_stream.rs`.)

use minctx_core::{Budget, Context, Engine, EvalError, Exhausted, Strategy, Value};
use minctx_xml::parse;
use std::time::Duration;

/// `//b` followed by `i` copies of `/parent::a/child::b` — the Section-1
/// family; exponential for Naive, merely step-linear for the rest.
fn family(i: usize) -> String {
    let mut q = String::from("//b");
    for _ in 0..i {
        q.push_str("/parent::a/child::b");
    }
    q
}

/// A document big enough that every strategy must spend hundreds of
/// units on the family query.
fn doc_xml() -> String {
    let mut s = String::from("<a>");
    for _ in 0..200 {
        s.push_str("<b>1</b>");
    }
    s.push_str("</a>");
    s
}

#[test]
fn every_strategy_exhausts_a_tiny_fuel_budget() {
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        // Optimizer pinned off: the rewrite pipeline fuses the
        // parent/child round trips away, and a collapsed `//b` is cheap
        // enough for MINCONTEXT to finish inside even this tiny budget.
        let err = Engine::new(s)
            .with_optimizer(false)
            .with_budget(50)
            .evaluate_str(&doc, &family(10))
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExhausted {
                cause: Exhausted::Fuel { fuel: 50 }
            },
            "strategy {s}"
        );
    }
}

#[test]
fn every_strategy_honors_an_expired_deadline() {
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        let err = Engine::new(s)
            .with_timeout(Duration::ZERO)
            .evaluate_str(&doc, &family(10))
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExhausted {
                cause: Exhausted::Deadline
            },
            "strategy {s}"
        );
    }
}

#[test]
fn sufficient_fuel_changes_nothing() {
    // With enough fuel the metered answer is bit-identical to the
    // unmetered one, for every strategy and an assortment of queries.
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        for q in [
            "count(//b)",
            "/a/b[position() = 2]",
            "boolean(//b)",
            "sum(//b) + count(/a/*)",
        ] {
            let unmetered = Engine::new(s).evaluate_str(&doc, q).unwrap();
            let metered = Engine::new(s)
                .with_budget(100_000_000)
                .with_timeout(Duration::from_secs(600))
                .evaluate_str(&doc, q)
                .unwrap();
            assert_eq!(unmetered, metered, "strategy {s} query {q}");
        }
    }
}

#[test]
fn optmincontext_backward_pass_is_metered() {
    // The backward-propagation path does O(|D|) preimage sweeps; a fuel
    // budget smaller than the document must trip inside it rather than
    // letting the pass run for free.
    let doc = parse(&doc_xml()).unwrap();
    let e = Engine::new(Strategy::OptMinContext).with_budget(20);
    let err = e.evaluate_str(&doc, "/a/b[. = 'x']").unwrap_err();
    assert!(
        matches!(err, EvalError::BudgetExhausted { .. }),
        "got {err:?}"
    );
}

#[test]
fn backward_preimages_are_charged_for_what_they_touch() {
    // The preimage kernels under a backward pass walk from the targets;
    // their fuel is the targets going in and the preimage coming out, not
    // one |D| per call: three `@id`s and two steps up a 5 000-node document
    // cost a few dozen units, and a budget of |D|/10 is plenty.
    let mut xml = String::from("<r><a>");
    for i in 0..10 {
        let id = if i < 3 { " id=\"k\"" } else { "" };
        xml.push_str(&format!("<e{id}><f/></e>"));
    }
    xml.push_str("</a>");
    xml.push_str(&"<x/>".repeat(5_000));
    xml.push_str("</r>");
    let doc = parse(&xml).unwrap();
    let engine = Engine::new(Strategy::OptMinContext);
    for (q, want) in [("count(/r/a/e[@id])", 3.0), ("count(/r/a[e/@id])", 1.0)] {
        let plan = engine.explain(&doc, q).unwrap();
        assert_eq!(plan.backward_passes, 1, "{q}");
        let spent = plan.fuel_spent;
        assert!(spent < 100, "{q}: spent {spent} on {} nodes", doc.len());
        let capped = engine.clone().with_budget(doc.len() as u64 / 10);
        assert_eq!(capped.evaluate_str(&doc, q), Ok(Value::Number(want)), "{q}");
    }
    // The three preimages that still scan the arena are charged for it.
    let spent = engine
        .explain(&doc, "count(/r/a[following::x])")
        .unwrap()
        .fuel_spent;
    assert!(spent > doc.len() as u64, "spent {spent}");
}

#[test]
fn exhaustion_is_not_sticky_across_evaluations() {
    // Each evaluation gets a fresh meter: after one exhausted run the
    // next (cheap) query on the same engine succeeds.
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        let e = Engine::new(s).with_budget(2_000);
        let _ = e.evaluate_str(&doc, &family(10));
        assert_eq!(
            e.evaluate_str(&doc, "count(/a)").unwrap(),
            Value::Number(1.0),
            "strategy {s}"
        );
    }
}

/// 300 elements, every third carrying `@id`: `count(//*[@id])` filters a
/// 301-candidate set (the elements plus the root element).
fn id_doc() -> minctx_xml::Document {
    let mut s = String::from("<r>");
    for i in 0..300 {
        if i % 3 == 0 {
            s.push_str(&format!("<e id=\"i{i}\"/>"));
        } else {
            s.push_str("<e/>");
        }
    }
    s.push_str("</r>");
    parse(&s).unwrap()
}

#[test]
fn set_filtered_predicates_are_metered_per_candidate() {
    // The set-at-a-time predicate path charges per candidate filtered and
    // per sweep: a fuel cap below the candidate count is an error — never
    // a short count — whatever the cap, and enough fuel changes nothing.
    let doc = id_doc();
    let q = "count(//*[@id])";
    for s in [Strategy::MinContext, Strategy::OptMinContext] {
        for optimize in [false, true] {
            let engine = Engine::new(s).with_optimizer(optimize);
            let unmetered = engine.evaluate_str(&doc, q).unwrap();
            assert_eq!(unmetered, Value::Number(100.0), "{s}");
            for fuel in [0, 1, 7, 50, 150, 299] {
                let err = engine
                    .clone()
                    .with_budget(fuel)
                    .evaluate_str(&doc, q)
                    .unwrap_err();
                assert_eq!(
                    err,
                    EvalError::BudgetExhausted {
                        cause: Exhausted::Fuel { fuel }
                    },
                    "{s} optimize={optimize} fuel={fuel}"
                );
            }
            let metered = engine
                .clone()
                .with_budget(100_000_000)
                .with_timeout(Duration::from_secs(600))
                .evaluate_str(&doc, q)
                .unwrap();
            assert_eq!(unmetered, metered, "{s} optimize={optimize}");
            // A deadline that has already passed trips too.
            let err = engine
                .clone()
                .with_timeout(Duration::ZERO)
                .evaluate_str(&doc, q)
                .unwrap_err();
            assert_eq!(
                err,
                EvalError::BudgetExhausted {
                    cause: Exhausted::Deadline
                },
                "{s} optimize={optimize}"
            );
        }
    }
}

#[test]
fn set_filter_and_origin_pruning_charge_their_own_work() {
    // Fuel that covers the axis sweeps but not the filtering that follows
    // must trip *inside* the set filter / the pruning sweep: the answer is
    // an error at every cap below the unmetered run's spend, and the very
    // next unit of fuel succeeds with the unmetered answer.
    let doc = id_doc();
    for s in [Strategy::MinContext, Strategy::OptMinContext] {
        for q in [
            "count(//*[@id or not(self::e)])",
            "count(//e[@id][2])",
            "count(//*[@id][last()])",
        ] {
            let engine = Engine::new(s);
            let want = engine.evaluate_str(&doc, q).unwrap();
            let spent = engine.explain(&doc, q).unwrap().fuel_spent;
            // 402 nodes: the cheapest of the six runs spends 1 409.
            assert!(spent > 1_400, "{s} {q}: sweep + filter spend, got {spent}");
            for fuel in [302, 1_400, spent - 1] {
                assert!(
                    matches!(
                        engine.clone().with_budget(fuel).evaluate_str(&doc, q),
                        Err(EvalError::BudgetExhausted { .. })
                    ),
                    "{s} {q} fuel={fuel} of {spent}"
                );
            }
            let exact = engine.clone().with_budget(spent).evaluate_str(&doc, q);
            assert_eq!(exact, Ok(want), "{s} {q}");
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "gate-sized documents are minutes-long under the interpreter"
)]
fn budget_outcomes_do_not_depend_on_the_thread_count() {
    // `with_threads(n)` only cuts kernel scans into ranges; nothing is
    // charged per range and no fuel is set aside per worker.  So at every
    // cap — well under, one unit short of, exactly at and above what the
    // sequential run spends — a threaded engine returns the same
    // Ok/BudgetExhausted *and* leaves the same `BudgetMeter::spent`.
    // The document's arena is past the kernels' size gate (2¹⁹ scanned
    // items; attributes pad it without adding origins), so the threaded
    // runs really do cut a scan — the last query's `following::*` from the
    // person set, that is: the sibling-ranked `//t[k]` shapes sweep
    // postings far below the gate, and a `child::*` step walks.
    let pad: String = (0..24).map(|k| format!(" a{k}=\"{k}\"")).collect();
    let mut xml = String::from("<site>");
    for i in 0..19_000 {
        let id = if i % 3 == 0 { "" } else { " id=\"x\"" };
        xml.push_str(&format!("<item{id} v=\"{i}\"{pad}><keyword/>t</item>"));
        if i % 9 == 0 {
            xml.push_str(&format!("<person id=\"p{i}\"/>"));
        }
    }
    xml.push_str("</site>");
    let doc = parse(&xml).unwrap();
    assert!(doc.len() > 524_288);
    let ctx = Context::document(&doc);
    let chunks_before = minctx_xml::par::par_chunks_dispatched();
    for s in [Strategy::MinContext, Strategy::OptMinContext] {
        let engines: Vec<Engine> = [1, 2, 4]
            .into_iter()
            .map(|t| Engine::new(s).with_threads(t))
            .collect();
        for q in [
            "//item[position() = last()]",
            "//item[@id][2]",
            "//person[position() mod 2 = 1]/@id",
            "//item/*[last()]",
            "(//person/following::*)[last()]",
        ] {
            let query = minctx_syntax::parse_xpath(q).unwrap();
            let run = |engine: &Engine, budget: Budget| {
                let mut meter = budget.meter();
                let compiled = engine.compile(&doc, &query);
                let result = engine.evaluate_compiled_metered(&doc, &compiled, ctx, &mut meter);
                (result, meter.spent())
            };
            let (want, spend) = run(&engines[0], Budget::UNLIMITED);
            assert!(want.is_ok() && spend > 10_000, "{s} {q}: spent {spend}");
            for cap in [spend / 3, spend - 1, spend, spend + 1] {
                let sequential = run(&engines[0], Budget::fuel(cap));
                assert_eq!(sequential.0.is_ok(), cap >= spend, "{s} {q} cap={cap}");
                for engine in &engines[1..] {
                    let threaded = run(engine, Budget::fuel(cap));
                    let t = engine.threads();
                    assert_eq!(threaded, sequential, "{s} {q} cap={cap} of {spend} t={t}");
                }
            }
        }
    }
    assert!(
        minctx_xml::par::par_chunks_dispatched() > chunks_before,
        "no scan was cut: the document is below the kernels' gate"
    );
}
