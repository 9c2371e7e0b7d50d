//! Integration smoke test for the `minctx` facade: the public API the
//! README-level rustdoc promises.

use minctx::prelude::*;

#[test]
fn quickstart_flow() {
    let doc = parse_xml("<a><b>1</b><b>2</b><c>3</c></a>").unwrap();
    let engine = Engine::new(Strategy::OptMinContext);
    let result = engine.evaluate_str(&doc, "/child::a/child::b").unwrap();
    let nodes = result.into_node_set().unwrap();
    assert_eq!(nodes.len(), 2);
}

#[test]
fn all_strategies_are_constructible_through_the_facade() {
    let doc = parse_xml("<a><b>5</b></a>").unwrap();
    for strategy in Strategy::ALL {
        let engine = Engine::new(strategy);
        let v = engine.evaluate_str(&doc, "sum(//b) = 5").unwrap();
        assert_eq!(v, Value::Boolean(true), "{strategy}");
    }
}

#[test]
fn errors_surface_through_the_facade() {
    let doc = parse_xml("<a/>").unwrap();
    let err = Engine::new(Strategy::MinContext)
        .evaluate_str(&doc, "count(")
        .unwrap_err();
    assert!(matches!(err, EvalError::Parse(_)));
}

#[test]
fn reexported_crates_compose() {
    use minctx::syntax::parse_xpath;
    use minctx::xml::axes::{Axis, NodeTest};

    let doc = parse_xml("<a><b/><c><b/></c></a>").unwrap();
    let bs = doc.axis_nodes(Axis::Descendant, doc.root(), &NodeTest::name("b"));
    assert_eq!(bs.len(), 2);

    let q = parse_xpath("//b").unwrap();
    let v = Engine::new(Strategy::MinContext)
        .evaluate(&doc, &q)
        .unwrap();
    assert_eq!(v.into_node_set().unwrap().len(), 2);
}

#[test]
fn explain_plan_rows_agree_with_count() {
    // The golden rows of `//item[@id]` that neither `explain`'s unit
    // tests nor the `Engine::explain` doctest pin: both step rows under
    // MINCONTEXT, and OPTMINCONTEXT's step row followed by its memo and
    // backward-pass lines.  Cardinalities come from `count()`.
    let doc = parse_xml(r#"<cat><item id="1"/><x><item id="2"/></x><item/></cat>"#).unwrap();
    let plan = |s: Strategy| {
        let engine = Engine::new(s).with_optimizer(true);
        let count = |q: &str| match engine.evaluate_str(&doc, q).unwrap() {
            Value::Number(n) => n,
            v => panic!("{q}: {v:?}"),
        };
        let counts = (count("count(//item)"), count("count(//item[@id])"));
        (
            engine.explain(&doc, "//item[@id]").unwrap().plan_text(),
            counts,
        )
    };
    let (text, (items, with_id)) = plan(Strategy::MinContext);
    let golden = format!(
        "plan\n  \
         [#2 step 0] descendant::item preds=1 mode=set route=postings calls=1 in=1 out={with_id}\n  \
         [#0 step 0] attribute::id route=walk calls={items} in={items} out={with_id}\n\
         memo "
    );
    assert!(text.contains(&golden), "{text}");
    let (text, _) = plan(Strategy::OptMinContext);
    let golden = format!(
        "plan\n  \
         [#2 step 0] descendant::item preds=1 mode=algebra route=postings calls=1 in=1 out={with_id}\n\
         memo hits=0 misses=1\n\
         backward passes=1\n"
    );
    assert!(text.contains(&golden), "{text}");
}
