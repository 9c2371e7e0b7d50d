//! The parser's length and depth bounds, end to end: hostile queries come
//! back as typed errors from every strategy and from a serve ticket (no
//! stack overflow, no panic, workers alive), and a query *at* the depth
//! limit runs through every recursive walk over the tree — parser,
//! normalizer, lowering, rewriter, compilation, each evaluator, EXPLAIN,
//! the stream compiler, `Drop` — in a debug build on a 2 MiB stack.

use minctx::prelude::*;
use minctx::syntax::{ParseErrorKind, MAX_QUERY_DEPTH, MAX_QUERY_LEN};
use std::sync::Arc;
use std::time::Duration;

/// `shape(d)`: a query nesting (or chaining) one construct `d` times.
type Shape = fn(usize) -> String;

/// One nesting construct per shape.
const SHAPES: [(&str, Shape); 12] = [
    ("parentheses", |d| {
        format!("{}1{}", "(".repeat(d), ")".repeat(d))
    }),
    ("predicates", |d| {
        format!("{}a{}", "a[".repeat(d), "]".repeat(d))
    }),
    ("unary minus", |d| format!("{}1", "-".repeat(d))),
    ("additive chain", |d| format!("1{}", "+1".repeat(d))),
    ("union chain", |d| format!("a{}", "|a".repeat(d))),
    ("or chain", |d| format!("a{}", " or a".repeat(d))),
    ("function arguments", |d| {
        format!("{}a{}", "not(".repeat(d), ")".repeat(d))
    }),
    ("filter starts", |d| {
        format!("{}//a{}", "(".repeat(d), ")[1]".repeat(d))
    }),
    ("positional predicates", |d| {
        format!("{}a{}", "a[position() = 1][".repeat(d), "]".repeat(d))
    }),
    ("counted predicates", |d| {
        format!("{}a{}", "a[count(".repeat(d), ") > 0]".repeat(d))
    }),
    // The two shapes on which the rewriter adds levels: every `a[p]/..`
    // flips to `self::node()[boolean(child::a[p])]`, two nodes on top of
    // `p` per nesting — and every `a[p]/ancestor::a` under a predicate
    // folds its tail into one more predicate.
    ("flipped predicates", |d| {
        format!("{}a/..{}", "a[".repeat(d), "]/..".repeat(d))
    }),
    ("folded reverse tails", |d| {
        format!("{}a{}", "a[".repeat(d), "]/ancestor::a".repeat(d))
    }),
];

/// The queries of ISSUE 16's regression list, and a few more.
fn bombs() -> Vec<(String, ParseErrorKind)> {
    let deep = ParseErrorKind::TooDeep {
        limit: MAX_QUERY_DEPTH,
    };
    let long = ParseErrorKind::TooLong {
        limit: MAX_QUERY_LEN,
    };
    let mut bombs = vec![
        (SHAPES[0].1(3_000), deep),
        (SHAPES[1].1(10_000), deep),
        (SHAPES[2].1(10_000), deep),
        (SHAPES[3].1(500_000), long),
        (SHAPES[3].1(10_000), deep),
        (format!("/{}", "a/".repeat(MAX_QUERY_LEN)), long),
    ];
    bombs.extend(SHAPES.iter().map(|(_, shape)| (shape(2_000), deep)));
    bombs
}

fn refused(err: &EvalError, want: ParseErrorKind, query: &str) {
    let EvalError::Parse(e) = err else {
        panic!("not a parse error: {err}");
    };
    assert_eq!(e.kind, want, "{e}");
    assert!(e.offset <= query.len(), "{e}");
    assert!(e.to_string().contains("XPath parse error"), "{e}");
}

#[test]
fn hostile_queries_are_refused_with_a_typed_error_by_every_strategy() {
    let doc = parse_xml("<a><a><a/></a></a>").unwrap();
    for (query, want) in bombs() {
        for strategy in Strategy::ALL {
            let engine = Engine::new(strategy);
            refused(
                &engine.evaluate_str(&doc, &query).unwrap_err(),
                want,
                &query,
            );
            refused(&engine.explain(&doc, &query).unwrap_err(), want, &query);
        }
        let err = minctx::syntax::parse_xpath(&query).unwrap_err();
        assert_eq!(err.kind, want);
    }
}

#[test]
fn hostile_queries_resolve_their_ticket_and_leave_the_workers_alive() {
    let doc = Arc::new(parse_xml("<a><a><a/></a></a>").unwrap());
    let serve = ServeEngine::builder().workers(2).build();
    let corpus = || Corpus::Document(Arc::clone(&doc));
    let bombs = bombs();
    let tickets: Vec<Ticket> = bombs
        .iter()
        .map(|(query, _)| serve.query(corpus(), query))
        .collect();
    for (ticket, (query, want)) in tickets.into_iter().zip(&bombs) {
        match ticket.wait() {
            Err(ServeError::Eval(err)) => refused(&err, *want, query),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // Both workers are still there and still answer.
    let v = serve.query(corpus(), "count(//a)").wait().unwrap();
    assert_eq!(v, Value::Number(3.0));
    let stats = serve.stats();
    assert_eq!((stats.panics, stats.worker_respawns), (0, 0), "{stats:?}");
    assert_eq!(serve.live_workers(), 2);
}

/// Step chains as long as `MAX_QUERY_LEN` admits: no nesting, so nothing
/// refuses them, and each keeps one rewrite rule firing (or none) from one
/// end to the other.  The rewriter's own test counts its work on these;
/// here they go through everything else.
fn longest_chains() -> Vec<String> {
    let chain = |head: &str, link: &str| {
        let n = (MAX_QUERY_LEN - head.len()) / link.len();
        format!("{head}{}", link.repeat(n))
    };
    vec![
        chain(".", "/a"),
        chain(".", "//a"),
        chain(".", "/."),
        chain(".", "/a/.."),
        chain("", "//a[b]"),
        chain("", "/a[1=1]"),
        chain("", "/a/b[count(/c)>1]"),
    ]
}

#[test]
fn the_longest_step_chains_are_answered_or_run_out_of_budget() {
    let doc = Arc::new(parse_xml("<a><a><a/></a></a>").unwrap());
    let chains = longest_chains();
    let answered = |r: Result<Value, EvalError>, query: &str| match r {
        Ok(_) | Err(EvalError::BudgetExhausted { .. }) => {}
        Err(e) => panic!("{}…: {e}", &query[..24]),
    };
    for query in &chains {
        for strategy in Strategy::ALL {
            let engine = Engine::new(strategy).with_timeout(Duration::from_millis(250));
            answered(engine.evaluate_str(&doc, query), query);
        }
    }
    // Two workers, every chain in flight at once: each ticket resolves and
    // the light query behind them is answered by a worker that is still
    // there.
    let serve = ServeEngine::builder()
        .workers(2)
        .default_budget(Budget::timeout(Duration::from_millis(250)))
        .build();
    let corpus = || Corpus::Document(Arc::clone(&doc));
    let tickets: Vec<Ticket> = chains.iter().map(|q| serve.query(corpus(), q)).collect();
    for (ticket, query) in tickets.into_iter().zip(&chains) {
        match ticket.wait() {
            Ok(v) => answered(Ok(v), query),
            Err(ServeError::Eval(e)) => answered(Err(e), query),
            Err(e) => panic!("{}…: {e}", &query[..24]),
        }
    }
    let light = serve.query(corpus(), "count(//a)").wait();
    assert_eq!(light.unwrap(), Value::Number(3.0));
    let stats = serve.stats();
    assert_eq!((stats.panics, stats.worker_respawns), (0, 0), "{stats:?}");
    assert_eq!(serve.live_workers(), 2);
}

#[test]
fn queries_at_the_depth_limit_run_on_a_two_mebibyte_stack() {
    let at_limit = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            // Deep enough that nested predicates recurse all the way down.
            let depth = MAX_QUERY_DEPTH + 4;
            let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
            let doc = parse_xml(&xml).unwrap();
            for (name, shape) in SHAPES {
                let deepest = (1..)
                    .take_while(|&d| minctx::syntax::parse_xpath(&shape(d)).is_ok())
                    .last()
                    .expect("one level parses");
                assert!(
                    deepest + 2 >= MAX_QUERY_DEPTH / 3 && deepest <= MAX_QUERY_DEPTH,
                    "{name}: deepest accepted nesting is {deepest}"
                );
                let err = minctx::syntax::parse_xpath(&shape(deepest + 1)).unwrap_err();
                let limit = MAX_QUERY_DEPTH;
                assert_eq!(err.kind, ParseErrorKind::TooDeep { limit }, "{name}");
                let query = shape(deepest);
                for strategy in Strategy::ALL {
                    for optimize in [false, true] {
                        let engine = Engine::new(strategy)
                            .with_optimizer(optimize)
                            .with_budget(2_000_000);
                        match engine.evaluate_str(&doc, &query) {
                            Ok(_) | Err(EvalError::BudgetExhausted { .. }) => {}
                            Err(e) => panic!("{name} at {deepest} under {strategy}: {e}"),
                        }
                        engine.explain(&doc, &query).ok();
                    }
                }
                let parsed = minctx::syntax::parse_xpath(&query).unwrap();
                let streamed = Engine::new(Strategy::Streaming)
                    .with_budget(2_000_000)
                    .evaluate_reader_str(&parsed, &xml);
                assert!(
                    !matches!(streamed, Err(EvalError::Parse(_))),
                    "{name}: {streamed:?}"
                );
            }
        })
        .expect("spawn");
    at_limit.join().expect("no overflow, no panic");
}
