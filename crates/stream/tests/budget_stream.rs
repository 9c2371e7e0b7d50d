//! Budget metering on the streaming path: the one-pass engine charges
//! per event, so fuel and deadline budgets bound how much of a stream is
//! read — `BudgetExhausted`, never a hang or a wrong partial answer.

use minctx_core::{Budget, Engine, EvalError, Exhausted, Strategy};
use minctx_stream::{StreamValue, StreamingEngine};
use minctx_syntax::parse_xpath;
use std::time::Duration;

fn big_xml(items: usize) -> String {
    let mut s = String::from("<a>");
    for i in 0..items {
        s.push_str(&format!("<b i=\"{i}\">x</b>"));
    }
    s.push_str("</a>");
    s
}

#[test]
fn streaming_exhausts_a_tiny_fuel_budget() {
    let xml = big_xml(500);
    let q = parse_xpath("count(//b)").unwrap();
    let e = Engine::new(Strategy::Streaming).with_budget(Budget::fuel(40));
    let err = e.evaluate_reader_str(&q, &xml).unwrap_err();
    assert_eq!(
        err,
        EvalError::BudgetExhausted {
            cause: Exhausted::Fuel { fuel: 40 }
        }
    );
    // The reader path meters identically.
    let err = e.evaluate_reader(&q, xml.as_bytes()).unwrap_err();
    assert!(matches!(err, EvalError::BudgetExhausted { .. }));
}

#[test]
fn streaming_honors_an_expired_deadline() {
    let xml = big_xml(500);
    let q = parse_xpath("count(//b)").unwrap();
    let e = Engine::new(Strategy::Streaming).with_budget(Budget::timeout(Duration::ZERO));
    let err = e.evaluate_reader_str(&q, &xml).unwrap_err();
    assert_eq!(
        err,
        EvalError::BudgetExhausted {
            cause: Exhausted::Deadline
        }
    );
}

#[test]
fn sufficient_fuel_streams_to_the_same_answer() {
    let xml = big_xml(100);
    let q = parse_xpath("count(//b[@i])").unwrap();
    let unmetered = Engine::new(Strategy::Streaming)
        .evaluate_reader_str(&q, &xml)
        .unwrap();
    let metered = Engine::new(Strategy::Streaming)
        .with_budget(Budget::fuel(1_000_000).with_timeout(Duration::from_secs(600)))
        .evaluate_reader_str(&q, &xml)
        .unwrap();
    assert_eq!(unmetered.streamed(), metered.streamed());
    assert_eq!(metered.streamed(), Some(&StreamValue::Number(100.0)));
}

#[test]
fn short_circuit_beats_the_meter() {
    // An existence query answered by the first element never reads (or
    // charges) the rest of the stream: tiny fuel is still enough.
    let xml = big_xml(500);
    let q = parse_xpath("boolean(//b)").unwrap();
    let e = Engine::new(Strategy::Streaming).with_budget(Budget::fuel(40));
    let out = e.evaluate_reader_str(&q, &xml).unwrap();
    assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
}

#[test]
fn a_negated_guard_stops_the_stream_when_its_element_closes() {
    // `[not(@id)]` is decided when the first `item` closes, four events
    // in: the existence query stops there, and a budget that covers
    // those events is enough for a text of a thousand more.
    let xml = format!("<a><item>x</item>{}</a>", big_xml(500));
    let q = parse_xpath("boolean(//item[not(@id)])").unwrap();
    let e = Engine::new(Strategy::Streaming).with_budget(Budget::fuel(40));
    let out = e.evaluate_reader_str(&q, &xml).unwrap();
    assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
}

#[test]
fn arena_fallback_is_metered_too() {
    // A positional predicate forces the arena path, which meters under
    // the same engine budget via the arena evaluators.
    let xml = big_xml(500);
    let q = parse_xpath("//b[position() = 2]").unwrap();
    let e = Engine::new(Strategy::Streaming)
        .with_optimizer(false)
        .with_budget(Budget::fuel(40));
    let err = e.evaluate_reader_str(&q, &xml).unwrap_err();
    assert!(matches!(err, EvalError::BudgetExhausted { .. }), "{err:?}");
}

#[test]
fn depth_limit_guards_the_streaming_path() {
    // An adversarially deep document must come back as a clean
    // `TooDeep` from the one-pass engine — constant memory is the
    // streaming path's whole point, and an attacker nesting elements must
    // not turn the open-tag stack into a memory bomb.  The bound is one
    // constant, so every text entry point refuses the same document at
    // the same place: the start tag one level below `MAX_ELEMENT_DEPTH`.
    use minctx_xml::{parse, parse_reader, XmlError, XmlErrorKind, MAX_ELEMENT_DEPTH};
    let n = MAX_ELEMENT_DEPTH;
    let deep = "<d>\n".repeat(n + 1) + &"</d>".repeat(n + 1);
    let q = parse_xpath("count(//d)").unwrap();
    let e = Engine::new(Strategy::Streaming);
    let streamed = |r: Result<minctx_stream::StreamOutcome, EvalError>| match r {
        Err(EvalError::Xml(x)) => x,
        other => panic!("expected an XML depth error, got {other:?}"),
    };
    let place = |x: &XmlError| (x.kind().clone(), x.offset(), x.line(), x.column());
    let want = (
        XmlErrorKind::TooDeep { limit: 1024 },
        4 * n,
        n as u32 + 1,
        1,
    );
    assert_eq!(place(&parse(&deep).unwrap_err()), want);
    assert_eq!(place(&parse_reader(deep.as_bytes()).unwrap_err()), want);
    assert_eq!(place(&streamed(e.evaluate_reader_str(&q, &deep))), want);
    assert_eq!(
        place(&streamed(e.evaluate_reader(&q, deep.as_bytes()))),
        want
    );

    // At the bound nothing changes.
    let ok = "<d>\n".repeat(n) + &"</d>".repeat(n);
    assert_eq!(parse(&ok).unwrap().element_count(), n);
    assert_eq!(parse_reader(ok.as_bytes()).unwrap().element_count(), n);
    let count = Some(&StreamValue::Number(n as f64));
    assert_eq!(e.evaluate_reader_str(&q, &ok).unwrap().streamed(), count);
    assert_eq!(
        e.evaluate_reader(&q, ok.as_bytes()).unwrap().streamed(),
        count
    );
}
