//! Engine integration: [`StreamingEngine::evaluate_reader`] and the
//! [`StreamOutcome`] it returns.
//!
//! `evaluate_reader` is the read-once entry point: it takes XML *text*
//! (an [`io::Read`] or a `&str`) instead of a [`Document`].  Under any
//! engine, queries the [classifier](crate::fragment::classify) accepts
//! are answered in one SAX-style pass with no arena allocated; everything
//! else falls back to parsing the document and evaluating on the arena
//! by the engine's own strategy, and the outcome reports *which
//! construct* forced the fallback (and hands back the parsed document,
//! so the caller can keep using it).

use crate::compile::{self, StreamQuery};
use crate::exec::{Exec, StreamNodeKind, StreamValue};
use minctx_core::{BudgetMeter, Engine, EvalError, Value};
use minctx_syntax::Query;
use minctx_xml::token::{Tokenizer, XmlEvent};
use minctx_xml::{parse, parse_reader, Document, XmlError};
use std::io::Read;

/// How [`StreamingEngine::evaluate_reader`] answered a query.
#[derive(Debug)]
pub enum StreamOutcome {
    /// Answered in one pass over the text; no [`Document`] was built.
    Streamed(StreamValue),
    /// Fell back to the arena: the input was parsed and evaluated with
    /// the engine's strategy (MINCONTEXT under
    /// [`Strategy::Streaming`](minctx_core::Strategy::Streaming)).
    /// `reason` names the construct that forced the fallback.  The
    /// document is boxed so the streamed variant stays small.
    Arena {
        reason: &'static str,
        doc: Box<Document>,
        value: Value,
    },
}

impl StreamOutcome {
    /// Whether the streaming path answered the query.
    pub fn is_streamed(&self) -> bool {
        matches!(self, StreamOutcome::Streamed(_))
    }

    /// The fallback reason, when the arena path ran.
    pub fn fallback_reason(&self) -> Option<&'static str> {
        match self {
            StreamOutcome::Streamed(_) => None,
            StreamOutcome::Arena { reason, .. } => Some(reason),
        }
    }

    /// The streamed value, when the streaming path answered.
    pub fn streamed(&self) -> Option<&StreamValue> {
        match self {
            StreamOutcome::Streamed(v) => Some(v),
            StreamOutcome::Arena { .. } => None,
        }
    }
}

/// Streaming evaluation over XML text, as an extension of
/// [`minctx_core::Engine`], under any strategy.
///
/// ```
/// use minctx_core::{Engine, Strategy};
/// use minctx_stream::{StreamingEngine, StreamValue};
///
/// let engine = Engine::new(Strategy::OptMinContext);
/// let query = minctx_syntax::parse_xpath("count(//b[@x])").unwrap();
/// let out = engine
///     .evaluate_reader_str(&query, r#"<a><b x="1"/><b/><b x="2"/></a>"#)
///     .unwrap();
/// assert_eq!(out.streamed(), Some(&StreamValue::Number(2.0)));
/// ```
pub trait StreamingEngine {
    /// Evaluates `query` over a reader, streaming when possible (see
    /// [`StreamOutcome`]).
    fn evaluate_reader(&self, query: &Query, reader: impl Read)
        -> Result<StreamOutcome, EvalError>;

    /// [`StreamingEngine::evaluate_reader`] over borrowed text (zero-copy
    /// tokenization).
    fn evaluate_reader_str(&self, query: &Query, xml: &str) -> Result<StreamOutcome, EvalError>;
}

impl StreamingEngine for Engine {
    fn evaluate_reader(
        &self,
        query: &Query,
        reader: impl Read,
    ) -> Result<StreamOutcome, EvalError> {
        evaluate_text(self, query, reader, Tokenizer::from_reader, parse_reader)
    }

    fn evaluate_reader_str(&self, query: &Query, xml: &str) -> Result<StreamOutcome, EvalError> {
        evaluate_text(self, query, xml, Tokenizer::new, parse)
    }
}

/// The body of both entry points, which differ only in how `input`
/// becomes a tokenizer (streamed) or a document (the arena fallback).
/// The fallback runs [`Engine::evaluate_on_arena`]: the engine's own
/// strategy, or MINCONTEXT — the streaming differential suite's oracle —
/// under [`Strategy::Streaming`](minctx_core::Strategy::Streaming), either
/// way through the engine's own scratch pool.  It compiles uncached, as
/// [`Engine::evaluate_str`] does: the freshly parsed document's stamp
/// never recurs, so a cached compilation would only evict live ones.
fn evaluate_text<'a, T>(
    engine: &Engine,
    query: &Query,
    input: T,
    tokenizer: impl FnOnce(T) -> Tokenizer<'a>,
    parse: impl FnOnce(T) -> Result<Document, XmlError>,
) -> Result<StreamOutcome, EvalError> {
    match decide(engine, query) {
        Ok(sq) => {
            let mut meter = engine.budget_config().meter();
            let value = run_traced(engine, &sq, &mut tokenizer(input), &mut meter)?;
            Ok(StreamOutcome::Streamed(value))
        }
        Err(reason) => {
            let doc = Box::new(parse(input)?);
            let compiled = engine.compile_uncached(&doc, query);
            let value = engine.evaluate_on_arena(&doc, &compiled)?;
            Ok(StreamOutcome::Arena { reason, doc, value })
        }
    }
}

/// Stream or fall back?  Mirrors the engine's compile pipeline: the query
/// is rewritten exactly when the engine's optimizer is on, then handed to
/// the stream compiler (= the classifier).  The strategy plays no part:
/// it names the arena algorithm, which only a fallback runs.
fn decide(engine: &Engine, query: &Query) -> Result<StreamQuery, &'static str> {
    if engine.optimizer() {
        compile::compile(&minctx_core::rewrite(query))
    } else {
        compile::compile(query)
    }
}

/// [`run`] under the engine's trace recorder: the one-pass evaluation is
/// a [`Phase::Stream`] span (the arena fallback emits the usual
/// rewrite/compile/evaluate spans instead).
/// Fuel spent is the event-weighted work metered by [`run`].
fn run_traced(
    engine: &Engine,
    sq: &StreamQuery,
    tok: &mut Tokenizer<'_>,
    meter: &mut BudgetMeter,
) -> Result<StreamValue, EvalError> {
    let mut span = engine.recorder().span(minctx_obs::Phase::Stream);
    let result = run(sq, tok, meter);
    span.attr_u64("fuel", meter.spent());
    span.attr_u64("ok", u64::from(result.is_ok()));
    result
}

/// Drives the automaton over the event stream, mirroring the arena
/// builder's pre-order numbering: the root is 0, an element consumes one
/// ordinal plus one per attribute, every other node consumes one.
///
/// Ordinals are `u32` for arena (`NodeId`) parity; a stream with more
/// than 2³² nodes is rejected rather than silently wrapped.
///
/// Work is metered per event (elements charge one unit per attribute
/// too), matching the one-pass cost model — a fuel or deadline budget
/// bounds how much of the stream is read.
fn run(
    sq: &StreamQuery,
    tok: &mut Tokenizer<'_>,
    meter: &mut BudgetMeter,
) -> Result<StreamValue, EvalError> {
    let mut ex = Exec::new(sq);
    let mut next: u64 = 1;
    while let Some(ev) = tok.next_event()? {
        let (ord, attrs) = match &ev {
            XmlEvent::EndElement { .. } => (0, 0),
            XmlEvent::StartElement { attrs, .. } => (ordinal(next, attrs.len())?, attrs.len()),
            _ => (ordinal(next, 0)?, 0),
        };
        meter.charge(1 + attrs as u64)?;
        match ev {
            XmlEvent::StartElement { name, attrs } => {
                next += 1 + attrs.len() as u64;
                ex.start_element(name, attrs, ord);
            }
            XmlEvent::EndElement { .. } => ex.end_element(),
            XmlEvent::Text(t) => {
                ex.leaf(StreamNodeKind::Text, None, t, ord);
                next += 1;
            }
            XmlEvent::Comment(c) => {
                ex.leaf(StreamNodeKind::Comment, None, c, ord);
                next += 1;
            }
            XmlEvent::Pi { target, data } => {
                ex.leaf(StreamNodeKind::Pi, Some(target), data, ord);
                next += 1;
            }
        }
        if ex.finished() {
            // An existence query answered `true` unconditionally: stop
            // reading.  (The unread tail is not validated — streaming
            // discovers malformedness only as far as it reads.)
            break;
        }
    }
    Ok(ex.finalize())
}

/// The ordinal of a node numbered `next` that is followed by `attrs`
/// attribute nodes, if all of them fit in `u32`.
fn ordinal(next: u64, attrs: usize) -> Result<u32, EvalError> {
    let last = next + attrs as u64;
    u32::try_from(last)
        .map(|_| next as u32)
        .map_err(|_| EvalError::DocumentTooLarge {
            nodes: last as usize,
            limit: u32::MAX as usize,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_core::Strategy;
    use minctx_syntax::parse_xpath;

    fn streaming() -> Engine {
        Engine::new(Strategy::Streaming)
    }

    fn nodes(out: &StreamOutcome) -> Vec<u32> {
        match out.streamed().expect("streamed") {
            StreamValue::Nodes(ms) => ms.iter().map(|m| m.ordinal).collect(),
            other => panic!("expected nodes, got {other:?}"),
        }
    }

    #[test]
    fn streams_simple_paths_with_arena_exact_ordinals() {
        // root=0, <a>=1, @x=2, <b>=3, t=4, <c>=5, <b>=6
        let xml = r#"<a x="0"><b>t</b><c><b/></c></a>"#;
        let e = streaming();
        let q = parse_xpath("//b").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(nodes(&out), vec![3, 6]);
        let doc = minctx_xml::parse(xml).unwrap();
        let oracle = Engine::new(Strategy::MinContext)
            .evaluate(&doc, &q)
            .unwrap();
        let ids: Vec<u32> = oracle
            .as_node_set()
            .unwrap()
            .iter()
            .map(|n| n.index() as u32)
            .collect();
        assert_eq!(nodes(&out), ids);
    }

    #[test]
    fn streams_attribute_and_leaf_matches_with_values() {
        let xml = r#"<a><b x="v1"/><b x="v2">txt</b><!--note--></a>"#;
        let e = streaming();
        let q = parse_xpath("//@x").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        let StreamValue::Nodes(ms) = out.streamed().unwrap() else {
            panic!()
        };
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].kind, StreamNodeKind::Attribute);
        assert_eq!(ms[0].name.as_deref(), Some("x"));
        assert_eq!(ms[0].value.as_deref(), Some("v1"));
        let q = parse_xpath("//comment()").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        let StreamValue::Nodes(ms) = out.streamed().unwrap() else {
            panic!()
        };
        assert_eq!(ms[0].value.as_deref(), Some("note"));
    }

    #[test]
    fn predicates_buffer_until_resolved() {
        // The <b> candidates resolve only when their subtree proves or
        // fails [c]; emission order must still be document order.
        let xml = "<r><b><x/><c/></b><b><x/></b><b><d><c/></d></b></r>";
        let e = streaming();
        let q = parse_xpath("//b[c]").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(nodes(&out).len(), 1);
        let q = parse_xpath("//b[.//c]").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(nodes(&out).len(), 2);
        let q = parse_xpath("//b[not(c)]").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(nodes(&out).len(), 2);
    }

    #[test]
    fn count_and_exists_results() {
        let xml = r#"<a><b i="1"/><b/><b i="2"/></a>"#;
        let e = streaming();
        let q = parse_xpath("count(//b[@i])").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Number(2.0)));
        let q = parse_xpath("boolean(//b[@i = '2'])").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
        let q = parse_xpath("boolean(//zzz)").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Boolean(false)));
    }

    #[test]
    fn exists_short_circuits_before_malformed_tail() {
        // The first <b> answers the query; the garbage after it is never
        // reached.  The same input errors when fully parsed.
        let xml = "<a><b/><unclosed></a>";
        let e = streaming();
        let q = parse_xpath("boolean(//b)").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
        assert!(minctx_xml::parse(xml).is_err());
        // Guarded matches short-circuit too, once every guard is already
        // provable: the [@x] atom resolves at the very <b> event.
        let xml = r#"<a><b x="1"/><unclosed></a>"#;
        let q = parse_xpath("boolean(//b[@x])").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
        // A not-exists guard is decided when its element closes, so the
        // stream stops at `</b>`…
        let q = parse_xpath("boolean(//b[not(c)])").unwrap();
        let out = e.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
        // …but one still open when the malformed tail arrives keeps
        // reading and therefore sees it.
        assert!(matches!(
            e.evaluate_reader_str(&q, r#"<a><b x="1"><unclosed></a>"#),
            Err(EvalError::Xml(_))
        ));
    }

    #[test]
    fn malformed_input_reports_positions_through_eval_error() {
        let e = streaming();
        let q = parse_xpath("//b").unwrap();
        let err = e.evaluate_reader_str(&q, "<a>\n<b></c>\n</a>").unwrap_err();
        match err {
            EvalError::Xml(x) => {
                assert_eq!(x.line(), 2);
                assert!(x.column() > 1);
            }
            other => panic!("expected EvalError::Xml, got {other}"),
        }
        // The reader path reports the same error.
        let err = e
            .evaluate_reader(&q, "<a>\n<b></c>\n</a>".as_bytes())
            .unwrap_err();
        assert!(matches!(err, EvalError::Xml(_)));
    }

    #[test]
    fn arena_fallback_reports_reason_and_hands_back_the_document() {
        let e = streaming();
        let q = parse_xpath("//b[position() = 2]").unwrap();
        let out = e.evaluate_reader_str(&q, "<a><b/><b/></a>").unwrap();
        let StreamOutcome::Arena { reason, doc, value } = out else {
            panic!("positional predicate must fall back");
        };
        assert_eq!(reason, crate::fragment::reason::POSITIONAL);
        assert_eq!(doc.element_count(), 3);
        assert_eq!(value.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn arena_strategies_stream_and_fall_back_by_their_own_strategy() {
        // root=0, <a>=1, <b>=2, @x=3, <c>=4, <b>=5, <b>=6, @x=7
        let xml = r#"<a><b x="1"/><c><b/></c><b x="2"/></a>"#;
        let doc = minctx_xml::parse(xml).unwrap();
        for on in [false, true] {
            let e = Engine::new(Strategy::OptMinContext).with_optimizer(on);
            let q = parse_xpath("//b").unwrap();
            let out = e.evaluate_reader_str(&q, xml).unwrap();
            let want = e.evaluate_str(&doc, "//b").unwrap();
            let ids: Vec<u32> = want
                .as_node_set()
                .unwrap()
                .iter()
                .map(|n| n.index() as u32)
                .collect();
            assert_eq!(nodes(&out), ids, "optimizer({on})");
            let q = parse_xpath("count(//b[@x])").unwrap();
            let out = e.evaluate_reader_str(&q, xml).unwrap();
            let want = e.evaluate_str(&doc, "count(//b[@x])").unwrap();
            assert_eq!(want, Value::Number(2.0));
            assert_eq!(out.streamed(), Some(&StreamValue::Number(2.0)));
            // A positional predicate falls back, to the engine's own arena
            // answer.
            let q = parse_xpath("//b[last()]").unwrap();
            let out = e.evaluate_reader_str(&q, xml).unwrap();
            assert_eq!(
                out.fallback_reason(),
                Some(crate::fragment::reason::POSITIONAL)
            );
            let StreamOutcome::Arena { value, .. } = out else {
                unreachable!()
            };
            assert_eq!(value, e.evaluate_str(&doc, "//b[last()]").unwrap());
        }
    }

    #[test]
    fn fallbacks_leave_the_query_cache_empty() {
        // Each fallback parses a document whose stamp never recurs, so a
        // cached compilation of it could only evict live entries.
        let e = Engine::new(Strategy::MinContext);
        let q = parse_xpath("//b[last()]").unwrap();
        for _ in 0..3 {
            let out = e.evaluate_reader_str(&q, "<a><b/></a>").unwrap();
            assert_eq!(
                out.fallback_reason(),
                Some(crate::fragment::reason::POSITIONAL)
            );
        }
        assert_eq!(e.cached_queries(), 0);
    }

    #[test]
    fn optimizer_widens_streaming_through_evaluate_reader() {
        // Raw `//a/b/..` has a reverse step → arena; rewritten it streams.
        let q = parse_xpath("//a/b/..").unwrap();
        let xml = "<r><a><b/></a><a/></r>";
        let on = streaming().with_optimizer(true);
        let out = on.evaluate_reader_str(&q, xml).unwrap();
        assert!(out.is_streamed(), "rewritten query should stream");
        let off = streaming().with_optimizer(false);
        let out = off.evaluate_reader_str(&q, xml).unwrap();
        assert_eq!(
            out.fallback_reason(),
            Some(crate::fragment::reason::REVERSE_AXIS)
        );
    }

    #[test]
    fn streaming_pass_emits_a_stream_span() {
        use minctx_obs::{AttrValue, CollectSink, Phase, Recorder};
        let sink = std::sync::Arc::new(CollectSink::new());
        let e = streaming().with_recorder(Recorder::to_sink(sink.clone()));
        let q = parse_xpath("count(//b)").unwrap();
        let out = e.evaluate_reader_str(&q, "<a><b/><b/></a>").unwrap();
        assert!(out.is_streamed());
        let spans = sink.take();
        assert_eq!(spans.len(), 1, "one Stream span per one-pass run");
        assert_eq!(spans[0].phase, Phase::Stream);
        assert_eq!(spans[0].attr("ok"), Some(&AttrValue::U64(1)));
        assert!(matches!(spans[0].attr("fuel"), Some(&AttrValue::U64(f)) if f > 0));
        // The arena fallback traces through the engine's usual phases
        // instead (parse of the *query string* is long past: Rewrite,
        // Compile, Evaluate).
        let q = parse_xpath("//b[position() = 2]").unwrap();
        e.evaluate_reader_str(&q, "<a><b/><b/></a>").unwrap();
        let phases: Vec<Phase> = sink.take().iter().map(|s| s.phase).collect();
        assert!(!phases.contains(&Phase::Stream));
        assert!(phases.contains(&Phase::Evaluate));
    }

    #[test]
    fn ordinals_past_u32_are_refused_attributes_included() {
        let max = u64::from(u32::MAX);
        assert_eq!(ordinal(1, 3).unwrap(), 1);
        assert_eq!(ordinal(max, 0).unwrap(), u32::MAX);
        assert_eq!(ordinal(max - 2, 2).unwrap(), u32::MAX - 2);
        // An element at `u32::MAX − 2` with three attributes would number
        // its last attribute `u32::MAX + 1`.
        for (next, attrs) in [(max - 2, 3), (max, 1), (max + 1, 0)] {
            assert!(matches!(
                ordinal(next, attrs),
                Err(EvalError::DocumentTooLarge { nodes, limit })
                    if nodes as u64 == next + attrs as u64 && limit == u32::MAX as usize
            ));
        }
    }

    #[test]
    fn root_query_matches_ordinal_zero() {
        let e = streaming();
        let q = parse_xpath("/").unwrap();
        let out = e.evaluate_reader_str(&q, "<a/>").unwrap();
        assert_eq!(nodes(&out), vec![0]);
    }
}
