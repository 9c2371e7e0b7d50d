//! The streaming differential suite: `Strategy::Streaming` against the
//! MINCONTEXT oracle on the shared corpus.
//!
//! Every corpus document is serialized back to XML text; every corpus
//! query is sent through `evaluate_reader` (both the `&str` and the
//! `io::Read` paths, optimizer on and off).  Queries the classifier
//! accepts must produce exactly the oracle's answer — node-set results
//! are compared ordinal-for-ordinal against the `NodeId`s MINCONTEXT
//! computes on a parse of the *same* serialized text, which pins the
//! streamer's pre-order numbering to the arena builder's.  Queries the
//! classifier rejects must take the arena fallback and still agree with
//! the oracle (they share the evaluator, so this also proves the
//! fallback plumbing loses nothing).

use minctx_bench::corpus::{documents, QUERIES};
use minctx_bench::{values_agree, xmark_doc, XmarkConfig};
use minctx_core::{Engine, Strategy, Value};
use minctx_stream::{classify, StreamOutcome, StreamValue, Streamability, StreamingEngine};
use minctx_syntax::{parse_xpath, Query};
use minctx_xml::serialize::to_xml_string;
use minctx_xml::{parse, Document};

/// Compares a streamed value against the oracle's arena value.
fn assert_stream_agrees(doc: &Document, got: &StreamValue, want: &Value, ctx: &str) {
    match (got, want) {
        (StreamValue::Nodes(ms), Value::NodeSet(ns)) => {
            let got_ids: Vec<usize> = ms.iter().map(|m| m.ordinal as usize).collect();
            let want_ids: Vec<usize> = ns.iter().map(|n| n.index()).collect();
            assert_eq!(got_ids, want_ids, "{ctx}: ordinals diverge");
            // Matched names must agree with the arena's labels too.
            for m in ms {
                let id = minctx_xml::NodeId::from_index(m.ordinal as usize);
                if let Some(name) = &m.name {
                    assert_eq!(doc.label_str(id), Some(&**name), "{ctx}: name of {id}");
                }
            }
        }
        (StreamValue::Number(x), Value::Number(y)) => {
            assert!((x == y) || (x.is_nan() && y.is_nan()), "{ctx}: {x} vs {y}");
        }
        (StreamValue::Boolean(x), Value::Boolean(y)) => assert_eq!(x, y, "{ctx}"),
        _ => panic!("{ctx}: shape mismatch: {got:?} vs {want:?}"),
    }
}

#[test]
fn streaming_agrees_with_mincontext_on_the_corpus() {
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for (doc_name, doc) in documents() {
        let xml = to_xml_string(&doc);
        // The oracle evaluates on a parse of the same serialized text the
        // streamer reads, so pre-order ids line up by construction.
        let reparsed = parse(&xml).unwrap_or_else(|e| panic!("{doc_name}: reserialize: {e}"));
        for optimize in [true, false] {
            let engine = Engine::new(Strategy::Streaming).with_optimizer(optimize);
            let oracle = Engine::new(Strategy::MinContext).with_optimizer(optimize);
            for q in QUERIES {
                let query: Query = parse_xpath(q).unwrap();
                let ctx = format!("{doc_name} opt={optimize} {q:?}");
                let want = oracle.evaluate(&reparsed, &query).unwrap();
                let out = engine
                    .evaluate_reader_str(&query, &xml)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                match &out {
                    StreamOutcome::Streamed(v) => {
                        accepted += 1;
                        assert_stream_agrees(&reparsed, v, &want, &ctx);
                        // The io::Read path must agree byte-for-byte.
                        let out2 = engine.evaluate_reader(&query, xml.as_bytes()).unwrap();
                        let StreamOutcome::Streamed(v2) = &out2 else {
                            panic!("{ctx}: reader path fell back");
                        };
                        assert_eq!(v, v2, "{ctx}: str vs reader divergence");
                    }
                    StreamOutcome::Arena { value, .. } => {
                        rejected += 1;
                        assert!(
                            values_agree(value, &want),
                            "{ctx}: fallback {value:?} vs oracle {want:?}"
                        );
                    }
                }
            }
        }
    }
    // The suite is vacuous if the classifier stops accepting anything:
    // pin a healthy floor on streamed coverage (per document × optimizer
    // pass, the corpus has 140+ queries; ≥20 must stream).
    assert!(
        accepted >= 20 * 4 * 2,
        "only {accepted} streamed runs (rejected {rejected})"
    );
}

#[test]
fn classifier_verdict_matches_evaluate_reader_behavior() {
    // `classify` (on the rewritten query, mirroring an optimizing
    // engine) must predict exactly which corpus queries stream.
    let (_, doc) = &documents()[0];
    let xml = to_xml_string(doc);
    let engine = Engine::new(Strategy::Streaming).with_optimizer(true);
    for q in QUERIES {
        let query = parse_xpath(q).unwrap();
        let verdict = classify(&minctx_core::rewrite(&query));
        let out = engine.evaluate_reader_str(&query, &xml).unwrap();
        match verdict {
            Streamability::Streamable => {
                assert!(out.is_streamed(), "{q:?}: classifier says streamable");
            }
            Streamability::NeedsArena(reason) => {
                assert_eq!(out.fallback_reason(), Some(reason), "{q:?}");
            }
        }
    }
}

#[test]
fn streamed_known_answers_spot_check() {
    // Not vacuous: pin absolute streamed answers on the books document.
    let (_, doc) = &documents()[0];
    let xml = to_xml_string(doc);
    let e = Engine::new(Strategy::Streaming);
    let q = parse_xpath("count(//book)").unwrap();
    let out = e.evaluate_reader_str(&q, &xml).unwrap();
    assert_eq!(out.streamed(), Some(&StreamValue::Number(3.0)));
    let q = parse_xpath("//book[@year = 2000]").unwrap();
    let out = e.evaluate_reader_str(&q, &xml).unwrap();
    let Some(StreamValue::Nodes(ms)) = out.streamed() else {
        panic!("should stream")
    };
    assert_eq!(ms.len(), 2);
    let q = parse_xpath("boolean(//magazine[title])").unwrap();
    let out = e.evaluate_reader_str(&q, &xml).unwrap();
    assert_eq!(out.streamed(), Some(&StreamValue::Boolean(true)));
}

/// `parlist/listitem` recursion `levels` deep.  Every level holds, in
/// order, a `listitem` with no `parlist` below it, one whose `parlist` is
/// a grandchild, and the one the next level nests in: a descendant
/// expectation that outlived its element, or a child range read past its
/// parent's, would witness a predicate the oracle refutes.  1 001 open
/// elements at 500 levels, under `MAX_ELEMENT_DEPTH`.
fn parlist_recursion(levels: usize) -> String {
    let level = concat!(
        "<parlist><listitem><text/></listitem>",
        "<listitem><text><parlist/></text></listitem><listitem>",
    );
    let mut xml = level.repeat(levels);
    xml.push_str("<text/>");
    xml.push_str(&"</listitem></parlist>".repeat(levels));
    xml
}

/// Streams each query over `xml`, rewriter off and on, and checks it
/// against MINCONTEXT on a parse of the same text.
fn stream_agrees_on(xml: &str, queries: &[&str]) {
    let doc = parse(xml).unwrap();
    for optimize in [false, true] {
        let oracle = Engine::new(Strategy::MinContext).with_optimizer(optimize);
        let engine = Engine::new(Strategy::Streaming).with_optimizer(optimize);
        for q in queries {
            let query = parse_xpath(q).unwrap();
            let ctx = format!("opt={optimize} {q}");
            let want = oracle.evaluate(&doc, &query).unwrap();
            let out = engine.evaluate_reader_str(&query, xml).unwrap();
            let got = out
                .streamed()
                .unwrap_or_else(|| panic!("{ctx}: fell back ({:?})", out.fallback_reason()));
            assert_stream_agrees(&doc, got, &want, &ctx);
        }
    }
}

#[test]
fn deep_recursion_streams_ordinal_for_ordinal() {
    stream_agrees_on(
        &parlist_recursion(500),
        &[
            "//parlist//listitem",
            "//parlist/listitem[parlist]",
            "count(//listitem[.//parlist])",
            // Three groups on one guard chain: a chain cut after its last
            // group admits the `listitem`s that have `text` but no
            // `parlist`.
            "//parlist[listitem/text]/listitem[parlist][text]",
            // Every `listitem` is reached through each `parlist` above it,
            // and each derivation's guard names the group of a different
            // `parlist`: the groups close at different depths, the
            // innermost first, and the node must count once.
            "count(//parlist//listitem)",
            "//parlist[listitem]//listitem",
            "//parlist[not(listitem/text/parlist)]//listitem[text]",
            "count(//listitem[parlist]//listitem[not(parlist)])",
        ],
    );
}

#[test]
fn an_attribute_derived_from_every_ancestor_is_answered_once() {
    // An attribute is derived once per element above it, its derivations
    // interleaved with its siblings' in its owner's event.
    let xmark = to_xml_string(&xmark_doc(&XmarkConfig::sized(3_000)));
    stream_agrees_on(
        &xmark,
        &[
            "count(//*//@id)",
            "//*//@id",
            "count(//*[keyword]//keyword)",
            "//*[keyword]//keyword",
            "boolean(//*[not(keyword)]//keyword[@id])",
            "//item[.//keyword[not(@id)]]/@id",
        ],
    );
}
