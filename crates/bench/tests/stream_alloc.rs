//! A streamed query never builds the arena: `evaluate_reader` answers the
//! serving-shaped queries in one pass over the text, the
//! `xml/documents_built` counter stays flat, and the pass's peak heap
//! stays under half of what parsing the same text into an arena peaks at.
//! A pass holds the tokenizer window, the state stacks and its buffered
//! candidates (0.28–0.36 of the arena's peak for `//item[@id]` at 10⁵ and
//! 10⁶ elements; 0.15 MB for a query with no match), where the arena
//! holds every node.  A pass also allocates nothing per element or per
//! predicate instance: doubling the document adds a handful of
//! allocations (the buffers' regrowths), not thousands.  The checks take
//! turns, so nothing else in this binary allocates while one measures;
//! the 10⁶-element tier is `#[ignore]`d for a release run.

use minctx_bench::{xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{Engine, Strategy};
use minctx_stream::StreamingEngine;
use minctx_syntax::Query;
use minctx_xml::serialize::to_xml_string;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The two tiers share the gauges: one measures at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn streaming_never_builds_the_arena(elements: usize) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let xml = to_xml_string(&xmark_doc(&XmarkConfig::sized(elements)));

    let live = ALLOC.live();
    ALLOC.reset_peak();
    let doc = minctx_xml::parse(&xml).unwrap();
    let arena_peak = ALLOC.peak() - live;
    drop(doc);

    let engine = Engine::new(Strategy::Streaming);
    let docs_built = minctx_obs::global().counter("xml/documents_built");
    let built_before = docs_built.get();
    for q in [
        "//item",
        "//item[@id]",
        "//item/@id",
        "count(//item[@id])",
        "boolean(//nosuchlabel)",
    ] {
        let query = minctx_syntax::parse_xpath(q).unwrap();
        let live = ALLOC.live();
        ALLOC.reset_peak();
        let out = engine.evaluate_reader(&query, xml.as_bytes()).unwrap();
        let peak = ALLOC.peak() - live;
        assert!(
            out.is_streamed(),
            "{q}: fell back ({:?})",
            out.fallback_reason()
        );
        assert!(
            peak < arena_peak / 2,
            "{q}: streamed peak {peak} bytes against the arena's {arena_peak}"
        );
    }
    assert_eq!(
        docs_built.get(),
        built_before,
        "a Document arena was built on the streamable path"
    );
}

#[test]
#[cfg_attr(miri, ignore)]
fn streaming_never_builds_the_arena_at_1e5() {
    streaming_never_builds_the_arena(100_000);
}

#[test]
#[ignore = "10⁶ elements: run in release with --ignored"]
fn streaming_never_builds_the_arena_at_1e6() {
    streaming_never_builds_the_arena(1_000_000);
}

/// Allocations made by one streamed pass of `query` over an
/// `elements`-element document (the text is built before counting).
fn pass_allocations(engine: &Engine, query: &Query, elements: usize) -> usize {
    let xml = to_xml_string(&xmark_doc(&XmarkConfig::sized(elements)));
    let before = ALLOC.count();
    let out = engine.evaluate_reader_str(query, &xml).unwrap();
    let made = ALLOC.count() - before;
    assert!(out.is_streamed(), "fell back ({:?})", out.fallback_reason());
    made
}

#[test]
#[cfg_attr(miri, ignore)]
fn a_streamed_pass_allocates_nothing_per_predicate_instance() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(Strategy::Streaming);
    let query = minctx_syntax::parse_xpath("count(//item[@id])").unwrap();
    let small = pass_allocations(&engine, &query, 20_000);
    let large = pass_allocations(&engine, &query, 40_000);
    assert!(
        large < small + 32,
        "allocations grew {small} -> {large} when the document doubled"
    );
}
