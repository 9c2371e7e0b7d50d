//! A streamed query never builds the arena: `evaluate_reader` answers the
//! serving-shaped queries in one pass over the text, the
//! `xml/documents_built` counter stays flat, and the pass's peak heap
//! stays under half of what parsing the same text into an arena peaks at.
//! A pass holds the tokenizer window, the state stacks, the predicate
//! instances and candidates of the open elements, and its answer: a
//! `count` or `boolean` pass peaks at the same few kilobytes whatever the
//! document's size, and a node-set pass above its answer by no more than
//! that.  A pass also allocates nothing per element or per predicate
//! instance: doubling the document adds a handful of allocations (the
//! buffers' regrowths), not thousands.  A query outside the fragment falls
//! back to the arena on the engine's own scratch pool, copying neither the
//! engine nor its compile cache.  The checks take turns, so nothing else
//! in this binary allocates while one measures; the 10⁶-element tier is
//! `#[ignore]`d for a release run.

use minctx_bench::{xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{Engine, Strategy};
use minctx_stream::{StreamMatch, StreamOutcome, StreamValue, StreamingEngine};
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

/// How much an aggregate pass's peak may move when the document doubles,
/// in bytes: the open path's stacks, not a word per element.
const AGGREGATE_PEAK_DRIFT: usize = 4 << 10;

/// How far a node-set pass may peak above the bytes of its own answer.
const PEAK_ABOVE_ANSWER: usize = 32 << 10;

/// One streamed pass of `query` over `xml`: its value, and its peak
/// above the live heap.
fn pass_peak(engine: &Engine, query: &Query, xml: &str) -> (StreamValue, usize) {
    let live = ALLOC.live();
    ALLOC.reset_peak();
    let out = engine.evaluate_reader_str(query, xml).unwrap();
    let peak = ALLOC.peak() - live;
    match out {
        StreamOutcome::Streamed(value) => (value, peak),
        other => panic!("fell back ({:?})", other.fallback_reason()),
    }
}

/// The heap bytes a node-set answer holds: its buffer and boxed strings.
fn answer_bytes(ms: &[StreamMatch], capacity: usize) -> usize {
    let boxed = |s: &Option<Box<str>>| s.as_ref().map_or(0, |s| s.len());
    capacity * size_of::<StreamMatch>()
        + ms.iter()
            .map(|m| boxed(&m.name) + boxed(&m.value))
            .sum::<usize>()
}

/// `xmark_doc` texts of 2·10⁴ and 4·10⁴ elements.
fn doubling_texts() -> [String; 2] {
    [20_000, 40_000].map(|n| to_xml_string(&xmark_doc(&XmarkConfig::sized(n))))
}

#[test]
#[cfg_attr(miri, ignore)]
fn an_aggregate_pass_peaks_alike_on_twice_the_document() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(Strategy::Streaming);
    let texts = doubling_texts();
    for q in [
        "count(//item)",
        "count(//item[@id])",
        "boolean(//nosuchlabel)",
    ] {
        let query = minctx_syntax::parse_xpath(q).unwrap();
        let [small, large] = texts
            .each_ref()
            .map(|xml| pass_peak(&engine, &query, xml).1);
        assert!(
            small.abs_diff(large) < AGGREGATE_PEAK_DRIFT,
            "{q}: peak {small} bytes at 2·10⁴ elements, {large} at 4·10⁴"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn a_node_set_pass_peaks_at_its_answer() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(Strategy::Streaming);
    let query = minctx_syntax::parse_xpath("//item").unwrap();
    for xml in &doubling_texts() {
        let (StreamValue::Nodes(ms), peak) = pass_peak(&engine, &query, xml) else {
            panic!("//item answers a node-set");
        };
        let answer = answer_bytes(&ms, ms.capacity());
        assert!(
            peak < answer + PEAK_ABOVE_ANSWER,
            "//item: peak {peak} bytes, its answer {answer} ({} matches)",
            ms.len()
        );
    }
}

/// Bytes allocated by one arena fallback of `query` over `xml`.
fn fallback_bytes(engine: &Engine, query: &Query, xml: &str) -> usize {
    let before = ALLOC.total();
    let out = engine.evaluate_reader_str(query, xml).unwrap();
    let made = ALLOC.total() - before;
    assert!(!out.is_streamed(), "{query:?} streamed");
    made
}

#[test]
#[cfg_attr(miri, ignore)]
fn a_fallback_runs_on_the_engines_own_scratch() {
    // A fallback evaluates through the engine's scratch pool and copies
    // neither the engine nor its compile cache, so the second fallback
    // reuses the rank buffers the first one left in the pool.
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let xml = to_xml_string(&xmark_doc(&XmarkConfig::sized(2_000)));
    let query = minctx_syntax::parse_xpath("//item[last()]").unwrap();
    // Process-wide state (metric handles, name tables) is set up once.
    fallback_bytes(&Engine::new(Strategy::Streaming), &query, &xml);
    let engine = Engine::new(Strategy::Streaming);
    let first = fallback_bytes(&engine, &query, &xml);
    let second = fallback_bytes(&engine, &query, &xml);
    assert!(
        second < first,
        "the second fallback allocated {second} bytes, the first {first}"
    );
}
