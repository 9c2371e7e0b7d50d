//! The streaming allocation-ceiling smoke (CI: `stream-smoke` job).
//!
//! Generates the 10⁶-element XMark bench corpus, serializes it, drops
//! the arena, and evaluates the serving-shaped query family through
//! `evaluate_reader` under a counting allocator.  It asserts, per query:
//!
//! * the classifier streamed it (no fallback);
//! * the peak working set of the pass stayed under a ceiling that is a
//!   small fraction of what the arena for this corpus costs — i.e.
//!   memory is bounded by document depth + result size, not `|D|`;
//! * the `xml/documents_built` counter of `minctx_obs::global()` is
//!   unchanged — the arena was *never* built.
//!
//! It then drains the same text through `Tokenizer::new` and
//! `Tokenizer::from_reader`, asserts the two modes count the same
//! events, and prints the MB/s of each (printed, not asserted: the
//! gate on lexing speed is `benchmark/`).
//!
//! ```text
//! cargo run --release -p minctx-bench --bin stream_smoke [-- elements [ceiling-mb]]
//! ```

use minctx_bench::{xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{Engine, Strategy};
use minctx_stream::{StreamValue, StreamingEngine};
use minctx_xml::serialize::to_xml_string;
use minctx_xml::{ParseOptions, Tokenizer};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let elements: usize = args
        .next()
        .map(|a| a.parse().expect("elements must be a number"))
        .unwrap_or(1_000_000);
    let ceiling_mb: usize = args
        .next()
        .map(|a| a.parse().expect("ceiling must be a number"))
        .unwrap_or(64);

    let doc = xmark_doc(&XmarkConfig::sized(elements));
    let arena_nodes = doc.len();
    let xml = to_xml_string(&doc);
    drop(doc);
    println!(
        "corpus: {elements} elements ({arena_nodes} arena nodes), {:.1} MB of XML text",
        xml.len() as f64 / (1024.0 * 1024.0)
    );

    let engine = Engine::new(Strategy::Streaming);
    let docs_built = minctx_obs::global().counter("xml/documents_built");
    let built_before = docs_built.get();
    let ceiling = ceiling_mb * 1024 * 1024;
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
        // The io::Read path: sliding-window tokenization end to end.
        let out = engine
            .evaluate_reader(&query, xml.as_bytes())
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        let peak = ALLOC.peak().saturating_sub(live);
        let value = out
            .streamed()
            .unwrap_or_else(|| panic!("{q}: fell back ({:?})", out.fallback_reason()));
        let size = match value {
            StreamValue::Nodes(ms) => ms.len().to_string(),
            StreamValue::Number(n) => format!("={n}"),
            StreamValue::Boolean(b) => format!("={b}"),
        };
        println!(
            "  {q:<24} result {size:>8}   peak {:>8.2} MB (ceiling {ceiling_mb} MB)",
            peak as f64 / (1024.0 * 1024.0)
        );
        assert!(
            peak <= ceiling,
            "{q}: streaming peak {peak} bytes exceeds the {ceiling}-byte ceiling"
        );
    }
    assert_eq!(
        docs_built.get(),
        built_before,
        "a Document arena was built on the streamable path"
    );

    let drain = |mode: &str, mut tok: Tokenizer<'_>| {
        let start = Instant::now();
        let mut events = 0u64;
        while let Some(ev) = tok.next_event().unwrap_or_else(|e| panic!("{mode}: {e}")) {
            std::hint::black_box(&ev);
            events += 1;
        }
        let mb_per_s = xml.len() as f64 / 1e6 / start.elapsed().as_secs_f64();
        println!("  tokenizer {mode:<6} {events:>9} events   {mb_per_s:>6.0} MB/s");
        events
    };
    let from_str = drain("str", Tokenizer::new(&xml));
    let from_reader = drain(
        "reader",
        Tokenizer::from_reader(xml.as_bytes(), ParseOptions::default()),
    );
    assert_eq!(
        from_str, from_reader,
        "the two tokenizer modes disagree on the event count"
    );
    println!("stream smoke OK: no arena built, all passes under the allocation ceiling");
}
