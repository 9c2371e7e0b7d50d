//! Parallel-evaluation differential suite: the full cross-suite corpus
//! must produce **identical** results at `threads ∈ {1, 2, 4}` — query
//! for query, ordinal for ordinal (node-set values compare by `NodeId`,
//! which *is* the pre-order ordinal) — against the plain sequential
//! engine, under all four arena strategies.
//!
//! A threaded engine runs the same kernel bodies as the sequential one,
//! over several index ranges concatenated in range order instead of over
//! one, so it is required to be bit-identical, not merely set-equal.  The
//! corpus's small documents sit below the kernels' size gate — what they
//! pin is that attaching a pool changes nothing else; a generated
//! document past the gate (with the chunk counter asserted to move) puts
//! real cut scans under the same comparison, and every cut geometry the
//! gate cannot produce is covered kernel by kernel in `minctx-xml`'s
//! `parallel_kernels_match_sequential_bit_for_bit`.

use minctx_bench::{corpus, values_agree, xmark_doc, xorshift, XmarkConfig};
use minctx_core::{Engine, Strategy, Value};
use minctx_xml::Document;

/// Element count of the generated document that opens the kernels' size
/// gate (2¹⁹ scanned items): at ~2.66 nodes per element its arena sweeps
/// are past it.
const GATE_DOC_ELEMENTS: usize = 200_000;

/// Corpus documents plus an XMark-style generated document with realistic
/// postings columns.
fn documents() -> Vec<(String, Document)> {
    let mut docs = corpus::documents();
    docs.push((
        "xmark-2k".to_string(),
        xmark_doc(&XmarkConfig::sized(2_000)),
    ));
    docs
}

fn check(
    tag: &str,
    seq: &Result<Value, minctx_core::EvalError>,
    par: Result<Value, minctx_core::EvalError>,
) {
    match (seq, &par) {
        (Ok(va), Ok(vb)) => assert!(
            values_agree(va, vb),
            "{tag}: sequential {va:?} != parallel {vb:?}"
        ),
        (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "{tag}: errors diverge"),
        _ => panic!("{tag}: sequential {seq:?} vs parallel {par:?}"),
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "full corpus x strategy x thread sweep is minutes-long under the interpreter"
)]
fn corpus_agrees_across_thread_counts_and_strategies() {
    for (name, doc) in &documents() {
        // All four strategies on the hand-written documents; the
        // generated document is past the cubic CVT evaluator's practical
        // size (and pointlessly slow under the metered naive one), so it
        // runs the two serving evaluators — only those two route through
        // the parallel kernels anyway.
        let strategies: &[Strategy] = if doc.len() > 650 {
            &[Strategy::MinContext, Strategy::OptMinContext]
        } else {
            &Strategy::ALL
        };
        for &strategy in strategies {
            let baseline = Engine::new(strategy);
            let threaded: Vec<(usize, Engine)> = [2, 4]
                .into_iter()
                .map(|t| (t, Engine::new(strategy).with_threads(t)))
                .collect();
            // threads(1) must be the literal sequential engine.
            assert_eq!(Engine::new(strategy).with_threads(1).threads(), 1);
            for query in corpus::QUERIES {
                let seq = baseline.evaluate_str(doc, query);
                for (t, engine) in &threaded {
                    let par = engine.evaluate_str(doc, query);
                    check(&format!("{name} / {strategy} / t={t} / {query}"), &seq, par);
                }
            }
        }
    }
}

/// Queries whose steps sweep the big document's whole arena, forwards and
/// backwards (preimages): fused descendants, wide child and attribute steps,
/// reverse and sibling axes, set-filtered and positional predicates,
/// backward propagation, aggregates.
const GATE_QUERIES: &[&str] = &[
    "//@v",
    "//*/@id",
    "/site/*/*",
    "//item//keyword",
    "//*/parent::*",
    "//keyword/ancestor::item",
    "//bid/preceding::item",
    "//item/following::person",
    "//item/following-sibling::person",
    "//*[@id]",
    "//item[keyword and not(bid)]",
    "//item[position() = last()]",
    "//item[@id][2]",
    "(//item)[last()]/preceding::*[3]",
    "count(//*[@v > 500])",
    "sum(//item/@v)",
];

#[test]
#[cfg_attr(
    miri,
    ignore = "gate-sized document sweep is minutes-long under the interpreter"
)]
fn randomized_chunk_geometry_never_changes_results() {
    // The production gate cuts a scan into `min(len / min-chunk, 4 ·
    // threads)` ranges, so on a document past the gate the thread count
    // *is* the chunk geometry: seeded random counts move the seams
    // through the postings columns and the arena, and no answer may
    // change.  Not vacuous: chunks must actually have been dispatched.
    let doc = xmark_doc(&XmarkConfig::sized(GATE_DOC_ELEMENTS));
    let chunks_before = minctx_xml::par::par_chunks_dispatched();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
        let baseline = Engine::new(strategy);
        let threaded: Vec<Engine> = [2, 4, 3 + xorshift(&mut rng) as usize % 6]
            .into_iter()
            .map(|t| Engine::new(strategy).with_threads(t))
            .collect();
        for query in GATE_QUERIES {
            let seq = baseline.evaluate_str(&doc, query);
            for engine in &threaded {
                let par = engine.evaluate_str(&doc, query);
                let t = engine.threads();
                check(&format!("{strategy} / t={t} / {query}"), &seq, par);
            }
            // The plan — routes, modes, cardinalities, memo traffic, fuel —
            // is the sequential one but for the ` par=K` attribution.
            let plan = |engine: &Engine| {
                let text = engine.explain(&doc, query).unwrap().plan_text();
                let rows = text.lines().map(|l| l.split(" par=").next().unwrap());
                rows.collect::<Vec<_>>().join("\n")
            };
            assert_eq!(plan(&threaded[1]), plan(&baseline), "{strategy} / {query}");
        }
    }
    assert!(
        minctx_xml::par::par_chunks_dispatched() > chunks_before,
        "no chunks dispatched: the document is below the kernels' gate"
    );
}
