//! The paper's space half, counted for MINCONTEXT and OPTMINCONTEXT, and
//! against the context-value tables they improve on.
//!
//! The peak heap an evaluation holds above the live heap it starts from
//! is measured on a warm second evaluation — the compiled query cached,
//! the scratch pooled — of each Extended Wadler query (`position()` and
//! `last()` in predicates) on balanced binary trees.  OPTMINCONTEXT
//! answers those predicates for a whole ranked list by typed columns that
//! read the ranks in place, so it peaks at no more than twice what plain
//! MINCONTEXT's per-candidate evaluation does; and each strategy's peak
//! grows at most ×2.3 per doubling of `|D|`, so neither holds more than a
//! constant number of words per node.  The same ×2.3 bounds each
//! strategy's peak per doubling of `|Q|`, on every member of the query
//! families the theorem suite counts fuel on.  The context-value tables
//! grow at least ×3.5 per doubling on the `last()` queries and ×7 on the
//! running example E, a cell per (position, size) pair and per (node,
//! position, size).  Every engine pins [`Engine::with_optimizer`].  One
//! measurement at a time in this binary, so nothing else allocates while
//! one counts; the `d = 12…16` tier is `#[ignore]`d for a release run.

use minctx_bench::{
    query_families, uniform_tree, CountingAllocator, FULL_XPATH_QUERIES, WADLER_QUERIES,
};
use minctx_core::{Engine, Strategy, Value};
use minctx_syntax::Query;
use minctx_xml::Document;
use std::ops::RangeInclusive;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The two tiers share the gauges: one measures at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// OPTMINCONTEXT's peak over MINCONTEXT's, at most.
const OVER_MINCONTEXT: usize = 2;

/// A strategy's peak growth per doubling of `|D|`, at most.
const PER_DOUBLING: f64 = 2.3;

/// The peak above the live heap of a warm second evaluation of `q`, the
/// answer included.
fn peak(engine: &Engine, doc: &Document, q: &Query) -> usize {
    let want = engine.evaluate(doc, q).unwrap();
    let live = ALLOC.live();
    ALLOC.reset_peak();
    let got = engine.evaluate(doc, q).unwrap();
    let peak = ALLOC.peak() - live;
    assert!(matches!(&got, Value::NodeSet(ns) if !ns.is_empty()));
    assert_eq!(got, want);
    peak
}

fn space_bounds(depths: RangeInclusive<usize>) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let docs: Vec<_> = depths.clone().map(|d| uniform_tree(d, 2)).collect();
    for optimizer in [false, true] {
        let [min, opt] = [Strategy::MinContext, Strategy::OptMinContext]
            .map(|s| Engine::new(s).with_optimizer(optimizer));
        for q in WADLER_QUERIES {
            let query = minctx_syntax::parse_xpath(q).unwrap();
            let mut before: Option<[usize; 2]> = None;
            for (d, doc) in depths.clone().zip(&docs) {
                let peaks = [peak(&min, doc, &query), peak(&opt, doc, &query)];
                let [m, o] = peaks;
                assert!(
                    o <= OVER_MINCONTEXT * m,
                    "{q} at d = {d}, optimizer {optimizer}: OPTMINCONTEXT peaks at {o} bytes, \
                     MINCONTEXT at {m}"
                );
                if let Some(before) = before {
                    for (s, (&now, was)) in ["MINCONTEXT", "OPTMINCONTEXT"]
                        .iter()
                        .zip(peaks.iter().zip(before))
                    {
                        assert!(
                            now as f64 <= PER_DOUBLING * was as f64,
                            "{q} at d = {d}, optimizer {optimizer}: {s} peaks at {now} bytes, \
                             {was} at d - 1"
                        );
                    }
                }
                before = Some(peaks);
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn wadler_peaks_stay_within_twice_mincontext_at_depths_7_to_11() {
    space_bounds(7..=11);
}

#[test]
#[ignore = "up to 2¹⁷ nodes: run in release with --ignored"]
fn wadler_peaks_stay_within_twice_mincontext_at_depths_12_to_16() {
    space_bounds(12..=16);
}

#[test]
#[cfg_attr(miri, ignore)]
fn peaks_grow_at_most_2_3x_per_doubling_of_the_query_on_every_family() {
    // Theorems 7, 10 and 13 bound space in |Q| as well as |D|: at a fixed
    // document (511 elements, each with `@v`, and 256 texts), the peak per
    // doubling of k = 4 → 32 terms of each family in `query_families`,
    // measured ×1.02–1.97.  `Naive` is left out, as in the theorem suite.
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let doc = uniform_tree(8, 2);
    let members = [4, 8, 16, 32].map(query_families);
    for (f, (family, _)) in members[0].iter().enumerate() {
        for optimizer in [false, true] {
            for s in [Strategy::MinContext, Strategy::OptMinContext] {
                let engine = Engine::new(s).with_optimizer(optimizer);
                let peaks: Vec<usize> = members
                    .iter()
                    .map(|m| peak(&engine, &doc, &minctx_syntax::parse_xpath(&m[f].1).unwrap()))
                    .collect();
                for pair in peaks.windows(2) {
                    assert!(
                        pair[1] as f64 <= PER_DOUBLING * pair[0] as f64,
                        "{family}, {s}, optimizer {optimizer}: peaks at {peaks:?} bytes \
                         for k = 4, 8, 16, 32"
                    );
                }
            }
        }
    }
}

/// The context-value tables' peak growth per doubling of `|D|`, at
/// least: one cell per (position, size) pair on a predicate reading
/// `last()`, ×4 in the limit.
const CVT_LAST_PER_DOUBLING: f64 = 3.5;

/// The same on the running example E, which also reads the node: one
/// cell per (node, position, size), ×8 in the limit.
const CVT_E_PER_DOUBLING: f64 = 7.0;

#[test]
#[cfg_attr(miri, ignore)]
fn context_value_tables_peak_at_every_position_and_size() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // E fills 523 MB at d = 6, so the tier stops at d = 5.
    let docs: Vec<_> = (3..=5).map(|d| uniform_tree(d, 2)).collect();
    let e = FULL_XPATH_QUERIES[0];
    assert!(e.contains("self::* = 100"), "E is {e:?}");
    let reads_last = WADLER_QUERIES.iter().filter(|q| q.contains("last()"));
    let bounds = reads_last
        .map(|&q| (q, CVT_LAST_PER_DOUBLING))
        .chain([(e, CVT_E_PER_DOUBLING)]);
    for optimizer in [false, true] {
        let cvt = Engine::new(Strategy::ContextValueTable).with_optimizer(optimizer);
        for (q, at_least) in bounds.clone() {
            let query = minctx_syntax::parse_xpath(q).unwrap();
            let peaks: Vec<usize> = docs.iter().map(|doc| peak(&cvt, doc, &query)).collect();
            for pair in peaks.windows(2) {
                let ratio = pair[1] as f64 / pair[0] as f64;
                assert!(
                    ratio >= at_least,
                    "{q}, optimizer {optimizer}: CVT peaks at {peaks:?} bytes, ×{ratio:.2} per doubling"
                );
            }
        }
    }
}
