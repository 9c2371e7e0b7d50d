//! The paper's space half, counted for MINCONTEXT and OPTMINCONTEXT.
//!
//! The peak heap an evaluation holds above the live heap it starts from
//! is measured on a warm second evaluation — the compiled query cached,
//! the scratch pooled — of each Extended Wadler query (`position()` and
//! `last()` in predicates) on balanced binary trees.  OPTMINCONTEXT
//! answers those predicates for a whole ranked list by typed columns that
//! read the ranks in place, so it peaks at no more than twice what plain
//! MINCONTEXT's per-candidate evaluation does; and each strategy's peak
//! grows at most ×2.3 per doubling of `|D|`, so neither holds more than a
//! constant number of words per node.  Every engine pins
//! [`Engine::with_optimizer`].  One measurement at a time in this binary,
//! so nothing else allocates while one counts; the `d = 12…16` tier is
//! `#[ignore]`d for a release run.

use minctx_bench::{uniform_tree, CountingAllocator, WADLER_QUERIES};
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
