//! Parallel-evaluation smoke: proves the threads knob is agreeing, free
//! when off, and never a loss when on.
//!
//! ```text
//! cargo run --release -p minctx-bench --bin par_smoke [elements]
//! ```
//!
//! Builds the XMark-style corpus (10⁵ elements by default) and asserts:
//!
//! * `Engine::with_threads(4)` produces **identical** values to
//!   `with_threads(1)` on every smoke query under the kernels' production
//!   size gate, under both serving strategies, on a corpus three times
//!   that size — the smallest tier whose arena is past the gate — and
//!   the run is not vacuous: the `par/*` counters must show chunked
//!   regions actually dispatched;
//! * a `with_threads(1)` engine stays within 1% of the default-built
//!   engine — threads=1 constructs no pool and must *be* the pre-knob
//!   sequential code path, not a gated version of it;
//! * with at least two cores, no query of the repo benchmark's
//!   `arena-paths` / `arena-preds` workloads is slower at
//!   `with_threads(2)` than at `with_threads(1)` (bound: 1.10×, minimum
//!   over interleaved rounds) — the kernels' size gate keeps every scan
//!   that two threads were measured to lose on inline, which at this
//!   tier is all of them (DESIGN.md "Parallel evaluation" has the table
//!   behind it).  On one core the check prints "skipped: 1 core".
//!
//! The CI `par-smoke` job runs this binary.

use minctx_bench::{values_agree, xmark_doc, XmarkConfig};
use minctx_core::{Engine, Strategy};
use std::time::{Duration, Instant};

/// Queries spanning the kernels under a threaded engine: postings scans
/// (fused descendant), wide child steps and reverse axes (walks, never
/// cut), set-filtered and positional predicates over large context sets, a
/// scalar aggregate — and the two arena scans a pool can still cut at this
/// tier, `preceding` / `following` under a non-name test from a set.
const QUERIES: &[&str] = &[
    "//item",
    "//item[@id]",
    "/site/*/*",
    "//item[bid]/seller",
    "//keyword/ancestor::item",
    "//bid[position() mod 7 = 0]",
    "count(//item[@id]) + count(//person)",
    "sum(//@v)",
    "count(//bid/preceding::*)",
    "count(//keyword/following::node())",
];

/// Evaluations per timing sample; bound asserted on the minimum over
/// interleaved rounds (one-sided noise — see obs_smoke).
const ITERS: u32 = 8;
const ROUNDS: usize = 40;
/// Rounds per query of the t=2 vs t=1 comparison (26 queries).
const PAIR_ROUNDS: usize = 25;

/// Absolute slack absorbing timer granularity on top of the 1% bound.
const SLACK: Duration = Duration::from_micros(20);

fn main() {
    let elements: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("elements must be an integer"))
        .unwrap_or(100_000);
    let doc = xmark_doc(&XmarkConfig::sized(elements));
    println!(
        "corpus: {} nodes ({} elements)",
        doc.len(),
        doc.element_count()
    );

    agreement_check(&xmark_doc(&XmarkConfig::sized(3 * elements)));
    overhead_check(&doc);
    two_thread_check(&doc);
    println!("par smoke OK");
}

/// threads=4 must agree with threads=1, value for value (node-sets
/// compare by pre-order ordinal), under the kernels' production gate.
fn agreement_check(doc: &minctx_xml::Document) {
    let chunks_before = minctx_xml::par::par_chunks_dispatched();
    for strategy in [Strategy::MinContext, Strategy::OptMinContext] {
        let seq = Engine::new(strategy).with_threads(1);
        let par = Engine::new(strategy).with_threads(4);
        for q in QUERIES {
            let a = seq.evaluate_str(doc, q).unwrap();
            let b = par.evaluate_str(doc, q).unwrap();
            assert!(
                values_agree(&a, &b),
                "{strategy} / {q}: threads=1 {a:?} != threads=4 {b:?}"
            );
        }
    }
    let dispatched = minctx_xml::par::par_chunks_dispatched() - chunks_before;
    assert!(
        dispatched > 0,
        "no chunks dispatched on {} nodes — the agreement check is vacuous",
        doc.len()
    );
    println!(
        "  agreement: {} queries x 2 strategies identical at t=4 \
         ({dispatched} chunks dispatched, {} bypasses)",
        QUERIES.len(),
        minctx_xml::par::par_bypasses(),
    );
}

/// One timing sample: the per-call mean over [`ITERS`] back-to-back
/// calls.
fn sample<R>(mut f: impl FnMut() -> R) -> Duration {
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(f());
    }
    t0.elapsed() / ITERS
}

/// threads=1 vs the default-built engine: both must be the same
/// sequential code path (`with_threads(1)` spawns no pool), so the
/// knob's mere existence costs the sequential user nothing.
fn overhead_check(doc: &minctx_xml::Document) {
    const QUERY: &str = "//item[@id]";
    let base_engine = Engine::new(Strategy::MinContext);
    let knob_engine = Engine::new(Strategy::MinContext).with_threads(1);
    let par_engine = Engine::new(Strategy::MinContext).with_threads(4);
    let parsed = minctx_syntax::parse_xpath(QUERY).unwrap();
    let want = base_engine.evaluate(doc, &parsed).unwrap();
    assert_eq!(knob_engine.evaluate(doc, &parsed).unwrap(), want);

    // Three attempts: a genuine regression fails all of them, an
    // unlucky scheduling phase at most one or two (same protocol as
    // obs_smoke's recorder bound).
    let mut verdict = Err(String::new());
    for attempt in 1..=3 {
        let mut base = Duration::MAX;
        let mut knob = Duration::MAX;
        let mut par4 = Duration::MAX;
        for _ in 0..ROUNDS {
            base = base.min(sample(|| base_engine.evaluate(doc, &parsed).unwrap()));
            knob = knob.min(sample(|| knob_engine.evaluate(doc, &parsed).unwrap()));
            par4 = par4.min(sample(|| par_engine.evaluate(doc, &parsed).unwrap()));
        }
        let pct = (knob.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
        println!(
            "  eval {QUERY} (attempt {attempt}): default {:.4} ms, \
             threads=1 {:+.2}%, threads=4 {:.4} ms (informational)",
            base.as_secs_f64() * 1e3,
            pct,
            par4.as_secs_f64() * 1e3,
        );
        if knob > base + base / 100 + SLACK {
            verdict = Err(format!(
                "threads=1 runs {pct:+.2}% over the default sequential engine (bound: +1%)"
            ));
            continue;
        }
        verdict = Ok(());
        break;
    }
    if let Err(msg) = verdict {
        panic!("{msg} on all attempts");
    }
}

/// The queries of the repo benchmark's `arena-paths` and `arena-preds`
/// workloads (`benchmark/src/gen.rs` `PATH_QUERIES` / `PRED_QUERIES`;
/// that harness is its own workspace, so the lists are repeated here).
const BENCHMARK_QUERIES: &[&str] = &[
    "//item",
    "/site/item",
    "//parlist/listitem",
    "/site/*/*",
    "//item//keyword",
    "//listitem/ancestor::parlist",
    "//item/following-sibling::person",
    "//keyword/parent::*",
    "//item/@id",
    "//bid/preceding::item",
    "//item | //person",
    "count(//item)",
    "//item[@id]",
    "//item[keyword]",
    "//item[not(@id)]",
    "//item[@v > 500]",
    "//item[position() = last()]",
    "//parlist[count(listitem) > 2]",
    "//item[@id][2]",
    "//item[.//keyword and not(bid)]",
    "//person[position() mod 2 = 1]/@id",
    "//item[following-sibling::item]",
    "//item[description/parlist]",
    "//item[count(.//listitem) > count(.//keyword)]",
    "sum(//item/@v)",
    "count(//*[@id])",
];

/// threads=2 vs threads=1 on every benchmark query, compile cache hot, on
/// the engine configuration the benchmark measures: t=2 may cost at most
/// 10% (plus timer slack) over t=1, minimum over interleaved rounds.
fn two_thread_check(doc: &minctx_xml::Document) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("  t=2 vs t=1: skipped: 1 core");
        return;
    }
    let engine = |threads| {
        Engine::new(Strategy::OptMinContext)
            .with_optimizer(true)
            .with_threads(threads)
    };
    let (one, two) = (engine(1), engine(2));
    println!("  t=2 vs t=1 ({cores} cores), min of {PAIR_ROUNDS} interleaved rounds:");
    for q in BENCHMARK_QUERIES {
        let parsed = minctx_syntax::parse_xpath(q).unwrap();
        let want = one.evaluate(doc, &parsed).unwrap();
        assert!(
            values_agree(&want, &two.evaluate(doc, &parsed).unwrap()),
            "{q}"
        );
        // Three attempts, as in `overhead_check`: a real regression fails
        // them all, a scheduling hiccup at most one or two.
        let mut ratios = Vec::new();
        while ratios.len() < 3 {
            let (mut t1, mut t2) = (Duration::MAX, Duration::MAX);
            for _ in 0..PAIR_ROUNDS {
                t1 = t1.min(sample(|| one.evaluate(doc, &parsed).unwrap()));
                t2 = t2.min(sample(|| two.evaluate(doc, &parsed).unwrap()));
            }
            let ratio = t2.as_secs_f64() / t1.as_secs_f64();
            println!(
                "    {q:<50} t1 {:>8.4} ms  t2 {:>8.4} ms  {ratio:.2}x",
                t1.as_secs_f64() * 1e3,
                t2.as_secs_f64() * 1e3,
            );
            if t2 <= t1 + t1 / 10 + SLACK {
                ratios.clear();
                break;
            }
            ratios.push(ratio);
        }
        assert!(
            ratios.is_empty(),
            "{q}: threads=2 over threads=1 was {ratios:.2?} (bound: 1.10x) on all attempts"
        );
    }
}
