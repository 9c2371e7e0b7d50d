//! Reproduces the paper's timing tables, plus the axis-kernel regression
//! snapshot used to guard the postings-index fast paths.
//!
//! ```text
//! cargo run --release -p minctx-bench --bin tables [--quick]
//! cargo run --release -p minctx-bench --bin tables -- --json BENCH_baseline.json
//! ```
//!
//! Default mode prints one table per query family (rows = document size,
//! columns = strategy, cells = median milliseconds, "—" where the naive
//! budget tripped or a strategy was skipped as hopeless at that size),
//! followed by the axis-step section on an XMark-style corpus.
//!
//! `--json PATH` skips the strategy tables and runs the regression
//! snapshot — the axis-step section (10⁵-element corpus; 2·10⁴ with
//! `--quick`), the `stream/*` rows (streaming vs arena at the 10⁵ and
//! 10⁶ tiers; quick: 2·10⁴/10⁵), the `index/*` rows (snapshot
//! write / zero-copy open vs re-parse / cold first-query at the same
//! tiers), the `serve/*` rows (worker-pool qps and p50/p99 latency
//! at 1/2/4/8 workers over a shared snapshot, plus a
//! pathological-query injection run whose tail is bounded by the
//! request deadline), the `obs/*` rows (engine evaluation with the
//! default disabled recorder vs. a recorder draining to a discarding
//! sink, `Engine::explain`, and Prometheus exposition rendering), and
//! the `par/*` rows (`Engine::with_threads` wall time and speedup at
//! threads 1/2/4) — writing
//! machine-diffable JSON to `PATH`.
//! `BENCH_baseline.json` at the repo root is one such committed
//! snapshot; regenerate and diff against it before landing kernel,
//! streaming or snapshot-format changes.

use minctx_bench::{
    exponential_doc, exponential_family, fmt_ms, time, time_strategy, time_strategy_opt, wide_doc,
    xmark_doc, CountingAllocator, XmarkConfig, CORE_XPATH_QUERIES, FULL_XPATH_QUERIES,
    WADLER_QUERIES,
};
use minctx_core::{Engine, Strategy};
use minctx_stream::StreamingEngine;
use minctx_xml::axes::{axis_image, Axis, NodeTest};
use minctx_xml::serialize::to_xml_string;
use minctx_xml::{Document, NodeSet};

const NAIVE_BUDGET: u64 = 50_000_000;

/// Byte counters behind the `stream/*/alloc-*` rows.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json requires a path").clone());

    let snapshot_elements = if quick { 20_000 } else { 100_000 };
    let snapshot_runs = if quick { 3 } else { 5 };

    // Streaming tiers: a comparison corpus and a 10⁶-element scale
    // corpus (streaming's memory stays bounded by depth + result there —
    // that is its point; since PR 5 the arena evaluators run at this
    // scale too, so the comparison covers both tiers).
    let (stream_compare, stream_scale) = if quick {
        (20_000, 100_000)
    } else {
        (100_000, 1_000_000)
    };

    if let Some(path) = json_path {
        let cfg = XmarkConfig::sized(snapshot_elements);
        let doc = xmark_doc(&cfg);
        let mut entries = axis_snapshot(&doc, snapshot_runs);
        entries.extend(stream_snapshot(stream_compare, snapshot_runs));
        entries.extend(stream_snapshot(stream_scale, snapshot_runs));
        entries.extend(index_snapshot(stream_compare, snapshot_runs));
        entries.extend(index_snapshot(stream_scale, snapshot_runs));
        entries.extend(serve_snapshot(stream_compare));
        entries.extend(serve_snapshot(stream_scale));
        entries.extend(obs_snapshot(&doc, snapshot_runs));
        entries.extend(par_snapshot(stream_compare, snapshot_runs));
        entries.extend(par_snapshot(stream_scale, snapshot_runs));
        print_snapshot(&doc, &entries);
        std::fs::write(&path, snapshot_json(&cfg, &doc, &entries))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
        return;
    }

    let (sizes, runs) = if quick {
        (vec![50, 100], 3)
    } else {
        (vec![50, 200, 800], 5)
    };
    let docs: Vec<(usize, Document)> = sizes.iter().map(|&n| (n, wide_doc(n))).collect();

    banner("Exponential family (Section 1): query size grows, |D| = 5");
    header();
    let doc = exponential_doc();
    for i in [4usize, 8, 12, 16, 20] {
        let q = exponential_family(i);
        print!("{:>8}", format!("i={i}"));
        for s in Strategy::ALL {
            let budget = (s == Strategy::Naive).then_some(NAIVE_BUDGET);
            print!(" {}", fmt_ms(time_strategy(&doc, s, &q, budget, runs)));
        }
        println!();
    }

    for (title, queries) in [
        ("Core XPath (Theorem 7)", CORE_XPATH_QUERIES),
        ("Extended Wadler (Theorem 10)", WADLER_QUERIES),
        ("Full XPath (Theorem 13)", FULL_XPATH_QUERIES),
    ] {
        banner(title);
        for q in queries {
            println!("  query: {q}");
            header();
            for (_, doc) in &docs {
                print!("{:>8}", format!("|D|={}", doc.len()));
                for s in Strategy::ALL {
                    // The cubic tables are hopeless beyond small documents
                    // when the query is position-dependent; skip instead of
                    // stalling the table (that cliff is the paper's point).
                    let skip_cvt = s == Strategy::ContextValueTable && doc.len() > 650;
                    let budget = (s == Strategy::Naive).then_some(NAIVE_BUDGET);
                    let t = if skip_cvt {
                        None
                    } else {
                        time_strategy(doc, s, q, budget, runs)
                    };
                    print!(" {}", fmt_ms(t));
                }
                println!();
            }
        }
    }

    banner("Axis-step kernels (XMark-style corpus)");
    let cfg = XmarkConfig::sized(snapshot_elements);
    let doc = xmark_doc(&cfg);
    let entries = axis_snapshot(&doc, snapshot_runs);
    print_snapshot(&doc, &entries);

    banner("Streaming vs arena (one-pass evaluate_reader)");
    for elements in [stream_compare, stream_scale] {
        let entries = stream_snapshot(elements, snapshot_runs);
        for (key, v) in &entries {
            println!("  {key:<52} {v:>10.4}");
        }
    }

    banner("Persistent index (snapshot write / zero-copy open)");
    for elements in [stream_compare, stream_scale] {
        let entries = index_snapshot(elements, snapshot_runs);
        for (key, v) in &entries {
            println!("  {key:<52} {v:>10.4}");
        }
    }

    banner("Concurrent service (shared-snapshot worker pool)");
    for elements in [stream_compare, stream_scale] {
        let entries = serve_snapshot(elements);
        for (key, v) in &entries {
            println!("  {key:<52} {v:>10.4}");
        }
    }

    banner("Observability (recorder overhead / explain / exposition)");
    for (key, v) in &obs_snapshot(&doc, snapshot_runs) {
        println!("  {key:<52} {v:>10.4}");
    }

    banner("Parallel evaluation (threads knob)");
    for elements in [stream_compare, stream_scale] {
        for (key, v) in &par_snapshot(elements, snapshot_runs) {
            println!("  {key:<52} {v:>10.4}");
        }
    }
}

/// The `par/*` rows: what `Engine::with_threads` buys (or costs) on
/// this machine.  For each tier, evaluation wall time of two
/// parallel-eligible queries at threads 1/2/4 with a derived
/// `speedup/tN` ratio (t1 / tN, so >1 means the pool helped).  On a
/// single-core container the speedups sit at ~1.0 — the rows then record
/// that the coordination overhead stays in the noise, not a speedup (see
/// DESIGN.md "Parallel evaluation").
fn par_snapshot(elements: usize, runs: usize) -> Vec<(String, f64)> {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let tag = format!("{}k", elements / 1000);
    let doc = xmark_doc(&XmarkConfig::sized(elements));
    let mut out: Vec<(String, f64)> = Vec::new();
    for q in ["//item[@id]", "/site/*/*"] {
        let query = minctx_syntax::parse_xpath(q).unwrap();
        let mut t1_ms = 0.0;
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(Strategy::MinContext).with_threads(threads);
            engine.evaluate(&doc, &query).unwrap(); // warm compile + pool
            let t = ms(time(runs, || engine.evaluate(&doc, &query).unwrap()));
            out.push((format!("par/{tag}/eval-ms/t{threads}/{q}"), t));
            if threads == 1 {
                t1_ms = t;
            } else {
                out.push((format!("par/{tag}/speedup/t{threads}/{q}"), t1_ms / t));
            }
        }
    }
    out
}

/// The `serve/*` rows: saturation throughput and latency of the
/// `minctx-serve` worker pool on a shared snapshot.  16 client threads
/// issue blocking round trips over a mixed scalar workload; rows record
/// qps and p50/p99 latency at 1/2/4/8 workers (the scaling acceptance:
/// ≥3× qps at 4 workers vs 1 on the 10⁵ tier), plus a run with a
/// pathological `preceding::*` query injected at 1/100 density under a
/// 100 ms deadline — its p99 must stay bounded by that deadline, not by
/// the query's natural (multi-second) cost.
fn serve_snapshot(elements: usize) -> Vec<(String, f64)> {
    use minctx_core::{write_snapshot, Budget, EvalError};
    use minctx_serve::{Corpus, ServeEngine, ServeError};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const CLIENTS: usize = 16;
    const MIX: &[&str] = &[
        "count(//item)",
        "count(//item[@id])",
        "count(//parlist/listitem)",
        "boolean(//listitem)",
    ];
    const PATHOLOGICAL: &str = "count(//*[count(preceding::*) > 1])";
    const DEADLINE: Duration = Duration::from_millis(100);

    let tag = format!("{}k", elements / 1000);
    let per_client = (3_200_000 / elements.max(1)).clamp(8, 32);
    let doc = xmark_doc(&XmarkConfig::sized(elements));
    let path = std::env::temp_dir().join(format!(
        "minctx-tables-serve-{}-{tag}.mctx",
        std::process::id()
    ));
    write_snapshot(&doc, &path).unwrap();
    drop(doc);

    // One saturation run: `clients` threads in blocking round trips,
    // returning (wall time, sorted per-request latencies, shed count).
    let run = |workers: usize, inject: bool| -> (Duration, Vec<Duration>, usize) {
        let serve = Arc::new(ServeEngine::builder().workers(workers).build());
        for q in MIX {
            serve
                .query(Corpus::Snapshot(path.clone()), q)
                .wait()
                .unwrap();
        }
        let start = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let serve = Arc::clone(&serve);
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut lats = Vec::with_capacity(per_client);
                    let mut shed = 0usize;
                    for i in 0..per_client {
                        let n = c * per_client + i;
                        let t0 = Instant::now();
                        let res = if inject && n % 100 == 0 {
                            serve.query_with_budget(
                                Corpus::Snapshot(path.clone()),
                                PATHOLOGICAL,
                                Budget::timeout(DEADLINE),
                            )
                        } else {
                            serve.query(Corpus::Snapshot(path.clone()), MIX[n % MIX.len()])
                        }
                        .wait();
                        lats.push(t0.elapsed());
                        match res {
                            Ok(_) => {}
                            Err(ServeError::Eval(EvalError::BudgetExhausted { .. })) => shed += 1,
                            Err(e) => panic!("serve bench request failed: {e:?}"),
                        }
                    }
                    (lats, shed)
                })
            })
            .collect();
        let mut lats = Vec::new();
        let mut shed = 0;
        for h in handles {
            let (l, s) = h.join().unwrap();
            lats.extend(l);
            shed += s;
        }
        let wall = start.elapsed();
        lats.sort_unstable();
        (wall, lats, shed)
    };

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let total = (CLIENTS * per_client) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (wall, lats, _) = run(workers, false);
        out.push((
            format!("serve/{tag}/qps/w{workers}"),
            total / wall.as_secs_f64(),
        ));
        out.push((
            format!("serve/{tag}/p50-ms/w{workers}"),
            ms(lats[lats.len() / 2]),
        ));
        out.push((
            format!("serve/{tag}/p99-ms/w{workers}"),
            ms(lats[lats.len() * 99 / 100]),
        ));
    }
    // Pathological injection at 4 workers: the deadline bounds the tail.
    let (wall, lats, shed) = run(4, true);
    out.push((
        format!("serve/{tag}/qps/w4-injected"),
        total / wall.as_secs_f64(),
    ));
    out.push((
        format!("serve/{tag}/p99-ms/w4-injected"),
        ms(lats[lats.len() * 99 / 100]),
    ));
    out.push((format!("serve/{tag}/shed/w4-injected"), shed as f64));
    std::fs::remove_file(&path).ok();
    out
}

/// The `index/*` rows: snapshot write time, zero-copy open time vs the
/// XML re-parse it replaces (the acceptance ratio: open must be ≥ 5×
/// faster at the 10⁶ tier), and cold first-query latency — open a fresh
/// snapshot, compile and answer one serving query end to end.
fn index_snapshot(elements: usize, runs: usize) -> Vec<(String, f64)> {
    use minctx_core::{open_snapshot, write_snapshot};
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let tag = format!("{}k", elements / 1000);
    let cfg = XmarkConfig::sized(elements);
    let doc = xmark_doc(&cfg);
    let xml = to_xml_string(&doc);
    let path = std::env::temp_dir().join(format!(
        "minctx-tables-index-{}-{tag}.mctx",
        std::process::id()
    ));
    let mut out: Vec<(String, f64)> = Vec::new();
    out.push((
        format!("index/{tag}/write-snapshot"),
        ms(time(runs, || write_snapshot(&doc, &path).unwrap())),
    ));
    drop(doc);
    out.push((
        format!("index/{tag}/arena-parse"),
        ms(time(runs, || minctx_xml::parse(&xml).unwrap())),
    ));
    drop(xml);
    out.push((
        format!("index/{tag}/open-snapshot"),
        ms(time(runs, || open_snapshot(&path).unwrap())),
    ));
    for q in ["//item", "//item[@id]", "count(//item)"] {
        let query = minctx_syntax::parse_xpath(q).unwrap();
        // Cold serve: fresh open, fresh engine (compile included).
        out.push((
            format!("index/{tag}/first-query/{q}"),
            ms(time(runs, || {
                let snap = open_snapshot(&path).unwrap();
                Engine::new(Strategy::MinContext)
                    .evaluate(&snap, &query)
                    .unwrap()
            })),
        ));
    }
    std::fs::remove_file(&path).ok();
    out
}

/// The streaming rows: wall-time of `evaluate_reader` over serialized
/// XMark text vs. the arena pipeline (parse + MINCONTEXT evaluate) on
/// the same text, plus bytes-allocated / peak-working-set for the
/// streamed pass.  Keys carry the element count so tiers diff cleanly.
fn stream_snapshot(elements: usize, runs: usize) -> Vec<(String, f64)> {
    use minctx_stream::StreamOutcome;
    let mut out: Vec<(String, f64)> = Vec::new();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    let cfg = XmarkConfig::sized(elements);
    let doc = xmark_doc(&cfg);
    let xml = to_xml_string(&doc);
    let tag = format!("{}k", elements / 1000);
    out.push((
        format!("stream/{tag}/arena-parse"),
        ms(time(runs, || minctx_xml::parse(&xml).unwrap())),
    ));
    drop(doc);
    let engine = Engine::new(Strategy::Streaming);
    let arena = Engine::new(Strategy::MinContext);
    // One reparse for the whole arena comparison (its cost is the
    // `arena-parse` row above).  PR 5 widened the arena memo keys to
    // u128, so the arena evaluators run at every tier (the old 2²¹-node
    // packed-key cap excluded the 10⁶ tier, whose rows used to stop at
    // the parse cost).
    let arena_doc = minctx_xml::parse(&xml).unwrap();
    for q in ["//item", "//item[@id]", "count(//item)"] {
        let query = minctx_syntax::parse_xpath(q).unwrap();
        let streamed = engine.evaluate_reader_str(&query, &xml).unwrap();
        assert!(
            streamed.is_streamed(),
            "{q} fell back: {:?}",
            streamed.fallback_reason()
        );
        out.push((
            format!("stream/{tag}/stream/{q}"),
            ms(time(runs, || {
                engine.evaluate_reader_str(&query, &xml).unwrap()
            })),
        ));
        // One instrumented pass for the allocation story.
        let live = ALLOC.live();
        let total_before = ALLOC.total();
        ALLOC.reset_peak();
        let outc = engine.evaluate_reader_str(&query, &xml).unwrap();
        let peak = ALLOC.peak().saturating_sub(live);
        let total = ALLOC.total() - total_before;
        std::hint::black_box(&outc);
        out.push((format!("stream/{tag}/alloc-peak-mb/{q}"), mb(peak)));
        out.push((format!("stream/{tag}/alloc-total-mb/{q}"), mb(total)));
        // Arena wall-time on a prebuilt document (the steady-state
        // serving shape; `arena-parse` above is the build cost).
        let t = time(runs, || arena.evaluate(&arena_doc, &query).unwrap());
        out.push((format!("stream/{tag}/arena-eval/{q}"), ms(t)));
        if let StreamOutcome::Streamed(v) = &streamed {
            let want = arena.evaluate(&arena_doc, &query).unwrap();
            let agree = match (v, &want) {
                (minctx_stream::StreamValue::Nodes(msv), minctx_core::Value::NodeSet(ns)) => {
                    msv.len() == ns.len()
                        && msv
                            .iter()
                            .zip(ns.iter())
                            .all(|(m, n)| m.ordinal as usize == n.index())
                }
                (minctx_stream::StreamValue::Number(x), minctx_core::Value::Number(y)) => x == y,
                _ => false,
            };
            assert!(agree, "{q}: stream/arena divergence on the bench corpus");
        }
    }
    out
}

/// The `obs/*` rows: what the observability layer costs.  `eval` is the
/// production compiled-query path carrying the engine's default
/// *disabled* recorder, `eval-traced` the same engine draining lifecycle
/// spans into a discarding JSON-lines sink, and `explain` the fully
/// profiled evaluation (per-step timers on).  The committed
/// eval/eval-traced gap is the record that tracing stays in the noise;
/// the `obs_smoke` binary asserts the bound, these rows track it.
fn obs_snapshot(doc: &Document, runs: usize) -> Vec<(String, f64)> {
    use minctx_obs::{JsonLinesSink, Recorder, Registry};
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut out: Vec<(String, f64)> = Vec::new();
    let q = "//item[@id]";
    let query = minctx_syntax::parse_xpath(q).unwrap();

    let plain = Engine::new(Strategy::MinContext);
    plain.evaluate(doc, &query).unwrap(); // warm the compile cache
    out.push((
        format!("obs/eval/{q}"),
        ms(time(runs, || plain.evaluate(doc, &query).unwrap())),
    ));
    let traced = Engine::new(Strategy::MinContext).with_recorder(Recorder::to_sink(
        std::sync::Arc::new(JsonLinesSink::new(std::io::sink())),
    ));
    traced.evaluate(doc, &query).unwrap();
    out.push((
        format!("obs/eval-traced/{q}"),
        ms(time(runs, || traced.evaluate(doc, &query).unwrap())),
    ));
    out.push((
        format!("obs/explain/{q}"),
        ms(time(runs, || plain.explain(doc, q).unwrap())),
    ));

    // Exposition cost on a registry shaped like a busy serving pool's.
    let registry = Registry::new();
    for i in 0..8 {
        registry.counter(&format!("bench/counter_{i}")).add(i);
    }
    for i in 0..4 {
        let h = registry.histogram(&format!("bench/histogram_{i}"));
        for v in 0..10_000u64 {
            h.record(v * v);
        }
    }
    out.push((
        "obs/render-prometheus".into(),
        ms(time(runs, || registry.render_prometheus())),
    ));
    out
}

/// Times the name-test axis kernels and a handful of serving-shaped engine
/// queries on one document.  Keys are stable across revisions so JSON
/// snapshots diff cleanly.
fn axis_snapshot(doc: &Document, runs: usize) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let root = NodeSet::singleton(doc.root());
    let elems: NodeSet = doc
        .all_nodes()
        .filter(|&n| doc.kind(n).is_element())
        .collect();
    let item = NodeTest::name("item");
    let parlist_set = axis_image(doc, Axis::Descendant, &root, &NodeTest::name("parlist"));

    out.push((
        "axis/descendant::item/from-root".into(),
        ms(time(runs, || {
            axis_image(doc, Axis::Descendant, &root, &item)
        })),
    ));
    out.push((
        "axis/descendant::item/from-parlist".into(),
        ms(time(runs, || {
            axis_image(doc, Axis::Descendant, &parlist_set, &item)
        })),
    ));
    out.push((
        "axis/child::item/from-all-elements".into(),
        ms(time(runs, || axis_image(doc, Axis::Child, &elems, &item))),
    ));
    out.push((
        "axis/attribute::id/from-all-elements".into(),
        ms(time(runs, || {
            axis_image(doc, Axis::Attribute, &elems, &NodeTest::name("id"))
        })),
    ));
    out.push((
        "axis/following::item/from-parlist".into(),
        ms(time(runs, || {
            axis_image(doc, Axis::Following, &parlist_set, &item)
        })),
    ));
    // Control: a kind test over everything — no postings fast path exists,
    // so this row should stay flat across kernel revisions.
    out.push((
        "axis/descendant::node()/from-root".into(),
        ms(time(runs, || {
            axis_image(doc, Axis::Descendant, &root, &NodeTest::AnyNode)
        })),
    ));

    for q in [
        "//item",
        "/site/item",
        "//parlist/listitem",
        "count(//item)",
        "//item[@id]",
    ] {
        let t = time_strategy(doc, Strategy::MinContext, q, None, runs)
            .unwrap_or_else(|| panic!("query {q} failed on the snapshot corpus"));
        out.push((format!("query/{q}"), ms(t)));
    }
    // The same serving queries with the query-IR rewrite pipeline off:
    // the query-opt/raw gap is the committed record of what the rewrite
    // passes buy on this corpus.
    for q in ["//item", "//item[@id]"] {
        let t = time_strategy_opt(doc, Strategy::MinContext, q, None, runs, false)
            .unwrap_or_else(|| panic!("query {q} (raw) failed on the snapshot corpus"));
        out.push((format!("query-raw/{q}"), ms(t)));
    }
    out
}

fn print_snapshot(doc: &Document, entries: &[(String, f64)]) {
    println!(
        "corpus: {} nodes ({} elements)",
        doc.len(),
        doc.element_count()
    );
    for (key, v) in entries {
        // Keys carry their unit: `…/alloc-*-mb/…` rows are megabytes,
        // `serve/*/qps/*` requests per second, `serve/*/shed/*` a
        // request count, everything else median milliseconds.
        let unit = if key.contains("-mb/") {
            "MB"
        } else if key.contains("/qps/") {
            "q/s"
        } else if key.contains("/shed/") {
            "req"
        } else {
            "ms"
        };
        println!("  {key:<52} {v:>10.4} {unit}");
    }
}

fn snapshot_json(cfg: &XmarkConfig, doc: &Document, entries: &[(String, f64)]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"elements\": {}, \"max_fanout\": {}, \"labels\": {}, \
         \"id_density_pct\": {}, \"text_density_pct\": {}, \"seed\": {}}},\n",
        cfg.elements,
        cfg.max_fanout,
        cfg.labels,
        cfg.id_density_pct,
        cfg.text_density_pct,
        cfg.seed
    ));
    s.push_str(&format!(
        "  \"doc\": {{\"nodes\": {}, \"elements\": {}}},\n",
        doc.len(),
        doc.element_count()
    ));
    s.push_str("  \"timings_ms\": {\n");
    let rows: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v:.4}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn header() {
    print!("{:>8}", "");
    for s in Strategy::ALL {
        print!(" {:>10}", s.as_str());
    }
    println!(" (median ms)");
}
