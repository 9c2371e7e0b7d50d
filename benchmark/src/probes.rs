//! The per-layer rows of a traced run: each layer's public functions
//! called directly from here, on the seed's standard inputs (the
//! 10⁵-element document, the corpus query list, the serve mix), and timed
//! or counted.  Every traced run measures every row, whatever workload it
//! traces, so a row means the same thing everywhere.

use crate::alloc::{self, MB};
use crate::digest;
use crate::gen::{self, ServeClass};
use crate::stats;
use crate::workload::{timed, Calibrator, Ctx, Workload};
use crate::workloads::{self, measured_engine, Checks, ServeMixed};
use minctx::engine::{rewrite, rewrite_traced, Context};
use minctx::prelude::*;
use minctx::syntax::{self, Bindings, Query};
use minctx::xml::axes::{axis_image_resolved, axis_preimage_into};
use minctx::xml::{par, Axis, NodeTest, Tokenizer};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub type Rows = Vec<(&'static str, f64)>;

thread_local! {
    /// The probes' reading of the machine's speed (see `Calibrator`).
    static CAL: std::cell::RefCell<Calibrator> = std::cell::RefCell::new(Calibrator::new());
}

const QUIET: Ctx = Ctx { handicap_pct: 0.0 };

/// Median time of `f` over `reps` calls after one untimed call, in ns on
/// the quiet machine; what `f` returns is dropped outside the timed region.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    drop(black_box(f()));
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, sample) = CAL.with_borrow_mut(|cal| timed(QUIET, cal, &mut f));
            drop(r);
            sample.quiet_ns()
        })
        .collect();
    stats::median(&samples)
}

/// [`time_ns`] for calls too short to time alone: each sample is the mean
/// of `batch` back-to-back calls.
fn time_batched_ns<R>(reps: usize, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ns(reps, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

fn xml_rows(xml: &str, doc: &Document, rows: &mut Rows) -> f64 {
    let drain = || {
        let mut tok = Tokenizer::new(xml);
        let mut events = 0u64;
        while let Some(ev) = tok.next_event().expect("generated XML tokenizes") {
            black_box(&ev);
            events += 1;
        }
        events
    };
    let events = drain();
    let token_ns = time_ns(5, drain);
    let parse_ns = time_ns(5, || parse_xml(xml).expect("generated XML parses"));
    let (kept, heap) = alloc::measure(|| parse_xml(xml).expect("generated XML parses"));
    drop(kept);
    rows.push(("xml.token.ms", token_ns / MS));
    rows.push((
        "xml.token.mb_per_s",
        xml.len() as f64 / MB / (token_ns / 1e9),
    ));
    rows.push(("xml.token.events", events as f64));
    rows.push(("xml.parse.ms", parse_ns / MS));
    rows.push(("xml.build.ms", (parse_ns - token_ns) / MS));
    rows.push(("xml.parse.nodes_per_s", doc.len() as f64 / (parse_ns / 1e9)));
    rows.push(("xml.parse.alloc_mb", heap.total as f64 / MB));
    rows.push(("xml.doc.resident_mb", heap.retained as f64 / MB));

    // Direct kernel calls, scratch reused as the engine reuses it.
    let mut scratch = Scratch::new();
    let root = NodeSet::singleton(doc.root());
    let name = |s: &str| NodeTest::name(s).resolve(doc);
    let mut image =
        |axis: Axis, from: &NodeSet, test| axis_image_resolved(doc, axis, from, test, &mut scratch);
    let items = image(Axis::Descendant, &root, name("item"));
    let elements = image(Axis::Descendant, &root, NodeTest::Wildcard.resolve(doc));
    let mut out_nodes = 0usize;
    let mut kernel = |row: &'static str, axis: Axis, from: &NodeSet, test| {
        out_nodes += image(axis, from, test).len();
        rows.push((row, time_ns(15, || image(axis, from, test)) / US));
    };
    kernel(
        "xml.axes.desc_name_root_us",
        Axis::Descendant,
        &root,
        name("item"),
    );
    kernel(
        "xml.axes.desc_name_set_us",
        Axis::Descendant,
        &items,
        name("keyword"),
    );
    kernel(
        "xml.axes.child_name_all_us",
        Axis::Child,
        &elements,
        name("listitem"),
    );
    kernel(
        "xml.axes.attr_name_all_us",
        Axis::Attribute,
        &elements,
        name("id"),
    );
    kernel(
        "xml.axes.following_name_set_us",
        Axis::Following,
        &items,
        name("person"),
    );
    // The control: node() has no postings path.
    kernel(
        "xml.axes.desc_anynode_root_us",
        Axis::Descendant,
        &root,
        NodeTest::AnyNode.resolve(doc),
    );
    let mut parents = NodeSet::new();
    let mut scratch = Scratch::new();
    let preimage_ns = time_ns(15, || {
        axis_preimage_into(doc, Axis::Child, &items, &mut scratch, &mut parents);
    });
    out_nodes += parents.len();
    rows.push(("xml.axes.preimage_child_set_us", preimage_ns / US));
    rows.push(("xml.axes.out_nodes", out_nodes as f64));
    token_ns
}

/// The heavier half of `arena-paths`: the queries whose steps are large
/// enough for the chunked kernels to engage.
const PAR_QUERIES: [usize; 6] = [4, 5, 6, 7, 8, 10];

/// Sum over `queries` of the median evaluation time of each, compile cache
/// hot, in ns.
fn pass_ns(engine: &Engine, doc: &Document, queries: &[&Query], reps: usize) -> f64 {
    queries
        .iter()
        .map(|q| time_ns(reps, || engine.evaluate(doc, q)))
        .sum()
}

fn par_rows(doc: &Document, preds: &[Query], pred_pass_ns: f64, rows: &mut Rows) {
    let paths: Vec<Query> = PAR_QUERIES
        .iter()
        .map(|&i| parse_xpath(gen::PATH_QUERIES[i]).expect("workload query parses"))
        .collect();
    let paths: Vec<&Query> = paths.iter().collect();
    let t1 = pass_ns(&measured_engine(), doc, &paths, 5);
    let two = measured_engine().with_threads(2);
    let (chunks, bypass) = (par::par_chunks_dispatched(), par::par_bypasses());
    let pass: f64 = paths
        .iter()
        .map(|q| black_box(two.evaluate(doc, q)).map_or(0.0, |_| 1.0))
        .sum();
    black_box(pass);
    rows.push((
        "xml.par.chunks",
        (par::par_chunks_dispatched() - chunks) as f64,
    ));
    rows.push(("xml.par.bypass", (par::par_bypasses() - bypass) as f64));
    let t2 = pass_ns(&two, doc, &paths, 5);
    rows.push(("xml.par.t2_pass_ms", t2 / MS));
    rows.push(("xml.par.speedup_t2", t1 / t2));
    let preds: Vec<&Query> = preds.iter().collect();
    rows.push((
        "core.par.fanout_speedup_t2",
        pred_pass_ns / pass_ns(&two, doc, &preds, 3),
    ));
}

fn syntax_and_rewrite_rows(rows: &mut Rows) {
    let n = gen::CORPUS_QUERIES.len() as f64;
    let texts = &gen::CORPUS_QUERIES;
    let per_query_us = |total_ns: f64| total_ns / n / US;
    let asts = || -> Vec<syntax::AstExpr> {
        texts
            .iter()
            .map(|q| syntax::parse_expr(q).expect("corpus query parses"))
            .collect()
    };
    let normalized: Vec<syntax::AstExpr> = asts()
        .into_iter()
        .map(|a| syntax::normalize(a, &Bindings::default()).expect("corpus query normalizes"))
        .collect();
    let queries: Vec<Query> = normalized.iter().map(syntax::query::lower).collect();
    const REPS: usize = 25;

    let lex = time_ns(REPS, || {
        for q in texts {
            black_box(syntax::tokenize(q).expect("corpus query lexes"));
        }
    });
    // parse_expr lexes too; the parser's own time is the difference.
    let lex_and_parse = time_ns(REPS, || black_box(asts()));
    // `normalize` consumes its input: fresh trees per sample, built untimed.
    let normalize = {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let fresh = asts();
                let ((), sample) = CAL.with_borrow_mut(|cal| {
                    timed(QUIET, cal, || {
                        for a in fresh {
                            black_box(syntax::normalize(a, &Bindings::default()).ok());
                        }
                    })
                });
                sample.quiet_ns()
            })
            .collect();
        stats::median(&samples)
    };
    let lower = time_ns(REPS, || {
        for a in &normalized {
            black_box(syntax::query::lower(a));
        }
    });
    let whole = time_ns(REPS, || {
        for q in texts {
            black_box(parse_xpath(q).expect("corpus query parses"));
        }
    });
    rows.push(("syntax.lex_us", per_query_us(lex)));
    rows.push(("syntax.parse_us", per_query_us(lex_and_parse - lex)));
    rows.push(("syntax.normalize_us", per_query_us(normalize)));
    rows.push(("syntax.lower_us", per_query_us(lower)));
    rows.push(("syntax.parse_xpath_us", per_query_us(whole)));
    rows.push((
        "syntax.ir_nodes",
        queries.iter().map(Query::len).sum::<usize>() as f64,
    ));

    let rewrite_ns = time_ns(REPS, || {
        for q in &queries {
            black_box(rewrite(q));
        }
    });
    let (fired, passes) = queries
        .iter()
        .map(|q| rewrite_traced(q).1)
        .fold((0u64, 0u64), |(f, p), t| {
            (f + u64::from(t.total()), p + t.passes as u64)
        });
    let books = parse_xml(&gen::corpus_documents()[0].1).expect("corpus document parses");
    let rewritten: Vec<Query> = queries.iter().map(rewrite).collect();
    let compile_ns = time_ns(REPS, || {
        for q in &rewritten {
            black_box(CompiledQuery::new(&books, q));
        }
    });
    rows.push(("core.rewrite_us", per_query_us(rewrite_ns)));
    rows.push(("core.rewrite.fired", fired as f64));
    rows.push(("core.rewrite.passes", passes as f64));
    rows.push(("core.compile_us", per_query_us(compile_ns)));
}

/// The `core` rows on the `arena-preds` list; returns the parsed list and
/// the measured configuration's pass time for the rows that compare with it.
fn core_rows(doc: &Document, checks: &mut Checks, rows: &mut Rows) -> (Vec<Query>, f64) {
    let queries: Vec<Query> = gen::PRED_QUERIES
        .iter()
        .map(|q| parse_xpath(q).expect("workload query parses"))
        .collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let engine = measured_engine();
    let root = Context::document(doc);
    let compiled: Vec<Arc<CompiledQuery>> = refs.iter().map(|q| engine.compile(doc, q)).collect();
    rows.push((
        "core.cache.hit_us",
        time_batched_ns(15, 1_000, || engine.compile(doc, refs[0])) / US,
    ));

    let pass: f64 = compiled
        .iter()
        .map(|cq| time_ns(3, || engine.evaluate_compiled(doc, cq, root)))
        .sum();
    rows.push(("core.eval_us", pass / US));

    let (mut fuel, mut out_nodes) = (0u64, 0u64);
    for cq in &compiled {
        let mut meter = Budget::UNLIMITED.meter();
        let value = engine.evaluate_compiled_metered(doc, cq, root, &mut meter);
        checks.expect(value.is_ok(), || "metered evaluation answers".to_string());
        fuel += meter.spent();
        out_nodes += value
            .ok()
            .and_then(|v| v.as_node_set().map(|ns| ns.len() as u64))
            .unwrap_or(1);
    }
    rows.push(("core.eval.fuel", fuel as f64));
    rows.push((
        "core.eval.fuel_per_out_node",
        fuel as f64 / out_nodes as f64,
    ));

    let (mut hits, mut misses, mut backward, mut explain_eval) = (0u64, 0u64, 0u64, Duration::ZERO);
    for q in gen::PRED_QUERIES {
        match engine.explain(doc, q) {
            Ok(p) => {
                hits += p.memo_hits;
                misses += p.memo_misses;
                backward += p.backward_passes;
                explain_eval += p.eval_time;
            }
            Err(_) => checks.expect(false, || "EXPLAIN answers".to_string()),
        }
    }
    rows.push(("core.memo.hits", hits as f64));
    rows.push(("core.memo.misses", misses as f64));
    rows.push((
        "core.memo.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    rows.push(("core.backward_passes", backward as f64));
    rows.push((
        "core.explain_overhead_x",
        explain_eval.as_nanos() as f64 / pass,
    ));

    let ((), heap) = alloc::measure(|| {
        for cq in &compiled {
            drop(black_box(engine.evaluate_compiled(doc, cq, root)));
        }
    });
    rows.push(("core.alloc_mb_per_pass", heap.total as f64 / MB));

    let mincontext = Engine::new(Strategy::MinContext).with_optimizer(true);
    let min_pass = pass_ns(&mincontext, doc, &refs, 3);
    rows.push(("core.mincontext_pass_ms", min_pass / MS));
    rows.push(("core.opt_over_min_x", pass / min_pass));
    let unoptimized = Engine::new(Strategy::OptMinContext).with_optimizer(false);
    rows.push((
        "core.rewrite.gain_x",
        pass_ns(&unoptimized, doc, &refs, 3) / pass,
    ));

    let sink = Arc::new(minctx::obs::CollectSink::new());
    let recorded = measured_engine().with_recorder(Recorder::to_sink(sink.clone()));
    let recorded_pass = pass_ns(&recorded, doc, &refs, 3);
    checks.expect(!sink.take().is_empty(), || {
        "the recorder saw spans".to_string()
    });
    rows.push((
        "obs.recorder_overhead_pct",
        (recorded_pass - pass) / pass * 100.0,
    ));
    rows.push((
        "obs.render_prometheus_us",
        time_batched_ns(15, 20, || minctx::obs::global().render_prometheus()) / US,
    ));
    (queries, pass)
}

fn index_rows(xml: &str, doc: &Document, dir: &Path, checks: &mut Checks, rows: &mut Rows) {
    let path = dir.join("probe.mctx");
    let write_ns = time_ns(3, || {
        write_snapshot(doc, &path).expect("snapshot is written")
    });
    let file_len = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    rows.push(("index.write_ms", write_ns / MS));
    rows.push(("index.file_mb", file_len / MB));
    rows.push(("index.bytes_per_xml_byte", file_len / xml.len() as f64));
    rows.push((
        "index.open_ms",
        time_ns(5, || open_snapshot(&path).expect("snapshot opens")) / MS,
    ));
    let (mapped, heap) = alloc::measure(|| open_snapshot(&path).expect("snapshot opens"));
    rows.push(("index.open_heap_mb", heap.retained as f64 / MB));
    rows.push((
        "index.stamp_us",
        time_batched_ns(15, 100, || snapshot_stamp(&path)) / US,
    ));

    // First evaluation after an open (cold engine, untouched pages), then
    // the same list warm, mapped against owned.
    let queries: Vec<Query> = gen::INGEST_QUERIES
        .iter()
        .map(|q| parse_xpath(q).expect("workload query parses"))
        .collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let first = {
        let fresh = open_snapshot(&path).expect("snapshot opens");
        let engine = measured_engine();
        let (value, sample) =
            CAL.with_borrow_mut(|cal| timed(QUIET, cal, || engine.evaluate(&fresh, refs[1])));
        checks.expect(
            digest::of_result(&value) == digest::of_result(&engine.evaluate(doc, refs[1])),
            || "mapped and owned documents agree".to_string(),
        );
        sample.quiet_ns()
    };
    let engine = measured_engine();
    let warm_mapped = pass_ns(&engine, &mapped, &refs, 5);
    let warm_owned = pass_ns(&engine, doc, &refs, 5);
    rows.push(("index.first_eval_ms", first / MS));
    rows.push(("index.warm_eval_ms", warm_mapped / MS));
    rows.push(("index.mapped_over_owned_x", warm_mapped / warm_owned));
}

fn stream_rows(xml: &str, token_ns: f64, checks: &mut Checks, rows: &mut Rows) {
    let engine = Engine::new(Strategy::Streaming).with_optimizer(true);
    let queries: Vec<Query> = gen::INGEST_QUERIES
        .iter()
        .map(|q| parse_xpath(q).expect("workload query parses"))
        .collect();
    let n = queries.len() as f64;
    let classify_ns: f64 = queries
        .iter()
        .map(|q| time_batched_ns(15, 50, || classify(q)))
        .sum();
    let eval_ns: f64 = queries
        .iter()
        .map(|q| time_ns(3, || engine.evaluate_reader_str(q, xml)))
        .sum();
    let reader_ns: f64 = queries
        .iter()
        .map(|q| time_ns(3, || engine.evaluate_reader(q, xml.as_bytes())))
        .sum();
    let (mut matches, mut fallbacks, mut alloc_total) = (0.0, 0u64, 0usize);
    for q in &queries {
        let (out, heap) = alloc::measure(|| engine.evaluate_reader_str(q, xml));
        alloc_total += heap.total;
        match out.as_ref().ok().and_then(StreamOutcome::streamed) {
            Some(StreamValue::Nodes(ms)) => matches += ms.len() as f64,
            Some(StreamValue::Number(x)) => matches += x,
            Some(StreamValue::Boolean(b)) => matches += f64::from(u8::from(*b)),
            None => fallbacks += 1,
        }
    }
    checks.expect(fallbacks == 0, || "every ingest query streams".to_string());
    rows.push(("stream.classify_us", classify_ns / n / US));
    rows.push(("stream.eval_ms", eval_ns / n / MS));
    rows.push(("stream.reader_ms", reader_ns / n / MS));
    rows.push(("stream.over_token_x", eval_ns / n / token_ns));
    rows.push(("stream.alloc_total_mb", alloc_total as f64 / n / MB));
    rows.push(("stream.matches", matches));
    rows.push(("stream.fallbacks", fallbacks as f64));
}

/// How long the serve probe's closed loop runs.
const SERVE_PROBE: Duration = Duration::from_millis(1_500);
/// Requests of the one-thread, bare-engine comparison.
const DIRECT_REQUESTS: usize = 1_500;

fn serve_rows(seed: u64, dir: &Path, checks: &mut Checks, rows: &mut Rows) {
    let mut mix = ServeMixed::setup(seed, gen::DOC_ELEMENTS, dir);
    checks.add(mix.setup_checks());
    let before = mix.engine().stats();
    let round = CAL.with_borrow_mut(|cal| mix.round(SERVE_PROBE, QUIET, cal));
    let after = mix.engine().stats();
    checks.add((round.ops, round.failed));
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    rows.push((
        "serve.queue_wait_us_p50",
        after.queue_wait_p50.as_secs_f64() * 1e6,
    ));
    rows.push((
        "serve.queue_wait_us_p99",
        after.queue_wait_p99.as_secs_f64() * 1e6,
    ));
    rows.push(("serve.max_queue_depth", after.max_queue_depth as f64));
    rows.push((
        "serve.query_hit_ratio",
        ratio(
            after.query_hits - before.query_hits,
            after.query_misses - before.query_misses,
        ),
    ));
    rows.push((
        "serve.snapshot_hit_ratio",
        ratio(
            after.snapshot_hits - before.snapshot_hits,
            after.snapshot_misses - before.snapshot_misses,
        ),
    ));
    rows.push(("serve.shed", (after.shed - before.shed) as f64));
    rows.push(("serve.panics", (after.panics - before.panics) as f64));
    rows.push((
        "serve.light_ms_p50",
        workloads::class_median_ms(&round, ServeClass::Light),
    ));
    rows.push((
        "serve.heavy_ms_p50",
        workloads::class_median_ms(&round, ServeClass::Heavy),
    ));
    rows.push((
        "serve.miss_ms_p50",
        workloads::class_median_ms(&round, ServeClass::Miss),
    ));
    let factor = round
        .samples
        .iter()
        .flatten()
        .next()
        .map_or(1.0, |s| s.factor);
    let pool_qps = round.ops as f64 / (round.wall.as_secs_f64() / factor);

    // The same requests on one bare engine from one thread: hot queries
    // parsed once (so its compile cache hits, as the pool's does), the
    // cold tail through `evaluate_str`.
    let engine = measured_engine();
    let mut docs: Vec<(&Path, Document)> = Vec::new();
    let mut parsed: Vec<(&str, Query)> = Vec::new();
    let requests: Vec<_> = mix.requests().take(DIRECT_REQUESTS).collect();
    for (path, req) in &requests {
        if !docs.iter().any(|(p, _)| p == path) {
            docs.push((path, open_snapshot(path).expect("snapshot opens")));
        }
        if req.class != ServeClass::Miss && !parsed.iter().any(|(q, _)| *q == req.query) {
            parsed.push((
                &req.query,
                parse_xpath(&req.query).expect("workload query parses"),
            ));
        }
    }
    let direct = |path: &Path, req: &gen::ServeRequest| {
        let doc = &docs
            .iter()
            .find(|(p, _)| *p == path)
            .expect("opened above")
            .1;
        match parsed.iter().find(|(q, _)| *q == req.query) {
            Some((_, query)) => engine.evaluate(doc, query),
            None => engine.evaluate_str(doc, &req.query),
        }
    };
    for (path, req) in &requests[..64] {
        drop(black_box(direct(path, req)));
    }
    // In chunks, so that the machine's speed is read every few
    // milliseconds of it.
    let direct_ns: f64 = requests
        .chunks(32)
        .map(|chunk| {
            let ((), sample) = CAL.with_borrow_mut(|cal| {
                timed(QUIET, cal, || {
                    for (path, req) in chunk {
                        drop(black_box(direct(path, req)));
                    }
                })
            });
            sample.quiet_ns()
        })
        .sum();
    let direct_qps = requests.len() as f64 / (direct_ns / 1e9);
    rows.push(("serve.direct_qps", direct_qps));
    rows.push(("serve.scaling_x", pool_qps / direct_qps));

    // A trivial query through the pool against the same on a bare engine:
    // what the hand-off alone costs.
    let trivial = "count(/site)";
    let (path, _) = requests[0];
    let through_pool = time_batched_ns(15, 20, || {
        mix.engine()
            .query(Corpus::Snapshot(path.to_path_buf()), trivial)
            .wait()
    });
    let query = parse_xpath(trivial).expect("probe query parses");
    let doc = &docs[0].1;
    let bare = time_batched_ns(15, 20, || engine.evaluate(doc, &query));
    rows.push(("serve.handoff_us", (through_pool - bare) / US));
}

/// Every workload-independent per-layer row for `seed`.
pub fn run(seed: u64, dir: &Path) -> (Rows, Checks) {
    let mut rows = Rows::new();
    let mut checks = Checks::default();
    let xml = gen::xmark_text(gen::DOC_ELEMENTS, seed);
    let doc = parse_xml(&xml).expect("generated XML parses");
    let token_ns = xml_rows(&xml, &doc, &mut rows);
    syntax_and_rewrite_rows(&mut rows);
    let (preds, pred_pass_ns) = core_rows(&doc, &mut checks, &mut rows);
    par_rows(&doc, &preds, pred_pass_ns, &mut rows);
    index_rows(&xml, &doc, dir, &mut checks, &mut rows);
    stream_rows(&xml, token_ns, &mut checks, &mut rows);
    drop(doc);
    serve_rows(seed, dir, &mut checks, &mut rows);
    (rows, checks)
}
