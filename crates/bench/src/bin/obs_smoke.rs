//! Observability smoke: proves the instrumentation added by `minctx-obs`
//! is free when unused and truthful when used.
//!
//! ```text
//! cargo run --release -p minctx-bench --bin obs_smoke [elements]
//! ```
//!
//! Builds the XMark-style corpus (10⁵ elements by default) and asserts:
//!
//! * the engine's hot evaluation path with its default **disabled
//!   recorder** stays within 1% of a never-instrumented call straight
//!   into the evaluator — the no-op recorder is one branch, never a
//!   clock read;
//! * an **enabled** recorder draining to a discarding JSON-lines sink
//!   stays within coarse bounds (it adds one span per evaluation, not
//!   per node);
//! * the Prometheus text exposition and the JSON exposition of a worked
//!   serving pool actually **parse** — every sample line is declared by
//!   a `# TYPE` comment, every value is a number, histogram buckets are
//!   cumulative, and the JSON is syntactically well-formed;
//! * `Engine::explain` on `//item[@id]` reports the golden plan: the
//!   `fuse-descendant` rewrite fired exactly once, the fused descendant
//!   step ran on the **postings** route, and the per-step cardinalities
//!   agree with independently evaluated `count()` queries.
//!
//! The CI `obs-smoke` job runs this binary; see DESIGN.md
//! "Observability".

use minctx_bench::{xmark_doc, XmarkConfig};
use minctx_core::{
    AxisRoute, BudgetMeter, CompiledQuery, Context, Engine, Evaluator, MinContext, PredMode, Rule,
    Strategy, Value,
};
use minctx_obs::{JsonLinesSink, Recorder};
use minctx_serve::{Corpus, ServeEngine, ServeError};
use minctx_xml::Scratch;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The plan under the microscope throughout: a descendant name test
/// fused by the rewrite pipeline, answered off the label postings
/// index, filtered by an attribute-existence predicate.
const QUERY: &str = "//item[@id]";

/// Evaluations per timing sample.  The 1% bound is asserted on the
/// *minimum* over [`ROUNDS`] short interleaved samples per side: noise
/// on shared CI hardware is one-sided (preemption and frequency dips
/// only ever add time), so with the sides interleaved, both minima land
/// in the machine's fast phase and compare cleanly.
const ITERS: u32 = 8;
const ROUNDS: usize = 40;

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

    overhead_check(&doc);
    exposition_check(&doc);
    explain_check(&doc);
    println!("obs smoke OK");
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

/// The tentpole claim: carrying a disabled [`Recorder`] costs the hot
/// path nothing measurable.  Baseline is a direct call into the
/// [`MinContext`] evaluator on a pre-compiled query — no engine, no
/// recorder field anywhere near the stack — against
/// [`Engine::evaluate_compiled`] on the same compilation, whose
/// evaluation is wrapped in the (disabled) lifecycle span.  The
/// compiled entry point is the comparison that isolates the recorder:
/// `Engine::evaluate` also pays the per-call compiled-query cache
/// lookup, which predates and is orthogonal to the instrumentation.
fn overhead_check(doc: &minctx_xml::Document) {
    let parsed = minctx_syntax::parse_xpath(QUERY).unwrap();
    // The engine rewrites before compiling; hand the baseline the same
    // rewritten IR so both sides evaluate identical plans.
    let rewritten = minctx_core::rewrite(&parsed);
    let compiled = CompiledQuery::new(doc, &rewritten);
    let evaluator = MinContext {
        optimized: false,
        pool: None,
    };
    let mut scratch = Scratch::new();

    let engine = Engine::new(Strategy::MinContext);
    let traced = Engine::new(Strategy::MinContext).with_recorder(Recorder::to_sink(Arc::new(
        JsonLinesSink::new(std::io::sink()),
    )));

    // Same answer down all three paths before any timing.
    let want = evaluator
        .evaluate(
            doc,
            &compiled,
            Context::document(doc),
            &mut scratch,
            &mut BudgetMeter::unlimited(),
        )
        .unwrap();
    for e in [&engine, &traced] {
        assert_eq!(e.evaluate(doc, &parsed).unwrap(), want);
    }

    // A genuine regression fails every attempt; an unlucky scheduling
    // phase fails at most one or two.  Three strikes keeps the 1% bound
    // assertable without turning CI red on ambient noise.
    let mut verdict = Err(String::new());
    for attempt in 1..=3 {
        let mut base = Duration::MAX;
        let mut noop = Duration::MAX;
        let mut enabled = Duration::MAX;
        for _ in 0..ROUNDS {
            base = base.min(sample(|| {
                evaluator
                    .evaluate(
                        doc,
                        &compiled,
                        Context::document(doc),
                        &mut scratch,
                        &mut BudgetMeter::unlimited(),
                    )
                    .unwrap()
            }));
            noop = noop.min(sample(|| {
                engine
                    .evaluate_compiled(doc, &compiled, Context::document(doc))
                    .unwrap()
            }));
            enabled = enabled.min(sample(|| {
                traced
                    .evaluate_compiled(doc, &compiled, Context::document(doc))
                    .unwrap()
            }));
        }
        let pct = |d: Duration| (d.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
        println!(
            "  eval {QUERY} (attempt {attempt}): baseline {:.4} ms; \
             overhead disabled {:+.2}%, enabled {:+.2}%",
            base.as_secs_f64() * 1e3,
            pct(noop),
            pct(enabled),
        );
        if noop > base + base / 100 + SLACK {
            verdict = Err(format!(
                "disabled-recorder path runs {:+.2}% over the uninstrumented baseline (bound: +1%)",
                pct(noop)
            ));
            continue;
        }
        // Coarse guard only — one span per evaluation must stay O(1),
        // but its exact cost is not a regression surface worth a tight
        // bound.
        if enabled > base + base / 2 + SLACK {
            verdict = Err(format!(
                "enabled recorder runs {:+.2}% over baseline (bound: +50%)",
                pct(enabled)
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

/// Works a small serving pool, then validates both exposition formats
/// instead of just grepping for substrings.
fn exposition_check(doc: &minctx_xml::Document) {
    let doc = Arc::new(doc.clone());
    let serve = ServeEngine::builder().workers(2).build();
    for q in ["count(//item)", "count(//item[@id])", "boolean(//listitem)"] {
        for _ in 0..4 {
            serve
                .query(Corpus::Document(Arc::clone(&doc)), q)
                .wait()
                .unwrap();
        }
    }
    let err = serve
        .query(Corpus::Document(Arc::clone(&doc)), "//item[")
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::Eval(_)));

    let text = serve.metrics_text();
    check_prometheus(&text);
    assert!(text.contains("serve_requests 13"), "{text}");

    let json = serve.metrics_json();
    check_json(&json);
    assert!(json.contains("\"serve/requests\":13"), "{json}");

    // The process-global registry (xml/index counters) renders too.
    let global = minctx_obs::metrics_text();
    check_prometheus(&global);
    // (The corpus is generated through DocumentBuilder, so the builder
    // counter is the one guaranteed to have registered by now.)
    assert!(
        global.contains("xml_documents_built"),
        "global exposition lost the xml counters:\n{global}"
    );
}

/// Strict-enough Prometheus text-format check: every sample belongs to
/// a `# TYPE`-declared family, every value parses, histogram buckets
/// are cumulative and end at `+Inf` with the family's `_count`.
fn check_prometheus(text: &str) {
    let mut declared: HashSet<&str> = HashSet::new();
    let mut bucket_cum: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a name");
            let kind = it.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind in {line:?}"
            );
            assert!(it.next().is_none(), "trailing tokens in {line:?}");
            declared.insert(name);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line {line:?} is not `name value`");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        assert!(value.is_finite() && value >= 0.0, "bad value in {line:?}");
        let name = series.split('{').next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_max"))
            .filter(|f| declared.contains(f))
            .unwrap_or(name);
        assert!(
            declared.contains(family),
            "sample {line:?} has no # TYPE declaration"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name in {line:?} leaves the Prometheus alphabet"
        );
        // Bucket lines must be cumulative within a family and close at
        // +Inf; `_count` then repeats the +Inf total.
        if name.ends_with("_bucket") && declared.contains(family) {
            let cum = value as u64;
            if let Some((prev_family, prev)) = &bucket_cum {
                if prev_family == family {
                    assert!(cum >= *prev, "non-cumulative buckets at {line:?}");
                }
            }
            bucket_cum = Some((family.to_string(), cum));
            if series.contains("+Inf") {
                bucket_cum = None;
            }
        }
    }
    assert!(
        bucket_cum.is_none(),
        "histogram {bucket_cum:?} never closed with a +Inf bucket"
    );
}

/// Minimal JSON well-formedness scan: string/escape-aware bracket
/// matching.  Not a full parser, but it fails on every truncation or
/// quoting bug a renderer regression could introduce.
fn check_json(s: &str) {
    let mut stack: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => stack.push(c),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced }} in exposition"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ] in exposition"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in JSON exposition");
    assert!(stack.is_empty(), "unclosed brackets in JSON exposition");
}

/// The golden plan: `Engine::explain` must show the PR2/PR3 behavior —
/// postings fast path, fused descendant step — as first-class data, and
/// its cardinalities must agree with `count()` ground truth.
fn explain_check(doc: &minctx_xml::Document) {
    let engine = Engine::new(Strategy::MinContext);
    let count = |q: &str| match engine.evaluate_str(doc, q).unwrap() {
        Value::Number(n) => n as u64,
        v => panic!("{q} returned {v:?}"),
    };
    let items = count("count(//item)");
    let with_id = count(&format!("count({QUERY})"));
    assert!(items > 0 && with_id > 0 && with_id < items);

    let profile = engine.explain(doc, QUERY).unwrap();
    assert_eq!(
        profile.ir_after, "/descendant::item[boolean(attribute::id)]",
        "rewrite no longer fuses the descendant chain"
    );
    assert_eq!(profile.fired_rules, vec![(Rule::FuseDescendant, 1)]);

    assert_eq!(profile.steps.len(), 2, "{}", profile.plan_text());
    let outer = &profile.steps[0];
    assert_eq!(outer.display, "descendant::item");
    assert_eq!(outer.route, AxisRoute::Postings, "postings fast path lost");
    assert_eq!(outer.input, 1, "descendant step starts from the root");
    assert_eq!(outer.output, with_id, "post-predicate cardinality");
    let pred = &profile.steps[1];
    assert_eq!(pred.display, "attribute::id");
    assert_eq!(
        pred.invocations, items,
        "predicate must run once per candidate item"
    );
    assert_eq!(profile.result, format!("node-set n={with_id}"));

    let plan = profile.plan_text();
    assert!(
        plan.contains("descendant::item preds=1 mode=set route=postings calls=1 in=1"),
        "{plan}"
    );
    assert!(plan.contains("fired=fuse-descendant:1"), "{plan}");
    println!("{plan}");

    // OPTMINCONTEXT answers the same predicate from one backward set
    // seeded by the `id` postings: no candidate is visited, so the
    // predicate path never runs and the memo is never touched.
    let opt = Engine::new(Strategy::OptMinContext)
        .explain(doc, QUERY)
        .unwrap();
    let golden = format!(
        "  [#2 step 0] descendant::item preds=1 mode=backward route=postings calls=1 in=1 out={with_id}\n\
         memo hits=0 misses=1\n\
         backward passes=1\n"
    );
    let plan = opt.plan_text();
    assert!(plan.contains(&golden), "{plan}");
    assert_eq!(opt.steps[0].mode, Some(PredMode::Backward));

    // A positional `child` step ranks its candidates among their siblings
    // in one pass over the `descendant::item` image; the
    // `descendant-or-self::node()` in front of it is never built.
    let opt = Engine::new(Strategy::OptMinContext)
        .explain(doc, "//item[position() = last()]")
        .unwrap();
    let (front, step) = (&opt.steps[0], &opt.steps[1]);
    assert!(front.elided, "{}", opt.plan_text());
    assert_eq!(step.mode, Some(PredMode::SiblingRank));
    assert_eq!(step.input, items, "{}", opt.plan_text());
    let golden = format!(
        "step 0] descendant-or-self::node() elided calls=1\n  \
         [#{} step 1] child::item preds=1 mode=sibling-rank route=postings calls=1 in={items} out=",
        step.path
    );
    assert!(opt.plan_text().contains(&golden), "{}", opt.plan_text());

    // Where one candidate can have several origins a positional step stays
    // per-origin, but only for the origins the `item` postings can be
    // reached from.
    let opt = Engine::new(Strategy::OptMinContext)
        .explain(doc, "//item/following-sibling::item[1]")
        .unwrap();
    let step = opt.steps.last().expect("a step row");
    assert_eq!(step.mode, Some(PredMode::PerOrigin));
    assert!(step.origins <= step.input, "{}", opt.plan_text());
}
