//! Seeded fault-injection suite for the worker pool.  Each test
//! installs a [`ChaosPlan`] that fires panics at the isolation
//! boundaries (as a job enters its fence, and under a cache lock) and
//! asserts the four invariants the serving layer claims:
//!
//! 1. **No hang** — every ticket resolves within a generous timeout.
//! 2. **No wrong answer** — every `Ok` is bit-identical to the
//!    fault-free sequential evaluation of the same query.
//! 3. **Every job accounted once** — each popped job is counted in
//!    `requests`, lands in exactly one per-outcome latency histogram
//!    and leaves one request-log span, and the `panic` spans number the
//!    contained panics.
//! 4. **Service survives** — after `chaos::clear()` the same pool
//!    answers everything correctly.
//!
//! The chaos plan is process-global, so these tests serialize on a
//! local mutex; the suite lives in its own integration binary to keep
//! chaos away from the ordinary concurrency tests.

use minctx_bench::{corpus, values_agree};
use minctx_core::{Budget, Context, Engine, EvalError, Exhausted, Strategy, Value};
use minctx_obs::{AttrValue, CollectSink, Recorder};
use minctx_serve::{chaos, ChaosPlan, Corpus, ServeEngine, ServeError, QUERY_CACHE_CAPACITY};
use minctx_syntax::parse_xpath;
use minctx_xml::{parse, Document};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes chaos tests: the plan is process-global state.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    match CHAOS_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Clears the plan even when an assertion unwinds out of a test.
struct ClearOnDrop;
impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        chaos::clear();
    }
}

const RESOLVE_WITHIN: Duration = Duration::from_secs(30);

/// The panic site inside the job's fence at `per_mille`: a panic there
/// must resolve its own ticket as `WorkerPanicked`.
fn fenced_site(seed: u64, per_mille: u16) -> ChaosPlan {
    ChaosPlan {
        seed,
        eval_panic_per_mille: per_mille,
        ..ChaosPlan::default()
    }
}

/// A pool of `workers` whose request log collects into the returned sink.
fn logged_pool(workers: usize) -> (ServeEngine, Arc<CollectSink>) {
    let log = Arc::new(CollectSink::new());
    let serve = ServeEngine::builder()
        .workers(workers)
        .request_log(Recorder::to_sink(log.clone()))
        .build();
    (serve, log)
}

/// Invariant 3 once `submitted` tickets have resolved, none shed: every
/// job was popped and counted, each sits in exactly one non-shed latency
/// histogram, and the request log holds one span per job, its `panic`
/// spans as many as the contained panics.
fn assert_every_job_accounted(serve: &ServeEngine, log: &CollectSink, submitted: usize) {
    let stats = serve.stats();
    assert_eq!(
        (stats.requests, stats.shed),
        (submitted as u64, 0),
        "{stats:?}"
    );
    let latencies: f64 = serve
        .metrics_text()
        .lines()
        .filter_map(|line| line.split_once(' '))
        .filter(|(series, _)| {
            series.starts_with("serve_latency_")
                && series.ends_with("_count")
                && *series != "serve_latency_shed_us_count"
        })
        .map(|(_, n)| n.parse::<f64>().unwrap())
        .sum();
    assert_eq!(latencies, stats.requests as f64, "{stats:?}");
    let spans = log.take();
    let panics = spans
        .iter()
        .filter(|s| matches!(s.attr("outcome"), Some(AttrValue::Str(o)) if o == "panic"))
        .count();
    assert_eq!((spans.len(), panics as u64), (submitted, stats.panics));
}

/// The corpus queries a replay submits: as many as the query cache holds,
/// so that a sequential replay comes round to entries still cached and
/// answers served from the cache under faults are checked too.
fn replayed() -> &'static [&'static str] {
    &corpus::QUERIES[..corpus::QUERIES.len().min(QUERY_CACHE_CAPACITY)]
}

fn test_doc() -> Arc<Document> {
    let (_, doc) = corpus::documents().remove(0);
    Arc::new(doc)
}

/// Fault-free ground truth for the replayed queries against `doc`.
fn expected_answers(doc: &Document) -> Vec<Result<Value, EvalError>> {
    let engine = Engine::new(Strategy::OptMinContext);
    replayed()
        .iter()
        .map(|q| engine.evaluate_str(doc, q))
        .collect()
}

/// Submits `rounds` replays of the query corpus, waits for every ticket
/// with a timeout, and checks each outcome: `Ok` must match the
/// fault-free answer, errors must come from the allowed set (checked by
/// the caller via the returned list).
fn run_corpus(
    serve: &ServeEngine,
    doc: &Arc<Document>,
    rounds: usize,
) -> Vec<(usize, Result<Value, ServeError>)> {
    let expected = expected_answers(doc);
    let mut outcomes = Vec::new();
    for _ in 0..rounds {
        let tickets: Vec<_> = replayed()
            .iter()
            .map(|q| serve.query(Corpus::Document(Arc::clone(doc)), q))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t
                .wait_timeout(RESOLVE_WITHIN)
                .unwrap_or_else(|| panic!("ticket for {:?} hung", replayed()[i]));
            if let Ok(v) = &got {
                match &expected[i] {
                    Ok(w) => assert!(
                        values_agree(v, w),
                        "{}: chaos answer {v:?} != fault-free {w:?}",
                        replayed()[i]
                    ),
                    Err(w) => panic!("{}: got Ok({v:?}), want Err({w:?})", replayed()[i]),
                }
            }
            outcomes.push((i, got));
        }
    }
    outcomes
}

/// After `chaos::clear()`, the same pool must serve the replayed queries
/// with zero errors beyond the fault-free expectations.
fn assert_pool_recovered(serve: &ServeEngine, doc: &Arc<Document>) {
    let expected = expected_answers(doc);
    for (i, q) in replayed().iter().enumerate() {
        let got = serve
            .query(Corpus::Document(Arc::clone(doc)), q)
            .wait_timeout(RESOLVE_WITHIN)
            .unwrap_or_else(|| panic!("post-chaos ticket for {q:?} hung"));
        match (&got, &expected[i]) {
            (Ok(g), Ok(w)) => assert!(values_agree(g, w), "{q}: {g:?} != {w:?}"),
            (Err(ServeError::Eval(g)), Err(w)) => assert_eq!(g, w, "{q}"),
            _ => panic!("{q}: post-chaos {got:?}, want {:?}", expected[i]),
        }
    }
}

#[test]
fn contained_eval_panics_fail_only_their_own_ticket() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let expected = expected_answers(&doc);
    let plan = fenced_site(0xDEAD_BEEF, 250);
    let (serve, log) = logged_pool(3);
    chaos::install(plan);
    let outcomes = run_corpus(&serve, &doc, 4);
    let panicked = outcomes
        .iter()
        .filter(|(_, r)| matches!(r, Err(ServeError::WorkerPanicked { .. })))
        .count();
    for (i, r) in &outcomes {
        assert!(
            matches!(r, Ok(_) | Err(ServeError::WorkerPanicked { .. }))
                || matches!((r, &expected[*i]), (Err(ServeError::Eval(g)), Err(w)) if g == w),
            "{}: unexpected outcome {r:?}",
            replayed()[*i]
        );
    }
    assert!(panicked > 0, "a 25% panic rate fired zero times: {plan:?}");
    assert_eq!(serve.stats().panics as usize, panicked);
    assert_every_job_accounted(&serve, &log, outcomes.len());

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
    drop(serve);
}

#[test]
fn shard_lock_panics_poison_then_recover() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let serve = ServeEngine::builder().workers(3).build();

    chaos::install(ChaosPlan {
        seed: 7,
        shard_panic_per_mille: 150,
        ..ChaosPlan::default()
    });
    let outcomes = run_corpus(&serve, &doc, 4);
    let panicked = outcomes
        .iter()
        .filter(|(_, r)| matches!(r, Err(ServeError::WorkerPanicked { .. })))
        .count();
    assert!(panicked > 0, "a 15% cache-lock panic rate fired zero times");

    chaos::clear();
    // The poisoned-and-cleared cache must serve hits again, not just
    // not-crash: replay twice and demand that the second replay is served
    // from the query cache, every query of it.
    assert_pool_recovered(&serve, &doc);
    let hits = serve.stats().query_hits;
    assert_pool_recovered(&serve, &doc);
    assert_eq!(
        serve.stats().query_hits - hits,
        replayed().len() as u64,
        "query cache never recovered to serving hits"
    );
    drop(serve);
}

#[test]
fn mixed_chaos_storm_holds_every_invariant_for_fixed_seeds() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    for seed in [1u64, 2, 3] {
        let serve = ServeEngine::builder().workers(4).build();
        chaos::install(ChaosPlan {
            seed,
            eval_panic_per_mille: 170,
            shard_panic_per_mille: 60,
        });
        // Mixed load: plain corpus replays plus deadline-storm requests
        // whose budgets are already dead on arrival.
        let storm: Vec<_> = (0..32)
            .map(|_| {
                serve.query_with_budget(
                    Corpus::Document(Arc::clone(&doc)),
                    "count(//*)",
                    Budget::timeout(Duration::ZERO),
                )
            })
            .collect();
        let outcomes = run_corpus(&serve, &doc, 3);
        for t in storm {
            let got = t
                .wait_timeout(RESOLVE_WITHIN)
                .expect("deadline-storm ticket hung");
            assert!(
                matches!(
                    got,
                    Err(ServeError::Eval(EvalError::BudgetExhausted { .. }))
                        | Err(ServeError::WorkerPanicked { .. })
                ),
                "dead-on-arrival budget produced {got:?}"
            );
        }
        assert!(!outcomes.is_empty());
        chaos::clear();
        assert_pool_recovered(&serve, &doc);
        drop(serve); // must not hang on shutdown either
    }
}

/// With a panic on *every* request at the site inside the fence, all
/// outstanding tickets must still resolve — before panic isolation, the
/// first panic killed the lone worker and every queued ticket hung
/// forever.
#[test]
fn panicking_worker_mid_job_resolves_every_outstanding_ticket() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let plan = fenced_site(99, 1000);
    let (serve, log) = logged_pool(1);
    chaos::install(plan);
    let tickets: Vec<_> = (0..16)
        .map(|_| serve.query(Corpus::Document(Arc::clone(&doc)), "count(//*)"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t
            .wait_timeout(RESOLVE_WITHIN)
            .unwrap_or_else(|| panic!("outstanding ticket {i} hung"));
        assert!(
            matches!(got, Err(ServeError::WorkerPanicked { .. })),
            "ticket {i}: {got:?} under {plan:?}"
        );
    }
    assert_eq!(serve.stats().panics, 16);
    assert_every_job_accounted(&serve, &log, 16);

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
}

/// A worker that contained a panic keeps the pool's optimizer setting.
/// A fuel budget between the fused and the unfused spend of `//b` tells
/// the two apart: the fused compilation fits, the unfused one runs out.
#[test]
fn a_worker_that_contained_a_panic_keeps_the_optimizer_setting() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = Arc::new(parse("<a><b/><c><b/><d><b/><e/><e/></d></c><f/><f/></a>").unwrap());
    let spend = |on: bool| {
        let engine = Engine::new(Strategy::OptMinContext).with_optimizer(on);
        let compiled = engine.compile(&doc, &parse_xpath("//b").unwrap());
        let mut meter = Budget::UNLIMITED.meter();
        engine
            .evaluate_compiled_metered(&doc, &compiled, Context::document(&doc), &mut meter)
            .unwrap();
        meter.spent()
    };
    let (fused, unfused) = (spend(true), spend(false));
    assert!(fused < unfused, "fused {fused} vs unfused {unfused}");
    let budget = Budget::fuel((fused + unfused) / 2);

    for on in [true, false] {
        let serve = ServeEngine::builder().workers(1).optimizer(on).build();
        let ask = || {
            serve
                .query_with_budget(Corpus::Document(Arc::clone(&doc)), "//b", budget)
                .wait_timeout(RESOLVE_WITHIN)
                .expect("ticket hung")
        };
        // The panic fires before the query is compiled, so the first
        // compilation below comes after it.
        chaos::install(ChaosPlan {
            seed: 3,
            eval_panic_per_mille: 1000,
            ..ChaosPlan::default()
        });
        assert!(matches!(ask(), Err(ServeError::WorkerPanicked { .. })));
        chaos::clear();
        let got = ask();
        if on {
            assert_eq!(got.unwrap().as_node_set().unwrap().len(), 3);
        } else {
            assert_eq!(
                got,
                Err(ServeError::Eval(EvalError::BudgetExhausted {
                    cause: Exhausted::Fuel {
                        fuel: budget.fuel.unwrap()
                    }
                }))
            );
        }
        let stats = serve.stats();
        assert_eq!(
            (stats.panics, stats.query_misses),
            (1, 1),
            "optimizer({on})"
        );
    }
}
