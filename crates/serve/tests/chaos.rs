//! Seeded fault-injection suite for the worker pool.  Each test
//! installs a [`ChaosPlan`] that fires panics at one isolation boundary
//! (contained evaluation panic, worker-killing panic, panic under a
//! shard lock) and asserts the four invariants the serving layer
//! claims:
//!
//! 1. **No hang** — every ticket resolves within a generous timeout.
//! 2. **No wrong answer** — every `Ok` is bit-identical to the
//!    fault-free sequential evaluation of the same query.
//! 3. **No leaked worker** — `live_workers()` equals the configured
//!    pool size once the dust settles, and shutdown leaves zero.
//! 4. **Service survives** — after `chaos::clear()` the same pool
//!    answers everything correctly.
//!
//! The chaos plan is process-global, so these tests serialize on a
//! local mutex; the suite lives in its own integration binary to keep
//! chaos away from the ordinary concurrency tests.

use minctx_bench::{corpus, values_agree};
use minctx_core::{Budget, Context, Engine, EvalError, Exhausted, Strategy, Value};
use minctx_serve::{chaos, ChaosPlan, Corpus, RetryPolicy, ServeEngine, ServeError};
use minctx_syntax::parse_xpath;
use minctx_xml::{parse, Document};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// A dying worker resolves its ticket (the job drops during unwind)
/// *before* its respawn sentry finishes the hand-off bookkeeping, so
/// `live_workers`/`worker_respawns` may lag ticket resolution by a
/// moment.  Spin until the pool settles; panic rather than hang.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + RESOLVE_WITHIN;
    while !cond() {
        assert!(Instant::now() < deadline, "pool never settled: {what}");
        std::thread::yield_now();
    }
}

fn test_doc() -> Arc<Document> {
    let (_, doc) = corpus::documents().remove(0);
    Arc::new(doc)
}

/// Fault-free ground truth for the full query corpus against `doc`.
fn expected_answers(doc: &Document) -> Vec<Result<Value, EvalError>> {
    let engine = Engine::new(Strategy::OptMinContext);
    corpus::QUERIES
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
        let tickets: Vec<_> = corpus::QUERIES
            .iter()
            .map(|q| serve.query(Corpus::Document(Arc::clone(doc)), q))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t
                .wait_timeout(RESOLVE_WITHIN)
                .unwrap_or_else(|| panic!("ticket for {:?} hung", corpus::QUERIES[i]));
            if let Ok(v) = &got {
                match &expected[i] {
                    Ok(w) => assert!(
                        values_agree(v, w),
                        "{}: chaos answer {v:?} != fault-free {w:?}",
                        corpus::QUERIES[i]
                    ),
                    Err(w) => panic!("{}: got Ok({v:?}), want Err({w:?})", corpus::QUERIES[i]),
                }
            }
            outcomes.push((i, got));
        }
    }
    outcomes
}

/// After `chaos::clear()`, the same pool must serve the whole corpus
/// with zero errors beyond the fault-free expectations.
fn assert_pool_recovered(serve: &ServeEngine, doc: &Arc<Document>) {
    let expected = expected_answers(doc);
    for (i, q) in corpus::QUERIES.iter().enumerate() {
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
    let serve = ServeEngine::builder().workers(3).build();

    chaos::install(ChaosPlan {
        seed: 0xDEAD_BEEF,
        eval_panic_per_mille: 250,
        ..ChaosPlan::default()
    });
    let expected = expected_answers(&doc);
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
            corpus::QUERIES[*i]
        );
    }
    assert!(panicked > 0, "a 25% eval-panic rate fired zero times");

    // Contained panics never kill threads: no respawns, full pool.
    let stats = serve.stats();
    assert_eq!(stats.panics as usize, panicked);
    assert_eq!(stats.worker_respawns, 0);
    assert_eq!(serve.live_workers(), serve.worker_count());

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
    drop(serve);
}

#[test]
fn escaped_worker_panics_respawn_and_strand_no_ticket() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let serve = ServeEngine::builder().workers(3).build();

    chaos::install(ChaosPlan {
        seed: 42,
        worker_kill_per_mille: 200,
        ..ChaosPlan::default()
    });
    let expected = expected_answers(&doc);
    let outcomes = run_corpus(&serve, &doc, 4);
    // A killed worker drops the job it had just popped — that one
    // ticket resolves Disconnected; nothing may hang.
    let dropped = outcomes
        .iter()
        .filter(|(_, r)| matches!(r, Err(ServeError::Disconnected)))
        .count();
    for (i, r) in &outcomes {
        assert!(
            matches!(r, Ok(_) | Err(ServeError::Disconnected))
                || matches!((r, &expected[*i]), (Err(ServeError::Eval(g)), Err(w)) if g == w),
            "{}: unexpected outcome {r:?}",
            corpus::QUERIES[*i]
        );
    }
    assert!(dropped > 0, "a 20% worker-kill rate fired zero times");

    // Every Disconnected ticket corresponds to one worker death, and
    // every death must be answered by one respawn.
    wait_until("respawns catch up with deaths", || {
        serve.stats().worker_respawns as usize >= dropped
    });
    assert_eq!(serve.stats().worker_respawns as usize, dropped);
    wait_until("pool back to full strength", || {
        serve.live_workers() == serve.worker_count()
    });

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
    drop(serve);
}

#[test]
fn shard_lock_panics_poison_then_recover() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    // One shard per cache concentrates the poisoning on a single lock.
    let serve = ServeEngine::builder().workers(3).shards(1).build();

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
    assert!(panicked > 0, "a 15% shard-panic rate fired zero times");
    assert_eq!(serve.live_workers(), serve.worker_count());

    chaos::clear();
    // The poisoned-and-cleared cache must serve hits again, not just
    // not-crash: replay twice and demand query-cache hits.
    assert_pool_recovered(&serve, &doc);
    assert_pool_recovered(&serve, &doc);
    assert!(
        serve.stats().query_hits > 0,
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
        let serve = ServeEngine::builder().workers(4).shards(2).build();
        chaos::install(ChaosPlan {
            seed,
            eval_panic_per_mille: 100,
            worker_kill_per_mille: 80,
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
                        | Err(ServeError::Disconnected)
                ),
                "dead-on-arrival budget produced {got:?}"
            );
        }
        assert!(!outcomes.is_empty());
        wait_until("pool back to full strength", || {
            serve.live_workers() == serve.worker_count()
        });
        chaos::clear();
        assert_pool_recovered(&serve, &doc);
        drop(serve); // must not hang on shutdown either
    }
}

/// Regression for the ticket-semantics bug: with a single worker that
/// panics on *every* request, all outstanding tickets must still
/// resolve — before panic isolation, the first panic killed the lone
/// worker and every queued ticket hung forever.
#[test]
fn panicking_worker_mid_job_resolves_every_outstanding_ticket() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let serve = ServeEngine::builder().workers(1).build();

    chaos::install(ChaosPlan {
        seed: 99,
        eval_panic_per_mille: 1000,
        ..ChaosPlan::default()
    });
    let tickets: Vec<_> = (0..16)
        .map(|_| serve.query(Corpus::Document(Arc::clone(&doc)), "count(//*)"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t
            .wait_timeout(RESOLVE_WITHIN)
            .unwrap_or_else(|| panic!("outstanding ticket {i} hung"));
        assert!(
            matches!(got, Err(ServeError::WorkerPanicked { .. })),
            "ticket {i}: {got:?}"
        );
    }
    assert_eq!(serve.stats().panics, 16);
    assert_eq!(serve.live_workers(), 1);

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
}

/// Same regression at the harsher site: every request *kills* the lone
/// worker outright.  Each death must respawn a replacement that picks
/// up the next queued job.
#[test]
fn serial_worker_deaths_never_strand_the_queue() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let serve = ServeEngine::builder().workers(1).build();

    chaos::install(ChaosPlan {
        seed: 5,
        worker_kill_per_mille: 1000,
        ..ChaosPlan::default()
    });
    let tickets: Vec<_> = (0..8)
        .map(|_| serve.query(Corpus::Document(Arc::clone(&doc)), "count(//*)"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t
            .wait_timeout(RESOLVE_WITHIN)
            .unwrap_or_else(|| panic!("ticket {i} stranded by worker death"));
        assert!(
            matches!(got, Err(ServeError::Disconnected)),
            "ticket {i}: {got:?}"
        );
    }
    wait_until("eight respawns recorded", || {
        serve.stats().worker_respawns >= 8
    });
    assert_eq!(serve.stats().worker_respawns, 8);
    wait_until("lone worker back", || serve.live_workers() == 1);

    chaos::clear();
    assert_pool_recovered(&serve, &doc);
}

/// A worker rebuilt after a contained panic keeps the pool's optimizer
/// setting.  A fuel budget between the fused and the unfused spend of
/// `//b` tells the two apart: the fused compilation fits, the unfused
/// one runs out.
#[test]
fn rebuilt_workers_keep_the_optimizer_setting() {
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
        // compilation below is the rebuilt worker's.
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

#[test]
fn retry_policy_backoff_is_deterministic_and_capped() {
    let p = RetryPolicy::default()
        .base_delay(Duration::from_millis(5))
        .max_delay(Duration::from_millis(40));
    assert_eq!(p.delay_before(0), Duration::from_millis(5));
    assert_eq!(p.delay_before(1), Duration::from_millis(10));
    assert_eq!(p.delay_before(2), Duration::from_millis(20));
    assert_eq!(p.delay_before(3), Duration::from_millis(40));
    assert_eq!(p.delay_before(4), Duration::from_millis(40));
    assert_eq!(p.delay_before(63), Duration::from_millis(40));
}

#[test]
fn retry_recovers_from_contained_panics() {
    let _guard = chaos_guard();
    let _clear = ClearOnDrop;
    let doc = test_doc();
    let serve = ServeEngine::builder().workers(2).build();

    // Roughly half of requests panic.  The decision stream is fixed by
    // the seed, so either this seed lets one of the eight attempts
    // through (it does) or the test fails every run — no flakiness.
    chaos::install(ChaosPlan {
        seed: 11,
        eval_panic_per_mille: 500,
        ..ChaosPlan::default()
    });
    let policy = RetryPolicy::default()
        .attempts(8)
        .base_delay(Duration::from_millis(1));
    let v = serve
        .query_with_retry(
            Corpus::Document(Arc::clone(&doc)),
            "count(/*)",
            Budget::UNLIMITED,
            policy,
        )
        .expect("8 attempts at 50% contained-panic rate all failed");
    assert_eq!(v, Value::Number(1.0));
    chaos::clear();
}
