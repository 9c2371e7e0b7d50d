//! Differential concurrency tests: N client threads against one shared
//! mapped snapshot must see exactly the answers a single-threaded
//! engine produces, and the service's budgets and queue bound must shed
//! load as `BudgetExhausted` / `Overloaded` through the [`Ticket`], never
//! panic or hang.
//!
//! (No loom in a std-only workspace — these are barrier-synchronized
//! stress tests, not exhaustive interleaving checks; the cache and
//! queue layers carry their own unit tests.)

use minctx_bench::{corpus, values_agree, xmark_doc, XmarkConfig};
use minctx_core::{Budget, Engine, EvalError, Strategy, Value};
use minctx_serve::{Corpus, ServeEngine, ServeError, SharedLru};
use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("minctx-serve-{}-{name}.mctx", std::process::id()))
}

/// Sequential ground truth: the same strategy, one thread, fresh engine.
fn sequential_answers(doc: &minctx_xml::Document) -> Vec<Result<Value, EvalError>> {
    let engine = Engine::new(Strategy::OptMinContext);
    corpus::QUERIES
        .iter()
        .map(|q| engine.evaluate_str(doc, q))
        .collect()
}

#[test]
fn concurrent_clients_match_single_threaded_on_a_shared_snapshot() {
    // Every corpus document becomes a snapshot; 8 client threads then
    // replay the full query corpus against the shared mapping and must
    // get bit-identical values.
    const CLIENTS: usize = 8;
    let serve = Arc::new(ServeEngine::builder().workers(4).build());
    for (name, doc) in corpus::documents() {
        let path = temp(&format!("diff-{name}"));
        write_snapshot(&doc, &path).unwrap();
        let mapped = open_snapshot(&path).unwrap();
        let expected = Arc::new(sequential_answers(&mapped));

        let barrier = Arc::new(Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let serve = Arc::clone(&serve);
                let expected = Arc::clone(&expected);
                let barrier = Arc::clone(&barrier);
                let path = path.clone();
                thread::spawn(move || {
                    barrier.wait();
                    for (q, want) in corpus::QUERIES.iter().zip(expected.iter()) {
                        let got = serve
                            .query(Corpus::Snapshot(path.clone()), q)
                            .wait()
                            .map_err(|e| match e {
                                ServeError::Eval(e) => e,
                                e => panic!("service failed: {e:?}"),
                            });
                        match (&got, want) {
                            (Ok(g), Ok(w)) => {
                                assert!(values_agree(g, w), "{q}: got {g:?}, want {w:?}");
                            }
                            (Err(g), Err(w)) => assert_eq!(g, w, "{q}"),
                            _ => panic!("{q}: got {got:?}, want {want:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }
    // Each snapshot was mapped at most a handful of times (cold-key
    // races), not once per request.
    let stats = serve.stats();
    assert!(
        stats.snapshot_hits > stats.snapshot_misses,
        "cache should absorb most opens: {stats:?}"
    );
    assert!(stats.query_hits > stats.query_misses, "{stats:?}");
}

#[test]
fn shared_parsed_document_serves_many_threads() {
    // Same differential check without the snapshot layer: one parsed
    // xmark document shared by Arc across client threads.
    let doc = Arc::new(xmark_doc(&XmarkConfig::sized(20_000)));
    let expected = Arc::new(sequential_answers(&doc));
    let serve = Arc::new(ServeEngine::builder().workers(4).build());
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let serve = Arc::clone(&serve);
            let doc = Arc::clone(&doc);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                for (q, want) in corpus::QUERIES.iter().zip(expected.iter()) {
                    let got = serve.query(Corpus::Document(Arc::clone(&doc)), q).wait();
                    match (&got, want) {
                        (Ok(g), Ok(w)) => {
                            assert!(values_agree(g, w), "{q}: got {g:?}, want {w:?}");
                        }
                        (Err(ServeError::Eval(g)), Err(w)) => assert_eq!(g, w, "{q}"),
                        _ => panic!("{q}: got {got:?}, want {want:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Quadratic on purpose: every element's `following` list is built and
/// ranked on its own, Θ(|D|²) work that runs for minutes at 2·10⁴
/// elements — every request carrying it ends at its deadline.
const QUADRATIC: &str = "count(//*/following::*[last()])";

#[test]
fn pathological_request_is_shed_by_its_deadline() {
    // A zero-duration deadline trips before any work happens; 100 ms
    // trips in the middle of the evaluation, so metering must poll while
    // real work runs.  Either way the exhaustion surfaces through the
    // ticket as an error well inside a liveness bound, and the pool keeps
    // serving afterwards.
    let doc = Arc::new(xmark_doc(&XmarkConfig::sized(20_000)));
    let serve = ServeEngine::builder().workers(2).build();
    for deadline in [Duration::ZERO, Duration::from_millis(100)] {
        let err = serve
            .query_with_budget(
                Corpus::Document(Arc::clone(&doc)),
                QUADRATIC,
                Budget::timeout(deadline),
            )
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("a {deadline:?} deadline never fired"))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Eval(EvalError::BudgetExhausted { .. })),
            "{deadline:?}: {err:?}"
        );
        // The pool is still healthy.
        let v = serve
            .query(Corpus::Document(Arc::clone(&doc)), "count(/*)")
            .wait()
            .unwrap();
        assert_eq!(v, Value::Number(1.0));
    }
}

#[test]
fn a_full_queue_sheds_exactly_the_excess_at_admission() {
    // One worker held busy by a deadline-bounded quadratic request, and a
    // queue of four: of eight light requests, four are admitted and four
    // bounce as `Overloaded` at submission.
    let doc = Arc::new(xmark_doc(&XmarkConfig::sized(20_000)));
    let serve = ServeEngine::builder().workers(1).queue_capacity(4).build();
    let blocker = serve.query_with_budget(
        Corpus::Document(Arc::clone(&doc)),
        QUADRATIC,
        Budget::timeout(Duration::from_secs(2)),
    );
    // Once the worker has taken the blocker, the queue is empty until
    // the blocker's deadline.
    while serve.queue_depth() > 0 {
        thread::yield_now();
    }
    let light: Vec<_> = (0..8)
        .map(|_| serve.query(Corpus::Document(Arc::clone(&doc)), "count(/*)"))
        .collect();
    let (mut ok, mut shed) = (0, 0);
    for t in light {
        let got = t
            .wait_timeout(Duration::from_secs(30))
            .expect("ticket hung");
        match got {
            Ok(v) => {
                assert_eq!(v, Value::Number(1.0));
                ok += 1;
            }
            Err(ServeError::Overloaded { capacity: 4 }) => shed += 1,
            Err(e) => panic!("light request failed: {e:?}"),
        }
    }
    assert_eq!((ok, shed), (4, 4));
    let err = blocker.wait().unwrap_err();
    assert!(
        matches!(err, ServeError::Eval(EvalError::BudgetExhausted { .. })),
        "{err:?}"
    );
    let stats = serve.stats();
    assert_eq!(stats.shed, 4);
    assert!(stats.max_queue_depth <= 4, "{stats:?}");
    // With the queue drained, a new request gets through.
    let v = serve
        .query(Corpus::Document(doc), "count(/*)")
        .wait()
        .unwrap();
    assert_eq!(v, Value::Number(1.0));
}

#[test]
fn tiny_fuel_budget_is_honored_per_request() {
    let doc = Arc::new(xmark_doc(&XmarkConfig::sized(20_000)));
    let serve = ServeEngine::builder().workers(2).build();
    // The predicate filters every element as a candidate, which charges
    // per candidate — far beyond 10 units on a 20k-node document.  (A
    // bare `count(//*)` is *cheap* under MinContext: charges scale with
    // context-set sizes, not output size.)
    let err = serve
        .query_with_budget(
            Corpus::Document(Arc::clone(&doc)),
            "count(//*[child::*])",
            Budget::fuel(10),
        )
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Eval(EvalError::BudgetExhausted { .. })),
        "{err:?}"
    );
    // An unbudgeted request on the same engine is unaffected.
    assert!(serve
        .query(Corpus::Document(doc), "count(//*)")
        .wait()
        .is_ok());
}

#[test]
fn dropping_the_engine_answers_or_disconnects_every_ticket() {
    let doc = Arc::new(xmark_doc(&XmarkConfig::sized(5_000)));
    let serve = ServeEngine::builder().workers(2).build();
    let tickets: Vec<_> = (0..50)
        .map(|_| serve.query(Corpus::Document(Arc::clone(&doc)), "count(//*)"))
        .collect();
    drop(serve); // closes the queue, drains, joins
    for t in tickets {
        // Already-queued jobs are drained on close, so every ticket
        // resolves; none may hang.
        match t.wait() {
            Ok(v) => assert!(matches!(v, Value::Number(n) if n > 0.0)),
            Err(ServeError::Disconnected) => {}
            Err(e) => panic!("{e:?}"),
        }
    }
}

#[test]
fn shared_lru_is_coherent_under_contention() {
    // Barrier-released threads hammer one SharedLru with overlapping
    // key ranges; every observed value must be one some thread wrote
    // for that key, and residency stays within capacity.
    const THREADS: usize = 8;
    let cache: Arc<SharedLru<u32, Arc<(u32, u32)>>> = Arc::new(SharedLru::new(64));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS as u32)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..200u32 {
                    for key in 0..32u32 {
                        cache.insert(key, Arc::new((key, t * 1000 + round)));
                        if let Some(v) = cache.get(&key) {
                            // Values are never torn: the payload always
                            // carries its own key.
                            assert_eq!(v.0, key);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(cache.len() <= 64);
    assert!(!cache.is_empty());
}
