//! Concurrent-service smoke: proves the `minctx-serve` worker pool
//! serves a shared snapshot **without re-parsing, re-building, or
//! copying** it, and that per-request budgets shed pathological work.
//!
//! ```text
//! cargo run --release -p minctx-bench --bin serve_smoke [elements]
//! ```
//!
//! Builds the XMark-style corpus (10⁵ elements by default), snapshots
//! it, then runs 4 workers × 1 000 requests from 4 client threads and
//! asserts:
//!
//! * every concurrent answer agrees with a single-threaded evaluation
//!   of the same query on the same snapshot;
//! * the `xml/tokenizers_created` and `xml/documents_built` counters of
//!   `minctx_obs::global()` stay **flat** across the serving phase —
//!   after warm-up the pool never lexes XML or rebuilds an arena (the
//!   snapshot is mapped once per content stamp, compiled queries are
//!   cached per `(query, doc stamp)`);
//! * mean allocation per request stays under a fixed ceiling orders of
//!   magnitude below the document footprint — no per-request copy;
//! * a pathological request under a 100 ms deadline comes back as
//!   `BudgetExhausted` promptly, and the pool keeps serving;
//! * a burst of 4× the queue capacity against a small pool is shed as
//!   `Overloaded` at admission — instantly, not after a timeout — while
//!   every admitted request resolves within a bounded p99, and a
//!   retrying client (`query_with_retry`) gets through once the burst
//!   drains.
//!
//! The CI `serve-smoke` job runs this binary; see DESIGN.md
//! "Concurrent service" and "Fault tolerance".

use minctx_bench::{values_agree, xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{open_snapshot, write_snapshot, Budget, Engine, EvalError, Strategy};
use minctx_serve::{Corpus, RetryPolicy, ServeEngine, ServeError};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const WORKERS: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS: usize = 1_000;

/// Mean bytes allocated per steady-state request.  Scalar answers over
/// cached compilations allocate intermediate node-sets bounded by the
/// query, never an `O(file)` snapshot copy (~10 MB at the default
/// tier), which is what this ceiling makes falsifiable.
const PER_REQUEST_ALLOC_CEILING: usize = 4 << 20;

/// The steady-state mix: scalar answers so the reply channel, not the
/// result size, dominates per-request allocation.
const QUERIES: &[&str] = &[
    "count(//item)",
    "count(//item[@id])",
    "count(//parlist/listitem)",
    "count(/site/item)",
    "boolean(//listitem)",
    "count(//item) + count(//parlist)",
];

/// Quadratic on purpose: a per-node `preceding::*` sweep that would run
/// for minutes at the default tier without a deadline.
const PATHOLOGICAL: &str = "count(//*[count(preceding::*) > 1])";

fn main() {
    let elements: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let cfg = XmarkConfig::sized(elements);

    let build_start = Instant::now();
    let doc = xmark_doc(&cfg);
    println!(
        "corpus: {} nodes ({elements} elements), built in {:.1?}",
        doc.len(),
        build_start.elapsed()
    );

    let path = std::env::temp_dir().join(format!("minctx-serve-smoke-{}.mctx", std::process::id()));
    write_snapshot(&doc, &path).unwrap();
    drop(doc);

    // Single-threaded ground truth on the same mapped snapshot, same
    // strategy as the pool's workers.
    let mapped = open_snapshot(&path).unwrap();
    let engine = Engine::new(Strategy::OptMinContext);
    let expected: Vec<_> = QUERIES
        .iter()
        .map(|q| engine.evaluate_str(&mapped, q).unwrap())
        .collect();
    drop(mapped);

    let serve = Arc::new(ServeEngine::builder().workers(WORKERS).build());

    // Warm-up: one request per query maps the snapshot (once) and fills
    // the compiled-query cache.
    for (q, want) in QUERIES.iter().zip(&expected) {
        let got = serve
            .query(Corpus::Snapshot(path.clone()), q)
            .wait()
            .unwrap();
        assert!(values_agree(&got, want), "{q}: warm-up {got:?} != {want:?}");
    }

    let toks_created = minctx_obs::global().counter("xml/tokenizers_created");
    let docs_built = minctx_obs::global().counter("xml/documents_built");
    let toks_before = toks_created.get();
    let docs_before = docs_built.get();
    let alloc_before = ALLOC.total();
    let serve_start = Instant::now();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let serve = Arc::clone(&serve);
            let path = path.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for i in 0..REQUESTS / CLIENTS {
                    let qi = (c + i) % QUERIES.len();
                    let got = serve
                        .query(Corpus::Snapshot(path.clone()), QUERIES[qi])
                        .wait()
                        .unwrap();
                    assert!(
                        values_agree(&got, &expected[qi]),
                        "{}: got {got:?}, want {:?}",
                        QUERIES[qi],
                        expected[qi]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let serve_time = serve_start.elapsed();
    let per_request_alloc = (ALLOC.total() - alloc_before) / REQUESTS;
    assert_eq!(
        toks_created.get(),
        toks_before,
        "the pool lexed XML mid-serve: a snapshot was re-parsed"
    );
    assert_eq!(
        docs_built.get(),
        docs_before,
        "the pool re-built an arena mid-serve: the snapshot cache missed"
    );
    assert!(
        per_request_alloc <= PER_REQUEST_ALLOC_CEILING,
        "mean {per_request_alloc} bytes/request (ceiling {PER_REQUEST_ALLOC_CEILING}): \
         something is copied per request"
    );

    // A pathological request is shed by its deadline — promptly, as an
    // error — and the pool stays healthy.
    let shed_start = Instant::now();
    let err = serve
        .query_with_budget(
            Corpus::Snapshot(path.clone()),
            PATHOLOGICAL,
            Budget::timeout(Duration::from_millis(100)),
        )
        .wait()
        .unwrap_err();
    let shed_time = shed_start.elapsed();
    assert!(
        matches!(err, ServeError::Eval(EvalError::BudgetExhausted { .. })),
        "pathological request returned {err:?}"
    );
    assert!(
        shed_time < Duration::from_secs(2),
        "deadline enforcement took {shed_time:.1?}: metering is too coarse"
    );
    let after = serve
        .query(Corpus::Snapshot(path.clone()), QUERIES[0])
        .wait()
        .unwrap();
    assert!(values_agree(&after, &expected[0]));

    let stats = serve.stats();
    assert!(
        stats.snapshot_hits > stats.snapshot_misses && stats.query_hits > stats.query_misses,
        "caches did not absorb the steady state: {stats:?}"
    );

    println!(
        "served {REQUESTS} requests on {WORKERS} workers in {serve_time:.1?} \
         ({:.0} req/s), {per_request_alloc} bytes/request (ceiling {PER_REQUEST_ALLOC_CEILING})",
        REQUESTS as f64 / serve_time.as_secs_f64()
    );
    println!("pathological query shed in {shed_time:.1?} (100 ms deadline); stats: {stats:?} — OK");
    drop(serve);

    overload_phase(&path, &expected[0]);
    std::fs::remove_file(&path).ok();
}

/// Admission control under a 4× burst: a deliberately small pool (2
/// workers, queue capacity 64) takes 256 near-simultaneous requests.
/// Excess load must bounce as `Overloaded` *at submission*, admitted
/// requests must all resolve with a bounded p99, and a backoff-retrying
/// client must get through once the burst drains.
fn overload_phase(path: &std::path::Path, want_first: &minctx_core::Value) {
    const QUEUE_CAPACITY: usize = 64;
    const BURST: usize = 4 * QUEUE_CAPACITY;

    let serve = ServeEngine::builder()
        .workers(2)
        .queue_capacity(QUEUE_CAPACITY)
        .build();
    // Warm the caches so burst latency measures queueing, not mapping.
    serve
        .query(Corpus::Snapshot(path.to_path_buf()), QUERIES[0])
        .wait()
        .unwrap();

    let burst_start = Instant::now();
    let tickets: Vec<_> = (0..BURST)
        .map(|i| {
            let t = serve.query_with_budget(
                Corpus::Snapshot(path.to_path_buf()),
                QUERIES[i % QUERIES.len()],
                Budget::timeout(Duration::from_secs(2)),
            );
            (Instant::now(), t)
        })
        .collect();
    let submit_time = burst_start.elapsed();

    let mut latencies = Vec::with_capacity(BURST);
    let (mut ok, mut shed, mut deadline) = (0usize, 0usize, 0usize);
    for (submitted, t) in tickets {
        let got = t
            .wait_timeout(Duration::from_secs(20))
            .expect("burst ticket hung");
        latencies.push(submitted.elapsed());
        match got {
            Ok(_) => ok += 1,
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, QUEUE_CAPACITY);
                shed += 1;
            }
            Err(ServeError::Eval(EvalError::BudgetExhausted { .. })) => deadline += 1,
            Err(e) => panic!("burst request failed oddly: {e:?}"),
        }
    }
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() * 99 / 100 - 1];

    assert!(
        shed > 0,
        "a {BURST}-request burst against capacity {QUEUE_CAPACITY} shed nothing \
         (submit took {submit_time:.1?}; the workers outran the client?)"
    );
    assert!(ok > 0, "the burst starved every admitted request");
    assert!(
        p99 < Duration::from_secs(5),
        "burst p99 {p99:.1?}: admission control failed to bound tail latency"
    );
    let stats = serve.stats();
    assert_eq!(stats.shed as usize, shed);
    assert!(stats.max_queue_depth <= QUEUE_CAPACITY as u64);

    // With the burst drained, a retrying client succeeds.
    let retried = serve
        .query_with_retry(
            Corpus::Snapshot(path.to_path_buf()),
            QUERIES[0],
            Budget::timeout(Duration::from_secs(10)),
            RetryPolicy::default()
                .attempts(6)
                .base_delay(Duration::from_millis(20)),
        )
        .expect("retry never got through after the burst");
    assert!(values_agree(&retried, want_first));

    println!(
        "overload burst: {BURST} submitted against capacity {QUEUE_CAPACITY} → \
         {ok} ok, {shed} shed (Overloaded), {deadline} deadline-exhausted; \
         p99 {p99:.1?}, max depth {} — OK",
        stats.max_queue_depth
    );
}
