//! A warm serving pool answers from the snapshot it mapped once: across
//! a steady state of requests from two clients, no XML is lexed, no arena
//! is built, no snapshot is re-opened, both caches only hit, and the mean
//! allocation per request stays under a ceiling that a copy of the
//! snapshot, or of any one of its node columns, would exceed.  One
//! allocation check in this binary, so nothing else allocates while it
//! counts.

use minctx_bench::{xmark_doc, CountingAllocator, XmarkConfig};
use minctx_obs::Counter;
use minctx_serve::{Corpus, ServeEngine};
use minctx_xml::snapshot::write_snapshot;
use std::sync::Arc;
use std::thread;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Scalar answers, so the reply and not the result size is what a
/// request allocates.
const QUERIES: &[&str] = &[
    "count(//item)",
    "count(//item[@id])",
    "count(//parlist/listitem)",
    "count(/site/item)",
    "boolean(//listitem)",
    "count(//item) + count(//parlist)",
];

const CLIENTS: usize = 2;
const REQUESTS: usize = 600;

#[test]
#[cfg_attr(miri, ignore)]
fn a_warm_pool_serves_without_copying_the_snapshot() {
    let path = std::env::temp_dir().join(format!("minctx-serve-alloc-{}.mctx", std::process::id()));
    let snapshot_len = write_snapshot(&xmark_doc(&XmarkConfig::sized(20_000)), &path)
        .unwrap()
        .file_len as usize;
    let serve = Arc::new(ServeEngine::builder().workers(2).build());
    // Warm-up: the snapshot is mapped once and every query compiled once.
    for q in QUERIES {
        serve
            .query(Corpus::Snapshot(path.clone()), q)
            .wait()
            .unwrap();
    }

    let counters = [
        "xml/tokenizers_created",
        "xml/documents_built",
        "index/snapshots_opened",
    ]
    .map(|name| minctx_obs::global().counter(name));
    let counted = || counters.each_ref().map(Counter::get);
    let (before, warm) = (counted(), serve.stats());
    let alloc_before = ALLOC.total();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let serve = Arc::clone(&serve);
            let path = path.clone();
            thread::spawn(move || {
                for i in 0..REQUESTS / CLIENTS {
                    let q = QUERIES[(c + i) % QUERIES.len()];
                    serve
                        .query(Corpus::Snapshot(path.clone()), q)
                        .wait()
                        .unwrap();
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let per_request = (ALLOC.total() - alloc_before) / REQUESTS;

    assert_eq!(
        counted(),
        before,
        "[tokenizers, arenas, opens] moved mid-serve"
    );
    let stats = serve.stats();
    assert_eq!(
        (stats.snapshot_misses, stats.query_misses),
        (warm.snapshot_misses, warm.query_misses),
        "a cache missed in the steady state: {stats:?}"
    );
    // An eighth of the file is less than one of its four node columns
    // (≈ 16 KB a request against a 1.2 MB snapshot).
    assert!(
        per_request < snapshot_len / 8,
        "{per_request} bytes a request against a {snapshot_len}-byte snapshot"
    );
    std::fs::remove_file(&path).ok();
}
