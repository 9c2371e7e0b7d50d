//! Persistent-index smoke: proves `open_snapshot` is what it claims —
//! **zero-copy and parser-free** — on the benchmark corpus.
//!
//! ```text
//! cargo run --release -p minctx-bench --bin index_smoke [elements]
//! ```
//!
//! Builds the XMark-style corpus (10⁶ elements by default, matching the
//! stream smoke's tier), snapshots it, drops the arena, reopens the
//! snapshot, and asserts:
//!
//! * the `xml/tokenizers_created` counter of `minctx_obs::global()` did
//!   not move — the open never lexed a byte of XML (no re-parse,
//!   structurally impossible to fake);
//! * its `xml/documents_built` counter did not move — no arena was
//!   re-built either, the columns were adopted in place;
//! * total bytes allocated during the open stay under a fixed ceiling
//!   (1 MiB) that is orders of magnitude below the document's own
//!   footprint — only the name table and the document shell may
//!   allocate, never an `O(|D|)` column copy;
//! * a query answered from the reopened snapshot agrees with the answer
//!   computed on the original arena, and the snapshot stamp round-trips.
//!
//! It also prints what the open cost — MB/s over the file, and how the
//! one pass over the sections split between checksum and invariant
//! sweep (the `index/open_hash_ns` / `index/open_sweep_ns` counters) —
//! and what the file costs: bytes per node and per byte of the
//! corpus as XML text.
//! Printed, not asserted: open speed is gated by `benchmark/`
//! (`snapshot-cold`, `index.open_ms`).
//!
//! The CI `index-smoke` job runs this binary; see DESIGN.md "Persistent
//! index".

use minctx_bench::{values_agree, xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{open_snapshot, write_snapshot, Engine, Strategy};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Bytes `open_snapshot` may allocate: name table + document shell +
/// file handles.  The 10⁶-element corpus itself is ~10⁸ bytes, so this
/// ceiling is what makes "zero-copy" falsifiable.  (The heap fallback
/// for platforms without `mmap` would blow straight through it — by
/// design; this smoke pins the mapped path.)
const OPEN_ALLOC_CEILING: usize = 1 << 20;

fn main() {
    let elements: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let cfg = XmarkConfig::sized(elements);

    let build_start = Instant::now();
    let doc = xmark_doc(&cfg);
    let nodes = doc.len();
    println!(
        "corpus: {nodes} nodes ({elements} elements), built in {:.1?}",
        build_start.elapsed()
    );

    let xml_len = minctx_xml::serialize::to_xml_string(&doc).len();
    let engine = Engine::new(Strategy::OptMinContext);
    let expected = engine.evaluate_str(&doc, "count(//item)").unwrap();

    let path = std::env::temp_dir().join(format!("minctx-index-smoke-{}.mctx", std::process::id()));
    let write_start = Instant::now();
    let info = write_snapshot(&doc, &path).unwrap();
    println!(
        "snapshot: {} bytes written in {:.1?} ({:.1} bytes a node, {:.2} per XML byte; stamp \
         {:#018x})",
        info.file_len,
        write_start.elapsed(),
        info.file_len as f64 / nodes as f64,
        info.file_len as f64 / xml_len as f64,
        info.stamp
    );
    drop(doc);

    let docs_built = minctx_obs::global().counter("xml/documents_built");
    let toks_created = minctx_obs::global().counter("xml/tokenizers_created");
    let pass_ns = ["index/open_hash_ns", "index/open_sweep_ns"]
        .map(|name| minctx_obs::global().counter(name));
    let docs_before = docs_built.get();
    let toks_before = toks_created.get();
    let pass_before = pass_ns.each_ref().map(minctx_obs::Counter::get);
    let alloc_before = ALLOC.total();
    let open_start = Instant::now();
    let snap = open_snapshot(&path).unwrap();
    let open_time = open_start.elapsed();
    let open_alloc = ALLOC.total() - alloc_before;

    assert_eq!(
        toks_created.get(),
        toks_before,
        "open_snapshot constructed a Tokenizer: the snapshot was re-lexed"
    );
    assert_eq!(
        docs_built.get(),
        docs_before,
        "open_snapshot ran the DocumentBuilder: the arena was re-built"
    );
    assert!(
        open_alloc <= OPEN_ALLOC_CEILING,
        "open_snapshot allocated {open_alloc} bytes (ceiling {OPEN_ALLOC_CEILING}): \
         a column was copied instead of mapped"
    );

    let got = engine.evaluate_str(&snap, "count(//item)").unwrap();
    assert!(
        values_agree(&got, &expected),
        "snapshot answer {got:?} != arena answer {expected:?}"
    );
    assert_eq!(
        toks_created.get(),
        toks_before,
        "evaluating on a snapshot lexed XML"
    );
    assert_eq!(
        snap.stamp(),
        info.stamp,
        "stamp did not survive the round trip"
    );

    let [hash_ms, sweep_ms] = [0, 1].map(|k| (pass_ns[k].get() - pass_before[k]) as f64 / 1e6);
    println!(
        "open_snapshot: {open_time:.1?} ({:.0} MB/s; hash {hash_ms:.1} ms, sweep {sweep_ms:.1} ms, \
         map + names + adopt the rest), {open_alloc} bytes allocated \
         (ceiling {OPEN_ALLOC_CEILING}); count(//item) = {got:?} — OK",
        info.file_len as f64 / 1e6 / open_time.as_secs_f64()
    );
    std::fs::remove_file(&path).ok();
}
