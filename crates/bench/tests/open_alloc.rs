//! An opened snapshot copies no column: `open_snapshot` neither lexes XML
//! (`xml/tokenizers_created` flat) nor builds an arena
//! (`xml/documents_built` flat), and it allocates fewer bytes than the
//! document has nodes: a quarter of one `u32` column's copy.  Only the
//! name table and the document shell are allocated (≈ 1.3 KB).
//! The reopened snapshot answers as the arena did and keeps its stamp.
//! One allocation check in this binary, so nothing else allocates while
//! it measures; the 10⁶-element tier is `#[ignore]`d for a release run.

use minctx_bench::{values_agree, xmark_doc, CountingAllocator, XmarkConfig};
use minctx_core::{Engine, Strategy};
use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The two tiers share the gauges: one measures at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn open_copies_no_column(elements: usize) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let doc = xmark_doc(&XmarkConfig::sized(elements));
    let nodes = doc.len();
    let engine = Engine::new(Strategy::OptMinContext);
    let expected = engine.evaluate_str(&doc, "count(//item)").unwrap();
    let path = std::env::temp_dir().join(format!(
        "minctx-open-alloc-{}-{elements}.mctx",
        std::process::id()
    ));
    let info = write_snapshot(&doc, &path).unwrap();
    drop(doc);

    let docs_built = minctx_obs::global().counter("xml/documents_built");
    let toks_created = minctx_obs::global().counter("xml/tokenizers_created");
    let (docs_before, toks_before) = (docs_built.get(), toks_created.get());
    let before = ALLOC.total();
    let snap = open_snapshot(&path).unwrap();
    let allocated = ALLOC.total() - before;
    assert_eq!(toks_created.get(), toks_before, "the open lexed XML");
    assert_eq!(docs_built.get(), docs_before, "the open built an arena");
    assert!(
        allocated < nodes,
        "the open allocated {allocated} bytes for {nodes} nodes: a column was copied"
    );

    let got = engine.evaluate_str(&snap, "count(//item)").unwrap();
    assert!(values_agree(&got, &expected), "{got:?} != {expected:?}");
    assert_eq!(toks_created.get(), toks_before, "evaluation lexed XML");
    assert_eq!(snap.stamp(), info.stamp);
    drop(snap);
    std::fs::remove_file(&path).ok();
}

#[test]
#[cfg_attr(miri, ignore)]
fn open_copies_no_column_at_1e5() {
    open_copies_no_column(100_000);
}

#[test]
#[ignore = "10⁶ elements: run in release with --ignored"]
fn open_copies_no_column_at_1e6() {
    open_copies_no_column(1_000_000);
}
