//! Mapped copies of built documents for the integration tests: a
//! document written with `write_snapshot` and opened again with
//! `open_snapshot`, so its columns are borrowed from the production
//! `Mapping` (the heap fallback under Miri).

use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use minctx_xml::Document;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reopens `doc` as a borrowed-column document through a temp file,
/// removed once open (the mapping keeps its bytes).
pub fn reopen(doc: &Document) -> Document {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "minctx-support-{}-{}.mctx",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    write_snapshot(doc, &path).expect("snapshot is written");
    let mapped = open_snapshot(&path).expect("snapshot opens");
    std::fs::remove_file(&path).ok();
    mapped
}
