//! Miri-tier snapshot round trip: `write → open → evaluate` over the
//! heap-backed mapping.
//!
//! Under Miri the `mmap` path is compiled out (`map.rs` gates it with
//! `cfg(not(miri))`), so this exercises the exact code a non-Unix or
//! map-failure open runs: the 8-aligned heap read, the `u32` section
//! reinterpret casts, and the borrowed-column document on top — all
//! interpreter-checked.  File I/O under Miri needs
//! `-Zmiri-disable-isolation`, which the CI job sets.
//!
//! In the ordinary tier the same test doubles as coverage that a
//! snapshot written by this build reopens correctly.

use minctx_xml::snapshot::{open_snapshot, write_snapshot};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("minctx-miri-{}-{name}.mctx", std::process::id()))
}

#[test]
fn snapshot_write_open_evaluate_round_trip() {
    let doc = minctx_xml::parse(r#"<r a="1"><x id="i1">héllo</x><x>world</x></r>"#).unwrap();
    let path = temp("roundtrip");
    let info = write_snapshot(&doc, &path).unwrap();
    let re = open_snapshot(&path).unwrap();
    assert_eq!(re.stamp(), info.stamp);
    assert_eq!(re.debug_tree(), doc.debug_tree());
    assert_eq!(re.string_value(re.root()), "hélloworld");
    // Postings + id index read through the reinterpret casts.
    let x = re.find_name("x").unwrap();
    assert_eq!(re.element_postings(x).len(), 2);
    assert!(re.element_by_id("i1").is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_snapshot_outlives_its_open_scope() {
    // The document must keep the backing region (heap mapping under
    // Miri) alive on its own — reads after the path and every other
    // handle are gone are the use-after-free probe.
    let doc = minctx_xml::parse("<a><b>t</b></a>").unwrap();
    let re = {
        let path = temp("keepalive");
        write_snapshot(&doc, &path).unwrap();
        let re = open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        re
    };
    assert_eq!(re.string_value(re.root()), "t");
    assert_eq!(re.element_count(), 2);
}
