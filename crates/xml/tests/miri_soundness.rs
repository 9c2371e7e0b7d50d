//! Miri-first soundness tier for the zero-copy column layer.
//!
//! These tests drive every `unsafe` path in `minctx-xml` — borrowed
//! `Col` reads through cached raw pointers, the `NodeId`/`u32`
//! reinterpret behind postings, `from_utf8_unchecked` content spans,
//! and the `Mapping` a document keeps alive — through the *public* API,
//! with inputs small enough that `cargo miri test` finishes in seconds.  They also run in the ordinary test tier, where they serve
//! as round-trip regression tests.
//!
//! CI runs them under `MIRIFLAGS="-Zmiri-strict-provenance"`, so a
//! provenance-losing pointer round-trip or any out-of-bounds /
//! use-after-free read in the column code fails the job.

mod support;

use support::reopen;

const DOC: &str =
    r#"<lib x="1"><b id="b1">téxt·1</b><!--c--><?p d?><b id="b2" y="2">t2<i/></b></lib>"#;

#[test]
fn borrowed_columns_round_trip_owned_columns() {
    let owned = minctx_xml::parse(DOC).unwrap();
    let mapped = reopen(&owned);
    assert_eq!(mapped.debug_tree(), owned.debug_tree());
    assert_eq!(
        mapped.string_value(mapped.root()),
        owned.string_value(owned.root())
    );
    for (a, b) in owned.all_nodes().zip(mapped.all_nodes()) {
        assert_eq!(owned.kind(a), mapped.kind(b));
        assert_eq!(owned.content(a), mapped.content(b));
        assert_eq!(owned.subtree_end(a), mapped.subtree_end(b));
    }
}

#[test]
fn nodeid_reinterpret_postings_agree() {
    let owned = minctx_xml::parse(DOC).unwrap();
    let mapped = reopen(&owned);
    // `element_postings` serves `&[NodeId]` reinterpreted from the
    // borrowed `u32` column — the cast Miri checks here.
    let name = mapped.find_name("b").unwrap();
    let posts = mapped.element_postings(name);
    assert_eq!(posts.len(), 2);
    assert_eq!(posts, owned.element_postings(owned.find_name("b").unwrap()));
    assert_eq!(
        mapped.element_by_id("b2").map(|n| n.index()),
        owned.element_by_id("b2").map(|n| n.index())
    );
}

#[test]
fn mapped_document_keeps_its_region_alive() {
    // The Arc inside the document is the only thing keeping the region
    // mapped; reading after every other handle is gone is exactly the
    // use-after-free Miri would catch if the keep-alive were broken.
    let mapped = {
        let owned = minctx_xml::parse(DOC).unwrap();
        reopen(&owned)
        // `owned` and the packing scope drop here.
    };
    assert_eq!(mapped.string_value(mapped.root()), "téxt·1t2");
    assert_eq!(mapped.element_count(), 4);
}

#[test]
fn two_documents_alias_one_region_soundly() {
    let owned = minctx_xml::parse(DOC).unwrap();
    let a = reopen(&owned);
    let b = reopen(&owned);
    drop(owned);
    assert_eq!(a.debug_tree(), b.debug_tree());
    let tree = b.debug_tree();
    drop(a);
    // `b` still reads its own region after `a` (and its region) died.
    assert_eq!(b.debug_tree(), tree);
}
