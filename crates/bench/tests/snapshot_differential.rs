//! Snapshot round-trip suite: the corpus queries on an owned and a mapped
//! XMark document, the set kernels on owned and mapped copies,
//! compiled-query caches on a mapped document, and byte-stable
//! re-serialization.  The corpus documents' mapped copies are held to the
//! owned ones by `core/tests/differential.rs`.

use minctx_bench::{corpus, lattice, xmark_doc, XmarkConfig};
use minctx_core::{Engine, Strategy};
use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use minctx_xml::Document;
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "minctx-snap-diff-{}-{name}.mctx",
        std::process::id()
    ))
}

/// The round-trip under test: write, reopen, sanity-check the identity.
fn reopen(name: &str, doc: &Document) -> Document {
    let path = temp(name);
    let info = write_snapshot(doc, &path).expect("write_snapshot");
    let mapped = open_snapshot(&path).expect("open_snapshot");
    std::fs::remove_file(&path).ok();
    assert_eq!(mapped.len(), doc.len(), "{name}: node count");
    assert_eq!(mapped.stamp(), info.stamp, "{name}: stamp");
    assert_ne!(mapped.stamp(), doc.stamp(), "{name}: namespaces disjoint");
    mapped
}

#[test]
#[cfg_attr(miri, ignore = "minutes-long under the interpreter")]
fn corpus_agrees_owned_vs_mapped_across_all_strategies() {
    // An irregular shape with ids and attributes at realistic densities, so
    // the postings and id-index paths see their benchmark shape, in every
    // configuration of the lattice.  It is past naive's and CVT's size:
    // MINCONTEXT without the rewriter is the oracle.
    let doc = xmark_doc(&XmarkConfig::sized(2_000));
    lattice::queries_on(&[("xmark-2k".into(), doc)], corpus::QUERIES).floors(0, 5);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "axis x test x origin sweep is minutes-long under the interpreter"
)]
fn set_kernels_agree_owned_vs_mapped() {
    // The walking kernels follow `subtree_end` chains and attribute runs
    // that no corpus query reaches through the set kernels: every axis
    // under every non-name test, and every preimage, from sparse, nested
    // and total origin sets, ordinal for ordinal.
    use minctx_xml::axes::{axis_image, axis_preimage, Axis, NodeTest};
    use minctx_xml::NodeSet;
    let owned = xmark_doc(&XmarkConfig::sized(2_000));
    let mapped = reopen("kernels", &owned);
    let every = |k: usize| -> NodeSet { owned.all_nodes().step_by(k).collect() };
    let elements = owned
        .all_nodes()
        .filter(|&n| owned.kind(n).is_element())
        .collect();
    for set in [every(97), every(7), elements, every(1)] {
        for axis in Axis::ALL {
            for test in [
                NodeTest::AnyNode,
                NodeTest::Wildcard,
                NodeTest::Text,
                NodeTest::Comment,
                NodeTest::Pi(None),
            ] {
                assert_eq!(
                    axis_image(&mapped, axis, &set, &test),
                    axis_image(&owned, axis, &set, &test),
                    "{axis}::{test} from {} nodes",
                    set.len()
                );
            }
            assert_eq!(
                axis_preimage(&mapped, axis, &set),
                axis_preimage(&owned, axis, &set),
                "{axis} preimage of {} nodes",
                set.len()
            );
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "full corpus x strategy sweep is minutes-long under the interpreter"
)]
fn mapped_documents_serve_compiled_query_caches() {
    // The serving shape on a mapped document: compile once, evaluate
    // repeatedly with zero name resolution — same guarantee the owned
    // path has, now on borrowed columns.
    let owned = xmark_doc(&XmarkConfig::sized(500));
    let mapped = reopen("cache", &owned);
    let q = minctx_syntax::parse_xpath("//item[@id]").unwrap();
    let engine = Engine::new(Strategy::MinContext);
    let first = engine.evaluate(&mapped, &q).unwrap();
    let resolved_at = mapped.names().lookup_count();
    for _ in 0..3 {
        assert_eq!(engine.evaluate(&mapped, &q).unwrap(), first);
    }
    assert_eq!(
        mapped.names().lookup_count(),
        resolved_at,
        "cached evaluation on a mapped document resolved names"
    );
    // A clone (sharing the mapping and the stamp) hits the same entry.
    let cached = engine.cached_queries();
    engine.evaluate(&mapped.clone(), &q).unwrap();
    assert_eq!(engine.cached_queries(), cached);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "full corpus x strategy sweep is minutes-long under the interpreter"
)]
fn round_trip_of_a_round_trip_is_byte_stable() {
    // write(open(write(doc))) must reproduce the same stamp (= same
    // section bytes): serialization is deterministic and adopting mapped
    // columns loses nothing.
    let doc = xmark_doc(&XmarkConfig::sized(300));
    let (p1, p2) = (temp("stable-1"), temp("stable-2"));
    let s1 = write_snapshot(&doc, &p1).unwrap().stamp;
    let reopened = open_snapshot(&p1).unwrap();
    let s2 = write_snapshot(&reopened, &p2).unwrap().stamp;
    assert_eq!(s1, s2);
    let bytes1 = std::fs::read(&p1).unwrap();
    let bytes2 = std::fs::read(&p2).unwrap();
    assert_eq!(bytes1, bytes2, "re-serialized snapshot differs");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}
