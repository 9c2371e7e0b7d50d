//! Snapshot round-trip differential suite: every corpus document is
//! written to a snapshot, reopened zero-copy, and the full query corpus
//! must produce **identical** results on the owned and the mapped
//! document under all four arena strategies — query for query, ordinal
//! for ordinal (node-set values compare by `NodeId`, which *is* the
//! pre-order ordinal).
//!
//! This is the acceptance gate for the flattened column layout: if any
//! accessor (postings CSR, text-heap spans, sorted id index, packed
//! kinds, structure links) decoded mapped bytes differently from owned
//! buffers, some corpus query would diverge here.

use minctx_bench::{corpus, values_agree, xmark_doc, XmarkConfig};
use minctx_core::{open_snapshot, write_snapshot, Engine, Strategy};
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
#[cfg_attr(
    miri,
    ignore = "full corpus x strategy sweep is minutes-long under the interpreter"
)]
fn corpus_agrees_owned_vs_mapped_across_all_strategies() {
    // The shared corpus documents plus an XMark-style generated document
    // (irregular shape, ids, attributes at realistic densities) so the
    // postings and id-index fast paths see their benchmark shape.
    let mut documents = corpus::documents();
    documents.push((
        "xmark-2k".to_string(),
        xmark_doc(&XmarkConfig::sized(2_000)),
    ));
    for (name, owned) in &documents {
        let mapped = reopen(name, owned);
        // All four strategies on the corpus documents; the generated
        // document is past the cubic CVT evaluator's practical size (and
        // pointlessly slow under the metered naive one), so it runs the
        // two serving evaluators — the mapped-column decoding they all
        // share is already fully cross-checked on the smaller documents.
        let strategies: &[Strategy] = if owned.len() > 650 {
            &[Strategy::MinContext, Strategy::OptMinContext]
        } else {
            &Strategy::ALL
        };
        for &strategy in strategies {
            let engine = Engine::new(strategy);
            for query in corpus::QUERIES {
                let a = engine.evaluate_str(owned, query);
                let b = engine.evaluate_str(&mapped, query);
                match (&a, &b) {
                    (Ok(va), Ok(vb)) => assert!(
                        values_agree(va, vb),
                        "{name} / {strategy} / {query}: owned {va:?} != mapped {vb:?}"
                    ),
                    (Err(ea), Err(eb)) => assert_eq!(
                        ea.to_string(),
                        eb.to_string(),
                        "{name} / {strategy} / {query}: errors diverge"
                    ),
                    _ => panic!("{name} / {strategy} / {query}: owned {a:?} vs mapped {b:?}"),
                }
            }
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "axis x test x origin sweep is minutes-long under the interpreter"
)]
fn set_kernels_agree_owned_vs_mapped() {
    // The walking kernels read `first_child` / `next_sibling` /
    // `prev_sibling` — columns no corpus query reached through the set
    // kernels while those swept `parent` alone: every axis under every
    // non-name test, and every preimage, from sparse, nested and total
    // origin sets, ordinal for ordinal.
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
