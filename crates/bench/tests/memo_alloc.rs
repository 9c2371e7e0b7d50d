//! A per-node number memo is sized to the entries written, not to the
//! document: `//a[position() = count(b)]` keeps one `count(b)` for the one
//! `<a>` of a 10⁵-element document, where a dense `f64` per node used to
//! allocate 8·|D| bytes on the first write.  One test in this binary, so
//! nothing else allocates while it counts.

use minctx_bench::CountingAllocator;
use minctx_core::{Engine, Strategy, Value};
use minctx_syntax::parse_xpath;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_per_node_number_allocates_what_it_stores() {
    let mut xml = String::from("<r>");
    xml.push_str(&"<x/>".repeat(100_000));
    xml.push_str("<a><b/></a></r>");
    let doc = minctx_xml::parse(&xml).unwrap();
    let q = parse_xpath("//a[position() = count(b)]").unwrap();
    for s in [Strategy::MinContext, Strategy::OptMinContext] {
        let engine = Engine::new(s);
        // Warm: the compiled query is cached and the scratch pooled.
        let want = engine.evaluate(&doc, &q).unwrap();
        let before = ALLOC.total();
        let got = engine.evaluate(&doc, &q).unwrap();
        let allocated = ALLOC.total() - before;
        assert!(
            matches!(&got, Value::NodeSet(ns) if ns.len() == 1),
            "{s}: {got:?}"
        );
        assert_eq!(got, want);
        assert!(allocated < 64 << 10, "{s}: {allocated} bytes for one count");
    }
}
