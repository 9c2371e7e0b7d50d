//! Where an open of the 4·10⁵-element snapshot spends its time: the
//! XMark document written once as it is (an ASCII text heap) and once
//! with `é` after every `">` (a heap of multi-byte text), each opened 30
//! times.  Prints the median open and the median per-open split of the
//! three open counters — hash and sweep (the one pass over the sections)
//! and finish (name table and whole-column checks) — beside the median
//! time of `std::str::from_utf8` over the document's text heap alone (every
//! node's content, concatenated in pre-order), the UTF-8 share of the
//! sweep.  It asserts only that each counter advanced on every open,
//! never a time; run it with
//! `cargo test --release -p minctx-bench --test open_split -- --ignored
//! --nocapture`.

use minctx_bench::{xmark_doc, XmarkConfig};
use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use minctx_xml::{parse, serialize::to_xml_string, Document};
use std::hint::black_box;
use std::time::Instant;

const OPENS: usize = 30;

const COUNTERS: [&str; 3] = [
    "index/open_hash_ns",
    "index/open_sweep_ns",
    "index/open_finish_ns",
];

fn median(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64 / 1e6
}

/// Opens `doc`'s snapshot [`OPENS`] times and prints the medians.
fn open_split(what: &str, doc: &Document) {
    let path = std::env::temp_dir().join(format!(
        "minctx-open-split-{}-{what}.mctx",
        std::process::id()
    ));
    let info = write_snapshot(doc, &path).unwrap();
    let cells = COUNTERS.map(|name| minctx_obs::global().counter(name));
    let (mut open_ns, mut split_ns) = (Vec::new(), [(); 3].map(|()| Vec::new()));
    for _ in 0..OPENS {
        let before = cells.each_ref().map(|c| c.get());
        let clock = Instant::now();
        let snap = open_snapshot(&path).unwrap();
        open_ns.push(clock.elapsed().as_nanos() as u64);
        for ((ns, cell), before) in split_ns.iter_mut().zip(&cells).zip(before) {
            let spent = cell.get() - before;
            assert!(spent > 0, "{what}: the open did not advance a counter");
            ns.push(spent);
        }
        assert_eq!(snap.stamp(), info.stamp);
    }
    std::fs::remove_file(&path).ok();
    let heap: Vec<u8> = doc
        .all_nodes()
        .flat_map(|n| doc.content(n).bytes())
        .collect();
    let utf8_ns = (0..OPENS)
        .map(|_| {
            let clock = Instant::now();
            assert!(std::str::from_utf8(black_box(&heap)).is_ok());
            clock.elapsed().as_nanos() as u64
        })
        .collect();
    let [hash, sweep, finish] = split_ns.map(median);
    println!(
        "{what}: {:.1} MB, open median {:.2} ms = hash {hash:.2} + sweep {sweep:.2} + \
         finish {finish:.2} ms; from_utf8 over the {:.1} MB heap {:.2} ms (medians of {OPENS})",
        info.file_len as f64 / 1e6,
        median(open_ns),
        heap.len() as f64 / 1e6,
        median(utf8_ns),
    );
}

#[test]
#[ignore = "4·10⁵ elements, timed: run in release with --ignored"]
fn open_time_splits_into_hash_sweep_and_finish() {
    let doc = xmark_doc(&XmarkConfig::sized(400_000));
    let twin = parse(&to_xml_string(&doc).replace("\">", "\">é")).unwrap();
    open_split("ascii", &doc);
    open_split("non-ascii", &twin);
}
