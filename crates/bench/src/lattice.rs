//! The evaluation lattice: every arena strategy with the rewriter off and
//! on, over an owned and a mapped copy of the document, and the streaming
//! engine with the rewriter off and on over the document's text — all
//! against raw `Naive`, context-at-a-time semantics.  CVT and naive sit
//! out the documents too large for them.
//!
//! The suites that run it, each on its own inputs:
//! `core/tests/differential.rs::all_strategies_agree_on_the_corpus` (the
//! corpus), `bench/tests/snapshot_differential.rs` (the corpus queries on
//! an XMark document), `stream/tests/stream_property.rs` (the seeded
//! [`random_query`](crate::random_query)s that stream, on seeded
//! [`random_doc`]s) and
//! `core/tests/rewrite_property.rs` (positional shapes beside a run of 240
//! siblings).
//!
//! A failure prints what reproduces it from the log alone: the document's
//! seed, the query, the configuration and the document as XML.

use crate::{engines, random_doc, values_agree};
use minctx_core::{Engine, EvalError, Strategy, Value};
use minctx_stream::{StreamOutcome, StreamValue, StreamingEngine};
use minctx_xml::snapshot::{open_snapshot, write_snapshot};
use minctx_xml::{parse, serialize::to_xml_string, Document};
use std::fmt::Debug;

/// Raw naive's fuel on generated queries.  A query past it costs naive's
/// context-at-a-time evaluation too much; the first configuration that
/// answers is then the oracle, and [`Tally::naive`] does not count it.
/// Listed queries run naive unmetered: it must answer every one.
const NAIVE_FUEL: u64 = 1_000_000;

/// One document, owned, mapped from a snapshot, and as text.
struct Stores {
    name: String,
    xml: String,
    owned: Document,
    mapped: Document,
}

impl Stores {
    fn new(name: String, doc: &Document) -> Stores {
        let xml = to_xml_string(doc);
        // Parsed from its own text, so the streamer's ordinals are its ids.
        let owned = parse(&xml).expect("a serialized document parses");
        let file: String = name.chars().filter(char::is_ascii_alphanumeric).collect();
        let path =
            std::env::temp_dir().join(format!("minctx-lattice-{}-{file}.mctx", std::process::id()));
        write_snapshot(&owned, &path).expect("write_snapshot");
        let mapped = open_snapshot(&path).expect("open_snapshot");
        std::fs::remove_file(&path).ok();
        Stores {
            name,
            xml,
            owned,
            mapped,
        }
    }

    /// The arena engines worth running here: CVT fills `|D|³` cells, so it
    /// sits out documents past 320 nodes, and naive those past 650.
    fn engines(&self, naive_fuel: Option<u64>) -> Vec<Engine> {
        let n = self.owned.len();
        engines(naive_fuel)
            .into_iter()
            .filter(|e| match e.strategy() {
                Strategy::ContextValueTable => n <= 320,
                Strategy::Naive => n <= 650,
                _ => true,
            })
            .collect()
    }
}

/// What the runs saw, for the floors.
#[derive(Default)]
pub struct Tally {
    /// Queries run, one per document.
    pub cases: usize,
    /// Cases whose answer selects something.
    pub non_empty: usize,
    /// Cases raw naive answered within its fuel.
    pub naive: usize,
    /// Streaming runs, two a case, that streamed rather than fell back.
    pub streamed: usize,
}

impl Tally {
    /// Agreement on empty answers proves little, and the streamer must be
    /// fed, not only its fallback: at least `non_empty` per cent of the
    /// answers select something, and `streamed` per cent of the two
    /// streaming runs a case makes stream.
    pub fn floors(&self, non_empty: usize, streamed: usize) {
        let Tally { cases, .. } = *self;
        let ok = self.non_empty * 100 >= non_empty * cases
            && self.streamed * 100 >= streamed * 2 * cases;
        let (n, s) = (self.non_empty, self.streamed);
        assert!(ok, "{n} non-empty of {cases} answers, {s} streamed runs");
    }
}

fn stream_agrees(want: &Value, got: &StreamValue) -> bool {
    match got {
        StreamValue::Nodes(ms) => want.as_node_set().is_some_and(|ns| {
            let want = ns.iter().map(|n| n.index());
            ms.iter().map(|m| m.ordinal as usize).eq(want)
        }),
        StreamValue::Number(x) => values_agree(want, &Value::Number(*x)),
        StreamValue::Boolean(b) => *want == Value::Boolean(*b),
    }
}

/// Runs `q` on `st` in every configuration: each answer must agree with
/// the first one, raw naive's unless it ran out of fuel.
fn check(st: &Stores, engines: &[Engine], q: &str, tally: &mut Tally) {
    let fail = |config: &str, want: &dyn Debug, got: &dyn Debug| -> ! {
        panic!(
            "{}: {config} diverges on {q:?}\n  want: {want:?}\n  got:  {got:?}\n  document: {}",
            st.name, st.xml
        )
    };
    let query = minctx_syntax::parse_xpath(q).unwrap_or_else(|e| fail("parse", &"a query", &e));
    let mut want: Option<Value> = None;
    let mut naive = false;
    for e in engines {
        for (store, doc) in [("owned", &st.owned), ("mapped", &st.mapped)] {
            let config = format!("{} optimize={} {store}", e.strategy(), e.optimizer());
            let got = match e.evaluate(doc, &query) {
                Ok(v) => v,
                Err(EvalError::BudgetExhausted { .. }) if e.strategy() == Strategy::Naive => {
                    continue
                }
                Err(err) => fail(&config, &"an answer", &err),
            };
            naive |= e.strategy() == Strategy::Naive;
            match &want {
                Some(w) if !values_agree(w, &got) => fail(&config, w, &got),
                Some(_) => {}
                None => want = Some(got),
            }
        }
    }
    let want = want.unwrap_or_else(|| fail("every arena engine", &"an answer", &"none"));
    tally.cases += 1;
    tally.naive += usize::from(naive);
    tally.non_empty += usize::from(match &want {
        Value::NodeSet(ns) => !ns.is_empty(),
        Value::Number(n) => *n > 0.0,
        Value::Boolean(b) => *b,
        Value::String(s) => !s.is_empty(),
    });
    for optimize in [false, true] {
        let config = format!("streaming optimize={optimize}");
        let engine = Engine::new(Strategy::Streaming).with_optimizer(optimize);
        match engine.evaluate_reader_str(&query, &st.xml) {
            Ok(StreamOutcome::Streamed(got)) => {
                tally.streamed += 1;
                if !stream_agrees(&want, &got) {
                    fail(&config, &want, &got);
                }
            }
            Ok(StreamOutcome::Arena { value, .. }) if !values_agree(&want, &value) => {
                fail(&config, &want, &value)
            }
            Ok(StreamOutcome::Arena { .. }) => {}
            Err(err) => fail(&config, &want, &err),
        }
    }
}

/// Every one of `queries` on each of `documents`, raw naive unmetered
/// where it runs.
pub fn queries_on(documents: &[(String, Document)], queries: &[impl AsRef<str>]) -> Tally {
    let mut tally = Tally::default();
    for (name, doc) in documents {
        let st = Stores::new(name.clone(), doc);
        let engines = st.engines(None);
        for q in queries {
            check(&st, &engines, q.as_ref(), &mut tally);
        }
    }
    tally
}

/// On each `random_doc(seed, nodes, run)`, `per_doc` queries drawn by
/// `query` from an rng seeded by the document's seed;
/// [`random_query`](crate::random_query) draws the whole grammar.
pub fn generated(
    seeds: impl Iterator<Item = (u64, usize, usize)>,
    per_doc: usize,
    mut query: impl FnMut(&mut u64) -> String,
) -> Tally {
    let mut tally = Tally::default();
    for (seed, nodes, run) in seeds {
        let doc = random_doc(seed, nodes, run);
        let st = Stores::new(format!("random_doc({seed}, {nodes}, {run})"), &doc);
        let engines = st.engines(Some(NAIVE_FUEL));
        let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        for _ in 0..per_doc {
            check(&st, &engines, &query(&mut rng), &mut tally);
        }
    }
    tally
}
