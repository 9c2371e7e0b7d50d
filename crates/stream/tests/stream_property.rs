//! Randomized streaming soundness: the seeded `random_query`s that stream,
//! on seeded `random_doc`s, each streamed over the document's text with the
//! rewriter off and on and checked ordinal for ordinal against raw naive,
//! beside every arena configuration of `minctx_bench::lattice`.  Any
//! unsound corner of the stack automaton (frame propagation, or-self
//! matching, predicate guard chains, answer folding and ordering, ordinal
//! bookkeeping) shows up as a divergence on some seed.

use minctx_bench::{lattice, random_query};
use minctx_stream::classify;
use minctx_syntax::parse_xpath;

/// The next query of the grammar the streamer takes unrewritten: its
/// forward fragment.  The others fall back, which the lattice's other
/// suites already run.
fn streamable(rng: &mut u64) -> String {
    std::iter::repeat_with(|| random_query(rng))
        .find(|q| classify(&parse_xpath(q).expect("the grammar parses")).is_streamable())
        .expect("the grammar keeps drawing")
}

#[test]
fn random_forward_queries_stream_exactly() {
    let seeds = (1..=30).map(|s: u64| (s.wrapping_mul(0x9e37_79b9), 60 + s as usize % 40, 0));
    let tally = lattice::generated(seeds, 12, streamable);
    tally.floors(25, 0);
    // The streamer must be fed, not only its fallback: 300 queries or more
    // stream in both optimizer settings.
    assert!(tally.streamed >= 600, "{} streamed runs", tally.streamed);
    assert!(
        tally.naive * 10 >= tally.cases * 9,
        "naive answered {}",
        tally.naive
    );
}
