//! The rewriter's fixpoint on the differential corpus, pinned as text.
//!
//! `golden/rewrite_corpus.txt` was generated by this test at the commit
//! *before* the fixpoint loop was replaced by one traversal (PR 17): per
//! corpus query, the rewritten IR as EXPLAIN renders it (`ir.after`) and
//! every rule's firing count.  A rewriter change that moves either shows
//! up here as a line diff; an intended move is listed with its reason in
//! CHANGES.md, never silently re-pinned.
//!
//! To regenerate: run the test, then copy the file it names over the
//! golden one.

use minctx_bench::corpus::QUERIES;
use minctx_core::{Engine, QueryProfile, Rule, Strategy};

const GOLDEN: &str = include_str!("golden/rewrite_corpus.txt");

/// Each corpus query with its EXPLAIN profile, rewriter on.
fn explained() -> impl Iterator<Item = (&'static str, QueryProfile)> {
    let doc = minctx_xml::parse("<a/>").unwrap();
    let engine = Engine::new(Strategy::OptMinContext).with_optimizer(true);
    QUERIES.iter().map(move |&q| {
        let p = engine
            .explain(&doc, q)
            .unwrap_or_else(|e| panic!("{q:?}: {e}"));
        (q, p)
    })
}

#[test]
fn the_corpus_rewrites_to_the_pinned_fixpoints_with_the_pinned_rule_counts() {
    let mut actual = String::new();
    for (q, p) in explained() {
        let fired: Vec<String> = p
            .fired_rules
            .iter()
            .map(|&(rule, n)| format!("{rule}:{n}"))
            .collect();
        actual.push_str(&format!(
            "query    {q}\nir.after {}\nfired    {}\n\n",
            p.ir_after,
            if fired.is_empty() {
                "-".to_string()
            } else {
                fired.join(",")
            }
        ));
    }
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rewrite_corpus.actual");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let differing = actual
            .split("\n\n")
            .zip(GOLDEN.split("\n\n"))
            .find(|(a, g)| a != g);
        panic!(
            "rewritten corpus differs from tests/golden/rewrite_corpus.txt; actual rendering \
             written to {}\nfirst difference (actual, golden): {differing:#?}",
            path.display()
        );
    }
}

/// A rule earns its place by firing on some corpus query; one that never
/// fires is code no workload reaches.
#[test]
fn every_rule_fires_on_the_corpus() {
    let mut counts = [0u32; Rule::ALL.len()];
    for (_, p) in explained() {
        for (rule, n) in p.fired_rules {
            counts[rule as usize] += n;
        }
    }
    let idle: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|&r| counts[r as usize] == 0)
        .collect();
    assert!(
        idle.is_empty(),
        "rules that fire on no corpus query: {idle:?}"
    );
}
