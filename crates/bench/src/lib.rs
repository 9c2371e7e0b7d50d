//! Test support shared by the workspace's suites: synthetic document
//! generators, the paper's query families, the cross-suite differential
//! corpus, the evaluation lattice ([`lattice`]), and a byte-counting
//! allocator for the allocation checks.
//!
//! Nothing here times anything: the repo's ruler is `benchmark/`, and the
//! paper's complexity bounds are counted in fuel by
//! `crates/core/tests/theorems.rs`.

use minctx_core::{Budget, Engine, Strategy, Value};
use minctx_xml::{Document, DocumentBuilder};

pub mod lattice;

/// A balanced tree of alternating `<even>`/`<odd>` elements, `fanout`
/// children per node down to `depth`, leaves carrying their pre-order
/// number as text.  `size ≈ fanout^depth` elements.
pub fn uniform_tree(depth: usize, fanout: usize) -> Document {
    fn rec(b: &mut DocumentBuilder, depth: usize, fanout: usize, counter: &mut usize) {
        let v = counter.to_string();
        *counter += 1;
        b.start_element(["even", "odd"][depth % 2], &[("v", &v)]);
        if depth == 0 {
            b.text(&v);
        } else {
            for _ in 0..fanout {
                rec(b, depth - 1, fanout, counter);
            }
        }
        b.end_element();
    }
    let mut b = DocumentBuilder::new();
    rec(&mut b, depth, fanout, &mut 0);
    b.finish().expect("generated tree is well-formed")
}

/// Configuration for the XMark-style synthetic document generator
/// ([`xmark_doc`]): an irregular auction-site-shaped tree with a small
/// label alphabet, attribute ids and leaf text, deterministic in `seed`.
#[derive(Debug, Clone)]
pub struct XmarkConfig {
    /// Number of *element* nodes to generate (total node count lands at
    /// roughly 2–2.5× this once attributes and text nodes are counted).
    pub elements: usize,
    /// Maximum children per element; actual fan-out is uniform in
    /// `0..=max_fanout`.
    pub max_fanout: usize,
    /// Size of the label alphabet (drawn from an XMark-ish name pool,
    /// synthesized as `tagN` beyond the pool).
    pub labels: usize,
    /// Percentage (0–100) of elements carrying a unique `id` attribute.
    pub id_density_pct: u8,
    /// Percentage (0–100) of leaf elements carrying a text child.
    pub text_density_pct: u8,
    /// RNG seed; equal configs generate identical documents.
    pub seed: u64,
}

impl XmarkConfig {
    /// A config with representative defaults at the given element count.
    pub fn sized(elements: usize) -> XmarkConfig {
        XmarkConfig {
            elements,
            max_fanout: 8,
            labels: 12,
            id_density_pct: 20,
            text_density_pct: 60,
            seed: 0x5eed_cafe,
        }
    }
}

/// XMark-flavoured label pool; index 0 (`item`) is the label the suites'
/// queries single out, so it always exists.
const XMARK_LABELS: &[&str] = &[
    "item",
    "person",
    "category",
    "open_auction",
    "closed_auction",
    "bid",
    "seller",
    "description",
    "parlist",
    "listitem",
    "keyword",
    "annotation",
    "quantity",
    "location",
    "interest",
    "watch",
];

/// The seeded RNG behind every deterministic generator in the workspace
/// (xorshift64*: good enough spread for workload shaping, zero deps).
/// Public so the randomized test suites share one definition.
#[inline]
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// [`Value`] equality where NaN equals NaN — the agreement relation of the
/// differential and rewrite-soundness suites (two evaluators that both
/// produce NaN agree, even though `NaN != NaN`).  Zero *signs* must match:
/// `-0.0 == 0.0` under IEEE `==`, but §4.4's `round()` rule makes the sign
/// observable (`1 div round(-0.2)`), so losing it is a real divergence.
pub fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            (x.is_nan() && y.is_nan()) || (x == y && x.is_sign_negative() == y.is_sign_negative())
        }
        _ => a == b,
    }
}

#[inline]
fn pct(state: &mut u64, p: u8) -> bool {
    xorshift(state) % 100 < p as u64
}

/// One of the `;`-separated alternatives in `list`.
fn pick<'a>(rng: &mut u64, list: &'a str) -> &'a str {
    let n = list.split(';').count() as u64;
    let i = (xorshift(rng) % n) as usize;
    list.split(';').nth(i).expect("in range").trim()
}

/// The element labels of [`random_doc`], which [`random_query`] names.
const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const TEXTS: &str = "v; x; 1; 2.5";

/// A seeded random document of about `nodes` nodes under an `<r>` root,
/// nested by a random walk: elements labeled `a` to `d`, attributes
/// `p` and `q` with small values, `id`s `k0`, `k1`, … wired into the id
/// index, text, comments and PIs.  A text node names an id now and then,
/// spaced off so that no token spans two text nodes: the set kernels
/// tokenize per text node, `id(.)` the whole string (DESIGN.md).  With
/// `run > 0` one element, placed at random, also holds `run` leaf children
/// in a row.  No two text nodes are adjacent, so `to_xml_string` and a
/// re-parse give back the same ordinals.
pub fn random_doc(seed: u64, nodes: usize, run: usize) -> Document {
    let mut rng = seed | 1;
    let mut b = DocumentBuilder::new();
    let (mut open, mut made, mut ids) = (1usize, 1usize, 0usize);
    let mut run_at = (run > 0).then(|| xorshift(&mut rng) as usize % nodes.max(1));
    let mut after_text = false;
    let element = |b: &mut DocumentBuilder, rng: &mut u64, ids: &mut usize| {
        let id = format!("k{ids}");
        let mut attrs = Vec::new();
        if pct(rng, 25) {
            attrs.push(("p", pick(rng, TEXTS)));
        }
        if pct(rng, 15) {
            attrs.push(("q", pick(rng, TEXTS)));
        }
        if pct(rng, 15) {
            attrs.push(("id", id.as_str()));
            *ids += 1;
        }
        b.start_element(LABELS[xorshift(rng) as usize % LABELS.len()], &attrs);
    };
    b.start_element("r", &[]);
    while made < nodes {
        let text = !after_text;
        after_text = false;
        match xorshift(&mut rng) % 12 {
            0..=3 if open > 1 => {
                b.end_element();
                open -= 1;
            }
            4 if text && ids > 0 => {
                b.text(&format!(" k{} ", xorshift(&mut rng) as usize % ids));
                (made, after_text) = (made + 1, true);
            }
            4 | 5 if text => {
                b.text(pick(&mut rng, TEXTS));
                (made, after_text) = (made + 1, true);
            }
            6 => {
                b.comment("c");
                made += 1;
            }
            7 => {
                b.processing_instruction("pi", "d");
                made += 1;
            }
            _ => {
                element(&mut b, &mut rng, &mut ids);
                (open, made) = (open + 1, made + 1);
                if run_at.is_some_and(|at| made > at) {
                    run_at = None;
                    for _ in 0..run {
                        element(&mut b, &mut rng, &mut ids);
                        if pct(&mut rng, 20) {
                            b.text(pick(&mut rng, TEXTS));
                        }
                        b.end_element();
                    }
                }
            }
        }
    }
    for _ in 0..open {
        b.end_element();
    }
    b.finish().expect("random doc is well-formed")
}

/// One step of [`random_query`]: every axis, a test the axis can match,
/// 0–2 predicates.  Spelled out and weighted up: `descendant-or-self::
/// node()` and the spec's expansions of `following` and `preceding`, the
/// chains the rewriter fuses, so the unfused chains run too.
fn random_step(rng: &mut u64, depth: usize) -> String {
    let mut step = match pick(
        rng,
        "child; child; child; child; child; dos; dos; dos; descendant; descendant; \
         descendant-or-self; self; parent; ancestor; ancestor-or-self; following-sibling; \
         preceding-sibling; following; preceding; attribute; chain; chain",
    ) {
        "dos" => "descendant-or-self::node()".to_string(),
        "attribute" => format!("@{}", pick(rng, "p; q; id; *; node()")),
        axis => {
            let chain = "following::node(); preceding::node(); \
                         ancestor-or-self::node()/following-sibling::node(); \
                         ancestor-or-self::node()/preceding-sibling::node()";
            let axis = match axis {
                "chain" => format!("{}/descendant-or-self", pick(rng, chain)),
                axis => axis.to_string(),
            };
            let tests = "a; b; c; d; a; b; c; d; *; *; *; node(); node(); text(); comment(); \
                         processing-instruction()";
            format!("{axis}::{}", pick(rng, tests))
        }
    };
    for _ in 0..[0, 0, 0, 0, 1, 1, 1, 2][xorshift(rng) as usize % 8] {
        step = format!("{step}[{}]", random_pred(rng, depth));
    }
    step
}

/// One to three [`random_step`]s, each after `/` or `//`.
fn random_path(rng: &mut u64, depth: usize) -> String {
    let mut path = random_step(rng, depth);
    for _ in 0..xorshift(rng) % 3 {
        let sep = if xorshift(rng).is_multiple_of(3) {
            "//"
        } else {
            "/"
        };
        path.push_str(sep);
        path.push_str(&random_step(rng, depth));
    }
    path
}

/// A predicate: positional (through arithmetic, ±∞ and NaN, beside a
/// count), constant (a folding target), or a boolean tree
/// over existence and comparison atoms, nested steps included.
fn random_pred(rng: &mut u64, depth: usize) -> String {
    let k = 1 + xorshift(rng) % 3;
    let t = LABELS[xorshift(rng) as usize % LABELS.len()];
    match xorshift(rng) % 10 {
        0 if xorshift(rng).is_multiple_of(3) => format!("position() = count({t}[1]) + {k}"),
        0 => k.to_string(),
        1 => pick(
            rng,
            "last(); position() != last(); position() mod 2 = 1; last() - position() < 2; \
             position() = last() div 2; position() div 0 = last() div 0; \
             (last() - position()) div 0 > 0; position() = count(@*); position() = '2'",
        )
        .to_string(),
        2 => pick(
            rng,
            "true(); 1 = 1; 3 > 2 + 0; count(/r) = 1; string-length('ab') = 2; false()",
        )
        .to_string(),
        3 if depth > 0 => format!("not({})", random_pred(rng, depth - 1)),
        4 if depth > 0 => {
            let op = pick(rng, "and; or");
            let (l, r) = (random_pred(rng, depth - 1), random_pred(rng, depth - 1));
            format!("({l} {op} {r})")
        }
        5 if depth > 0 => random_path(rng, depth - 1),
        _ => random_atom(rng).to_string(),
    }
}

/// A position-free predicate atom: an existence test or a comparison,
/// over paths whose steps may carry predicates of their own.
fn random_atom(rng: &mut u64) -> &'static str {
    pick(
        rng,
        "b; @p; a/b; . = 'v'; @q = 'v'; @p != 1; text() > 1; count(*) > 1; count(b) > 1; \
         not(d); ancestor::a; following-sibling::*; preceding-sibling::b; .//c; c[d]; \
         //d/@q; b/descendant-or-self::node(); a/parent::node(); \
         following-sibling::b = 'v'; descendant-or-self::a; id(.); \
         ancestor::*[b]; b[c] = 'v'; following-sibling::*[@p]; .//c[not(d)]; \
         preceding-sibling::b[c] != 1; a[@q]/b",
    )
}

/// A seeded random query: a random path after `/`, `//`, an `id()` call
/// or nothing (a relative path from the root), then perhaps a wrapper:
/// `count`, `boolean`, `string`, a union with itself or another path, or a
/// `(…)[p]` filter.
pub fn random_query(rng: &mut u64) -> String {
    let start = pick(rng, "/; /; /; //; //; //; ; id('k0 k2')/");
    let q = format!("{start}{}", random_path(rng, 2));
    match xorshift(rng) % 10 {
        0 => format!("count({q})"),
        1 => format!("boolean({q})"),
        2 => format!("string({q})"),
        3 => format!("{q} | {q}"),
        4 => format!("{q} | //{}", random_step(rng, 1)),
        5 => format!("({q})[{}]", random_pred(rng, 2)),
        _ => q,
    }
}

/// A boolean tree `depth` deep over [`random_atom`]s, two levels in three
/// a `not`, `and` or `or`.
fn random_tree(rng: &mut u64, depth: usize) -> String {
    if depth == 0 || xorshift(rng).is_multiple_of(3) {
        return random_atom(rng).to_string();
    }
    let a = random_tree(rng, depth - 1);
    match pick(rng, "not; and; or") {
        "not" => format!("not({a})"),
        op => format!("({a} {op} {})", random_tree(rng, depth - 1)),
    }
}

/// A seeded query holding a three-deep boolean tree — the shapes
/// MINCONTEXT filters set-at-a-time — on a step whose candidates are
/// reached from many, often overlapping, origins: alone, beside a
/// positional predicate on either side, nested inside another predicate,
/// on a `(…)[p]` filter start, or counted.
pub fn random_tree_query(rng: &mut u64) -> String {
    let step = pick(
        rng,
        "//*; //a; //*/b; //b/ancestor::*; //c/following::*; //a/descendant-or-self::node(); \
         //@*; //*/preceding-sibling::*",
    );
    let p = random_tree(rng, 3);
    match xorshift(rng) % 6 {
        0 => format!("{step}[{p}][2]"),
        1 => format!("{step}[last()][{p}]"),
        2 => format!("//*[{}[{p}]]", step.trim_start_matches("//")),
        3 => format!("({step})[{p}]"),
        4 => format!("count({step}[{p}])"),
        _ => format!("{step}[{p}]"),
    }
}

/// Every arena strategy with the rewrite pipeline off and on, raw naive
/// first: the eight engines the differential suites compare.  Naive alone
/// is metered by `naive_fuel`, so a query it would take exponential time
/// on ends in `BudgetExhausted` rather than a hang.
pub fn engines(naive_fuel: Option<u64>) -> Vec<Engine> {
    let engine = |s: Strategy, optimize: bool| {
        let e = Engine::new(s).with_optimizer(optimize);
        match naive_fuel {
            Some(fuel) if s == Strategy::Naive => e.with_budget(Budget::fuel(fuel)),
            _ => e,
        }
    };
    Strategy::ALL
        .iter()
        .flat_map(|&s| [engine(s, false), engine(s, true)])
        .collect()
}

/// Generates an XMark-style document (see [`XmarkConfig`]).  Shape is an
/// irregular tree: depth-capped, fan-out uniform in `0..=max_fanout`,
/// every element labeled from the alphabet, ids and text sprinkled at the
/// configured densities.  Deterministic: a config generates one document.
pub fn xmark_doc(cfg: &XmarkConfig) -> Document {
    assert!(cfg.labels > 0, "label alphabet must be non-empty");
    const MAX_DEPTH: usize = 14;
    fn label(i: usize) -> String {
        match XMARK_LABELS.get(i) {
            Some(s) => (*s).to_string(),
            None => format!("tag{i}"),
        }
    }
    fn subtree(
        b: &mut DocumentBuilder,
        cfg: &XmarkConfig,
        rng: &mut u64,
        remaining: &mut usize,
        depth: usize,
        next_id: &mut usize,
    ) {
        if *remaining == 0 {
            return;
        }
        *remaining -= 1;
        let lbl = label(xorshift(rng) as usize % cfg.labels);
        let id_value;
        let mut attrs: Vec<(&str, &str)> = Vec::new();
        if pct(rng, cfg.id_density_pct) {
            id_value = format!("id{}", *next_id);
            *next_id += 1;
            attrs.push(("id", &id_value));
        }
        let v_value = (xorshift(rng) % 1_000).to_string();
        attrs.push(("v", &v_value));
        b.start_element(&lbl, &attrs);
        let kids = if depth >= MAX_DEPTH {
            0
        } else {
            xorshift(rng) as usize % (cfg.max_fanout + 1)
        };
        if kids == 0 {
            if pct(rng, cfg.text_density_pct) {
                b.text(&v_value);
            }
        } else {
            for _ in 0..kids {
                subtree(b, cfg, rng, remaining, depth + 1, next_id);
            }
        }
        b.end_element();
    }
    let mut b = DocumentBuilder::with_capacity(cfg.elements * 2);
    let mut rng = cfg.seed | 1;
    let mut next_id = 0usize;
    b.start_element("site", &[]);
    let mut remaining = cfg.elements.saturating_sub(1);
    while remaining > 0 {
        subtree(&mut b, cfg, &mut rng, &mut remaining, 1, &mut next_id);
    }
    b.end_element();
    b.finish().expect("generated xmark document is well-formed")
}

/// The paper's Section-1 exponential query family: `//b` followed by `i`
/// copies of `/parent::a/child::b`.
pub fn exponential_family(i: usize) -> String {
    let mut q = String::from("//b");
    for _ in 0..i {
        q.push_str("/parent::a/child::b");
    }
    q
}

/// The two-`<b/>` document the exponential family runs on.
pub fn exponential_doc() -> Document {
    minctx_xml::parse("<a><b/><b/></a>").expect("static doc")
}

/// Core XPath queries (no positional functions) — the Theorem 7 fragment.
/// Each selects something on every `uniform_tree` the theorem suite
/// (`crates/core/tests/theorems.rs`) measures it on, as do the next two
/// families.
pub const CORE_XPATH_QUERIES: &[&str] = &[
    "//odd",
    "/descendant::even/child::odd",
    "//even[odd/even]",
    "//odd[not(following-sibling::odd)]",
    "//even[descendant::odd and ancestor::even]",
    "count(//even | //odd)",
];

/// Extended Wadler fragment queries (position()/last() in predicates) —
/// the Theorem 10 fragment.
pub const WADLER_QUERIES: &[&str] = &[
    "//odd[position() = last()]",
    "//even/odd[position() = 2]",
    "//odd[position() > last() * 0.5]",
    "//even[last()]",
];

/// Full-XPath showcase queries, including the paper's running example E
/// and a context-independent predicate (`Relev = ∅`), which MINCONTEXT
/// computes once rather than once per candidate.
pub const FULL_XPATH_QUERIES: &[&str] = &[
    "/descendant::*[position() > last()*0.5 or self::* = 100]",
    "//even[count(odd) > 1]/odd[position() != last()]",
    "sum(//@v) > 100",
    "//odd[count(//even) > 1]",
];

/// The member of `k` terms of each query family, by family — the queries
/// whose cost in `|Q|` the theorem suite counts in fuel and the space
/// suite (`crates/bench/tests/space_bounds.rs`) in heap.  The terms of a
/// member are distinct: interning shares a repeated subterm.
pub fn query_families(k: usize) -> [(&'static str, String); 5] {
    let joined =
        |sep: &str, term: &dyn Fn(usize) -> String| (0..k).map(term).collect::<Vec<_>>().join(sep);
    let axis = |i: usize| ["following-sibling", "preceding-sibling"][i % 2];
    let nested = joined("[", &|i| format!("{}::*", axis(i))) + &"]".repeat(k - 1);
    [
        ("nested sibling predicates", format!("//*[{nested}]")),
        (
            "and chain",
            format!("//*[{}]", joined(" and ", &|i| format!("@v != '{i}'"))),
        ),
        (
            "predicate list",
            "/descendant::*".to_string() + &joined("", &|i| format!("[position() != {}]", i + 1)),
        ),
        ("union", joined(" | ", &|i| format!("//*[@v = '{i}']"))),
        (
            "or chain",
            format!(
                "//*[{}]",
                joined(" or ", &|i| format!("count(descendant::odd) > {i}"))
            ),
        ),
    ]
}

/// The cross-suite differential corpus: documents and queries shared by
/// the arena differential oracle (`crates/core/tests/differential.rs`)
/// and the streaming differential suite
/// (`crates/stream/tests/differential.rs`), so every query construct is
/// exercised by both.
pub mod corpus {
    use super::uniform_tree;
    use minctx_xml::{parse, Document};

    /// Corpus documents: hand-written shapes plus generated trees.
    pub fn documents() -> Vec<(String, Document)> {
        let mut docs = vec![
            (
                "books".to_string(),
                parse(concat!(
                    r#"<library xml:lang="en">"#,
                    r#"<book id="b1" year="1994"><title>TCP/IP</title><price>65.95</price></book>"#,
                    r#"<book id="b2" year="2000"><title>Data on the Web</title><price>39.95</price></book>"#,
                    r#"<book id="b3" year="2000" ref="b1"><title>XML</title><price>100</price></book>"#,
                    r#"<!-- catalogue -->"#,
                    r#"<?render fast?>"#,
                    r#"<magazine id="m1"><title>XML</title><price>8</price></magazine>"#,
                    r#"</library>"#,
                ))
                .unwrap(),
            ),
            (
                "numbers".to_string(),
                parse(
                    "<t><n>1</n><n>2</n><n>3</n><n>100</n><m>2.5</m><m>-4</m>\
                     <mixed>7seven</mixed><empty/></t>",
                )
                .unwrap(),
            ),
            (
                "idchain".to_string(),
                parse(
                    r#"<g id="g"><p id="p1">p2 p3</p><p id="p2">p3</p><p id="p3">done</p></g>"#,
                )
                .unwrap(),
            ),
        ];
        // A generated three-level tree (40 elements) — the same generator
        // the theorem suite doubles, so the oracle covers its shape.
        docs.push(("tree-3-3".to_string(), uniform_tree(3, 3)));
        docs
    }

    /// The query corpus: ≥40 queries spanning axes, predicates, positional
    /// functions, arithmetic, unions, strings, and `id()`.
    pub const QUERIES: &[&str] = &[
        // Plain paths and axes.
        "/",
        "/*",
        "/child::*/child::*",
        "//title",
        "//*",
        "/descendant-or-self::node()",
        "//price/text()",
        "//comment()",
        "//processing-instruction()",
        "//book/attribute::year",
        "//@id",
        "//book/..",
        "//title/parent::*/child::price",
        "//price/ancestor::*",
        "//book[1]/following-sibling::*",
        "//magazine/preceding-sibling::*",
        "//book[2]/following::node()",
        "//magazine/preceding::price",
        "//odd/even",
        "//even[odd]",
        // following/preceding spec-expansion chains: the rewriter fuses
        // these onto single sliced-postings steps (PR 4); the raw runs
        // keep the unfused evaluation honest.
        "//book[1]/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::price",
        "//magazine/ancestor-or-self::node()/preceding-sibling::node()/descendant-or-self::title",
        "/library/book/following::node()/descendant-or-self::price",
        "//price/preceding::node()/descendant-or-self::text()",
        "//book[2]/following::price",
        "//magazine/preceding::title",
        "//@id/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::title",
        // Predicates, position(), last().
        "//book[1]",
        "//book[last()]",
        "//book[position() = 2]",
        "//book[position() != last()]",
        "//*[position() = 2]",
        "//book[price > 40]",
        "//book[title = 'XML']",
        "//book[@year = 2000][2]",
        "//book[@year = 2000 and price > 50]",
        "//book[not(@ref)]",
        "//book[@year = 2000]",
        "//book[@id = 'b2' or @ref = 'b1']",
        "//*[count(*) > 1]",
        "//*[position() > last() * 0.5]",
        "/descendant::*[position() > last()*0.5 or self::* = 100]",
        "//even[position() mod 2 = 1]",
        "//n[. > 1][position() < 3]",
        // Positional predicates over reverse axes count in reverse document
        // order — a classic divergence spot between evaluators.
        "//magazine/preceding-sibling::*[1]",
        "//price/ancestor::*[2]",
        "//magazine/preceding::node()[3]",
        "//book[last() - 1]",
        // Filters on primaries.
        "(//book)[2]",
        "(//title | //price)[last()]",
        "id('b1 b3')[2]",
        // Unions.
        "//title | //price",
        "//book | //magazine | //book",
        "//n | //m",
        // id().
        "id('b2')",
        "id('p1')",
        "id(//book[3]/@ref)",
        "//p[id(.)]",
        // Scalars: numbers, strings, booleans.
        "count(//book)",
        "count(//book[price < 50]) + count(//magazine)",
        // count(π) RelOp c existence shapes: rewritten to boolean(π) /
        // not(π) by the optimizer (PR 5), so the raw runs keep the
        // counting evaluation honest and the rewritten runs exercise the
        // backward-propagatable boolean(π) form.
        "count(//book) > 0",
        "count(//nosuch) != 0",
        "count(//book[price > 40]) >= 1",
        "count(//nosuch) = 0",
        "count(//book) < 1",
        "count(//magazine) <= 0",
        "0 < count(//price)",
        "1 > count(//nosuch)",
        "0 = count(//comment())",
        "//*[count(*) > 0]",
        "//book[count(nosuch) = 0]",
        "//*[count(../*) >= 1]",
        // Near-miss thresholds that must keep counting.
        "count(//book) > 1",
        "count(//book) >= 2",
        "count(//nosuch) <= 1",
        "sum(//n)",
        "sum(//m) * 2",
        "1 div 0",
        "-3 mod 2",
        "string(//book[1]/title)",
        "concat(name(//book[1]), '-', //book[1]/@id)",
        "normalize-space(string(//mixed))",
        "substring(string(//title[1]), 2, 3)",
        "string-length(string(//book[2]/title))",
        "translate(string(//title[3]), 'XML', 'xml')",
        "starts-with(string(//book[1]/@id), 'b')",
        "contains(string(/), 'Web')",
        "boolean(//book)",
        "boolean(//nosuch)",
        "not(//magazine)",
        "//book = //magazine",
        "//n < //m",
        // Node-set vs boolean converts the whole set (§3.4), so an *empty*
        // set equals false() — not the existential member rule.
        "//nosuch = false()",
        "count(//book[nosuch = false()])",
        "//book != true()",
        "//nosuch < true()",
        // Attribute nodes as predicate targets and as context nodes: these
        // pinned down real divergences (backward propagation leaking
        // attributes through node() tests; attribute origins of reverse and
        // or-self axes; descendant-or-self of an attribute context).
        "//*[node() = 'XML']",
        "//*[node()]",
        "//book/@year/descendant-or-self::node()",
        "//@id/ancestor-or-self::node()",
        "//@*[following::magazine]",
        "//@*[ancestor::library]",
        "//@id[self::node() = 'b2']",
        "number(//empty)",
        "floor(sum(//m)) + ceiling(1.2) + round(2.5)",
        "string(number('x'))",
        "lang('en')",
        "local-name(//*[last()])",
        // ---- Function-library edge cases: NaN, signed zero, infinities ----
        // (most of these also constant-fold, so the rewritten run checks the
        // folder against all four live evaluators).
        "0 div 0",
        "-0.5 mod 2",
        "0 mod 0",
        "1 div -0",
        "string(1 div -0)",
        "-1 div 0",
        "0 * (1 div 0)",
        "(1 div 0) + (-1 div 0)",
        "1 div (1 div 0)",
        "(0 div 0) = (0 div 0)",
        "(0 div 0) != (0 div 0)",
        "(0 div 0) < 1",
        "0 = -0",
        "string(-0)",
        "boolean(-0)",
        "boolean(0 div 0)",
        "not(0 div 0)",
        // round/floor/ceiling at the §4.4 signed-zero edges.
        "1 div round(-0.2)",
        "string(round(-0.2))",
        "round(-0.5)",
        "1 div round(-0.5)",
        "round(0.5)",
        "string(round(0 div 0))",
        "round(1 div 0)",
        "round(-1 div 0)",
        "1 div ceiling(-0.3)",
        "floor(-0.5)",
        "//n[. > round(-0.2)]",
        // substring with NaN / infinite start and length (§4.2).
        "substring('12345', 1 div 0)",
        "substring('12345', -1 div 0)",
        "substring('12345', -1 div 0, 1 div 0)",
        "substring('12345', 2, 1 div 0)",
        "substring('12345', 0 div 0, 3)",
        "substring('12345', 2, 0 div 0)",
        "substring('12345', -42, 1 div 0)",
        "substring(string(//title[1]), 1 div 0)",
        // substring-before/-after with empty patterns and subjects.
        "substring-before('abc', '')",
        "substring-after('abc', '')",
        "substring-before('', 'x')",
        "substring-after('', '')",
        "substring-before(string(//mixed), '')",
        // Empty-node-set inputs to the node-set functions.
        "name(//nosuch)",
        "local-name(//nosuch)",
        "namespace-uri(//nosuch)",
        "sum(//nosuch)",
        "string(sum(//nosuch) div count(//nosuch))",
        "number(//nosuch)",
        "string(//nosuch)",
        "string-length(string(//nosuch))",
        "count(//book[sum(nosuch) = 0])",
        // String→number strictness interacting with comparisons.
        "'' = 0",
        "number('') = number('')",
        "//mixed != //mixed",
        // ---- Set-at-a-time predicates ----
        // or / nested not / and chains, context-free operands included.
        "//book[@ref or price > 60]",
        "//book[not(@ref or price > 60)]",
        "//book[not(not(@ref))]",
        "//book[@year = 2000 and not(@ref) and price < 50]",
        "//book[(@ref or @year = 1994) and not(price > 90 and @ref)]",
        "//*[not(*) and not(@id)]",
        "//*[odd or not(even)]",
        "//*[@id and (title = 'XML' or price > 60)][not(@ref)]",
        "//book[//magazine and @ref]",
        "//book[not(//nosuch) or @ref]",
        "//n[. > 1 and (. < 3 or . = 100)]",
        // Candidates reached from overlapping origins, as the step's own
        // predicate and nested inside another predicate.
        "//title/ancestor::*[@id]",
        "//price/ancestor-or-self::*[not(@year)]",
        "//book/following::*[title]",
        "//odd/ancestor::*[odd]",
        "//keyword/ancestor::*[@id]",
        "//bid/following::item[keyword]",
        "//book[following-sibling::*[price < 50]]",
        "//odd[ancestor::*[count(odd) > 1]]",
        "//title[ancestor::*[@id or count(*) > 3]]",
        // Name-tested sibling steps from many origins (one merge against
        // the name's postings), and sibling predicates answered from their
        // witnesses: plain, under `not`, compared with a constant.
        "//title/following-sibling::price",
        "//price/preceding-sibling::title",
        "//book/following-sibling::magazine",
        "//magazine/preceding-sibling::book",
        "//n/following-sibling::m",
        "//m/preceding-sibling::n",
        "//odd/following-sibling::even",
        "//even/preceding-sibling::odd",
        "//@*/following-sibling::book",
        "/descendant-or-self::node()/preceding-sibling::odd",
        "//book[following-sibling::book]",
        "//book[preceding-sibling::magazine]",
        "//*[following-sibling::title]",
        "//@*[following-sibling::book]",
        "//n[not(following-sibling::n)]",
        "//odd[not(preceding-sibling::odd)]",
        "//book[not(following-sibling::magazine)][1]",
        "//n[following-sibling::n = 3]",
        "//n[preceding-sibling::n < 2]",
        "//m[preceding-sibling::n != 100]",
        "//even[following-sibling::even > 0]",
        "//book[following-sibling::book = 'XML100']",
        "count(//odd[following-sibling::odd])",
        // Attribute nodes as the filtered candidates.
        "//@*[. > 500]",
        "//@*[. = 2000]",
        "//@*[. = 'b1' or not(. > 0)]",
        "//book/@*[not(. = 2000)][2]",
        // Position-free then positional, and positional then position-free.
        "//book[@year = 2000][1]",
        "//book[price][not(@ref)][last()]",
        "//book[2][@year = 2000]",
        "//book[position() > 1][@ref]",
        "//odd[even][position() = last()]",
        "//*[odd][2][even]",
        "//price/ancestor::*[@id][1]",
        "//title/preceding::*[price > 10][2]",
        // (…)[p] filter starts.
        "(//book)[@ref]",
        "(//book | //magazine)[price < 50]",
        "(//book)[@year = 2000][2]",
        "(//book)[2][@year = 2000]",
        "(//title | //price)[not(. = 'XML')][last()]",
        "(//odd)[even or not(odd)]/even",
        // ---- Positions without origins ----
        // Positional `child` / `attribute` steps rank candidates among
        // their siblings; behind `//` the `descendant-or-self::node()` is
        // never built.  Same-name nesting (`odd` under `odd`'s parent's
        // parent), several origins, attribute-containing context sets,
        // re-ranking after a positional predicate, ranked steps nested in
        // a ranked step's own predicate.
        "//even[2]",
        "//odd[last()]",
        "//odd[position() mod 2 = 1]",
        "*/book[@year][2]",
        "//odd[2][1]",
        "//book[last()][@id]",
        "//even[last()][odd][1]",
        "//@*[2]",
        "//@*[last()]",
        "//book/@*[position() > 1]",
        "//odd//even[2]",
        "//odd//even[last()]/@v",
        "(//@id | //book)//title[1]",
        "//book/@id/..//price[last()]",
        "//@id//title[1]",
        "//@*//node()[last()]",
        "//node()[3]",
        "//text()[last()]",
        "//*[1]/*[last()]",
        "//odd[position() = count(even[1]) + 1]",
        "//even[odd[2]/even[last()]][2]",
        "//book[position() = last() - 1]/title[1]",
        // Filter starts number the whole set: must be unaffected.
        "(//even)[3]",
        "(//odd)[last()]/even[1]",
        // ---- Columnar predicates ----
        // Grouped counts over child / attribute runs and name-ranked
        // subtrees (same-name nesting included), candidate-side
        // comparisons, and a wildcard step started from its predicate's
        // whole satisfying set.
        "//even[count(odd) > 2]",
        "//*[count(.//odd) > count(.//even)]",
        "//*[count(@*) = 1]",
        "//*[count(descendant-or-self::odd) = 1]",
        "//book[@year > 1999]",
        "//book[price != 39.95]",
        "count(//*[@id])",
        "//*[count(*) - count(@*) > 0]",
        // ---- Reverse steps from the postings ----
        // Name-tested reverse steps from many origins (the first origin's
        // chain and one merge of the name's postings against the origins,
        // or the postings before the last origin less its ancestors), and
        // descendant predicates answered from their witnesses: plain,
        // under `not`, compared with a constant, and nested in a predicate
        // evaluated node by node.
        "//title/ancestor::book",
        "//price/ancestor-or-self::book",
        "//@id/ancestor::library",
        "//text()/ancestor-or-self::title",
        "//even/ancestor::odd",
        "//odd/ancestor-or-self::odd",
        "//price/preceding::book",
        "//@year/preceding::title",
        "//even/preceding::odd",
        "//node()/preceding::even",
        "//book[.//price]",
        "//*[.//title]",
        "//odd[.//even]",
        "//@*[.//title]",
        "//*[not(.//title)]",
        "//even[not(descendant::odd)]",
        "//book[.//title = 'XML']",
        "//odd[.//even > 10]",
        "//odd[descendant-or-self::odd]",
        "//n[descendant-or-self::n = 3]",
        "//library[book[.//price] or @x]",
        "//odd[even[.//odd] or @x]",
        "count(//even[.//odd])",
    ];
}

/// A byte-counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper over
/// the system allocator, for the allocation checks in `tests/*_alloc.rs`:
/// tracks total bytes ever allocated, the
/// peak live working set and the number of allocations.  Install it in a
/// binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator::new();`
/// and keep one check per binary, so nothing else allocates while it
/// counts.
pub struct CountingAllocator {
    live: std::sync::atomic::AtomicUsize,
    peak: std::sync::atomic::AtomicUsize,
    total: std::sync::atomic::AtomicUsize,
    count: std::sync::atomic::AtomicUsize,
}

impl CountingAllocator {
    /// A fresh counter (all gauges zero).
    pub const fn new() -> CountingAllocator {
        use std::sync::atomic::AtomicUsize;
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }

    /// Currently live heap bytes.
    pub fn live(&self) -> usize {
        self.live.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// High-water mark of live bytes since the last [`reset_peak`].
    ///
    /// [`reset_peak`]: CountingAllocator::reset_peak
    pub fn peak(&self) -> usize {
        self.peak.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total bytes ever allocated (monotone).
    pub fn total(&self) -> usize {
        self.total.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Allocations ever made, a `realloc` counting as one (monotone).
    pub fn count(&self) -> usize {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Restarts the peak gauge from the current live size (call before
    /// the measured region).
    pub fn reset_peak(&self) {
        use std::sync::atomic::Ordering;
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn record_alloc(&self, size: usize) {
        use std::sync::atomic::Ordering;
        self.total.fetch_add(size, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(&self, size: usize) {
        self.live
            .fetch_sub(size, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

#[allow(unsafe_code, reason = "a global allocator is an `unsafe impl`")]
// SAFETY: delegates allocation to `System` unchanged; only counters are
// maintained around it.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        // SAFETY: `layout` is passed through unchanged to the system
        // allocator under the caller's `GlobalAlloc` contract.
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            self.record_alloc(layout.size());
        }
        p
    }

    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr`/`layout` came from a matching `alloc` on the
        // same underlying `System` allocator (caller's contract).
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        self.record_dealloc(layout.size());
    }

    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        // SAFETY: arguments forwarded unchanged under the caller's
        // `GlobalAlloc` contract.
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.record_dealloc(layout.size());
            self.record_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_expected_shapes() {
        let d = uniform_tree(2, 3);
        // 1 + 3 + 9 = 13 elements.
        assert_eq!(d.element_count(), 13);
        assert_eq!(
            exponential_family(2),
            "//b/parent::a/child::b/parent::a/child::b"
        );
        // The run is there, and the text round trip keeps every ordinal.
        let d = random_doc(7, 40, 240);
        assert!(d.all_nodes().any(|n| d.children(n).count() >= 240));
        let xml = minctx_xml::serialize::to_xml_string(&d);
        assert_eq!(
            minctx_xml::parse(&xml).unwrap().debug_tree(),
            d.debug_tree()
        );
    }

    #[test]
    fn xmark_generator_is_deterministic_and_sized() {
        let cfg = XmarkConfig::sized(2_000);
        let a = xmark_doc(&cfg);
        let b = xmark_doc(&cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.element_count(), 2_000);
        assert_eq!(a.debug_tree(), b.debug_tree());
        // Ids are indexed and dense enough to be useful.
        assert!(a.element_by_id("id0").is_some());
        // A different seed generates a different document.
        let c = xmark_doc(&XmarkConfig {
            seed: 1,
            ..cfg.clone()
        });
        assert_ne!(a.debug_tree(), c.debug_tree());
    }

    #[test]
    fn bench_queries_run_under_every_strategy() {
        // Guard the query families against rot: they must all evaluate.
        let doc = uniform_tree(2, 2);
        for q in CORE_XPATH_QUERIES
            .iter()
            .chain(WADLER_QUERIES)
            .chain(FULL_XPATH_QUERIES)
        {
            for s in Strategy::ALL {
                Engine::new(s)
                    .evaluate_str(&doc, q)
                    .unwrap_or_else(|e| panic!("{s} failed on {q:?}: {e}"));
            }
        }
    }
}
