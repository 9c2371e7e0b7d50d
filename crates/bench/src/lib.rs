//! Shared machinery for the benchmark harnesses: synthetic document
//! generators, the paper's query families, and a dependency-free timing
//! loop (the workspace is `std`-only by design, so no criterion).
//!
//! The benches are wired as `harness = false` cargo benches; run them with
//! `cargo bench -p minctx-bench` or individually, e.g.
//! `cargo bench -p minctx-bench --bench exp_query_size`.  The
//! `tables` binary (`cargo run --release -p minctx-bench --bin tables`)
//! prints the paper-style strategy × document-size timing tables.

use minctx_core::{Engine, Strategy, Value};
use minctx_xml::{Document, DocumentBuilder};
use std::time::{Duration, Instant};

/// A balanced tree of alternating `<even>`/`<odd>` elements, `fanout`
/// children per node down to `depth`, leaves carrying their pre-order
/// number as text.  `size ≈ fanout^depth` elements.
pub fn uniform_tree(depth: usize, fanout: usize) -> Document {
    fn rec(b: &mut DocumentBuilder, depth: usize, fanout: usize, counter: &mut usize) {
        let v = counter.to_string();
        *counter += 1;
        b.start_element(if depth % 2 == 0 { "even" } else { "odd" }, &[("v", &v)]);
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

/// A flat document `<r><e>0</e><e>1</e>…</r>` with `n` children — the
/// shape the paper's Figure 2 measurements use.
pub fn wide_doc(n: usize) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("r", &[]);
    for i in 0..n {
        b.leaf("e", &[("v", &i.to_string())], &i.to_string());
    }
    b.end_element();
    b.finish().expect("generated doc is well-formed")
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

/// XMark-flavoured label pool; index 0 (`item`) is the label the axis-step
/// benchmarks single out, so it always exists.
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

/// Full-XPath showcase queries, including the paper's running example E.
pub const FULL_XPATH_QUERIES: &[&str] = &[
    "/descendant::*[position() > last()*0.5 or self::* = 100]",
    "//even[count(odd) > 1]/odd[position() != last()]",
    "sum(//@v) > 100",
];

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
        // the benches use, so the oracle covers the benchmarked shape.
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
    ];
}

/// A byte-counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper over
/// the system allocator, for the streaming allocation-ceiling smoke and
/// the `stream/*` bench rows: tracks total bytes ever allocated and the
/// peak live working set.  Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator::new();`.
pub struct CountingAllocator {
    live: std::sync::atomic::AtomicUsize,
    peak: std::sync::atomic::AtomicUsize,
    total: std::sync::atomic::AtomicUsize,
}

impl CountingAllocator {
    /// A fresh counter (all gauges zero).
    pub const fn new() -> CountingAllocator {
        use std::sync::atomic::AtomicUsize;
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
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

/// Median-of-`runs` wall-clock time of `f`.
pub fn time<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(runs > 0);
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let r = f();
            let elapsed = start.elapsed();
            std::hint::black_box(r);
            elapsed
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Times one strategy on one query (budgeted engines return `None` on
/// budget exhaustion so tables can print `>cap`).
///
/// The query is compiled *once*, outside the timing loop: the tables
/// compare evaluation algorithms, so parsing/normalization/lowering cost
/// must not flatten the ratios.  The query-IR optimizer is pinned on
/// (regardless of `MINCTX_NO_OPTIMIZER`); [`time_strategy_opt`] chooses.
pub fn time_strategy(
    doc: &Document,
    strategy: Strategy,
    query: &str,
    budget: Option<u64>,
    runs: usize,
) -> Option<Duration> {
    time_strategy_opt(doc, strategy, query, budget, runs, true)
}

/// [`time_strategy`] with the query-IR rewrite pipeline pinned on or off —
/// the snapshot bin times both so the fused-vs-raw gap lands in
/// `BENCH_baseline.json`.
pub fn time_strategy_opt(
    doc: &Document,
    strategy: Strategy,
    query: &str,
    budget: Option<u64>,
    runs: usize,
    optimizer: bool,
) -> Option<Duration> {
    let mut engine = Engine::new(strategy).with_optimizer(optimizer);
    if let Some(b) = budget {
        engine = engine.with_budget(b);
    }
    let compiled = minctx_syntax::parse_xpath(query).ok()?;
    // Reject once up front so the timing loop measures successes only.
    engine.evaluate(doc, &compiled).ok()?;
    Some(time(runs, || engine.evaluate(doc, &compiled).unwrap()))
}

/// Formats a duration in fixed-width milliseconds for table output.
pub fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:>10.3}", d.as_secs_f64() * 1e3),
        None => format!("{:>10}", "—"),
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
        let w = wide_doc(5);
        assert_eq!(w.element_count(), 6);
        assert_eq!(
            exponential_family(2),
            "//b/parent::a/child::b/parent::a/child::b"
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
        // Guard the bench query lists against rot: they must all evaluate.
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

    #[test]
    fn time_strategy_reports_budget_exhaustion_as_none() {
        let doc = exponential_doc();
        let t = time_strategy(
            &doc,
            Strategy::Naive,
            &exponential_family(40),
            Some(1_000),
            1,
        );
        assert!(t.is_none());
        assert_eq!(fmt_ms(t).trim(), "—");
    }
}
