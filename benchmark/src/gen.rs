//! Seeded input generation.  Everything the measured program receives —
//! XML *text* and XPath *strings* — is made here from `--seed`; the
//! generator is a port (not a dependency) of `minctx_bench::xmark_doc`, so
//! a later change to that crate cannot move the workloads.

use std::fmt::Write;

/// xorshift64* over a splitmix64-scrambled seed (small seeds such as 0, 1,
/// 2 would otherwise start the xorshift state nearly empty).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pct(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}

/// The element labels, XMark-flavoured; the workload queries name the
/// first eleven.
const LABELS: [&str; 12] = [
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
];
const MAX_FANOUT: u64 = 8;
const MAX_DEPTH: usize = 14;
const ID_PCT: u64 = 20;
const TEXT_PCT: u64 = 60;

/// Element counts of the generated documents.
pub const DOC_ELEMENTS: usize = 100_000;
pub const ORACLE_ELEMENTS: usize = 2_000;

/// Most elements one child of `<site>` may hold.  The tree is drawn depth
/// first with a mean fan-out of 4, so an uncapped subtree almost never
/// dies out: the first one to survive swallows the rest of the document,
/// and the labels of the dozen nodes on its spine decide what `//item//…`
/// costs — a five-fold lottery between seeds (measured on the uncapped
/// port: `//item//keyword` 47 µs on some seeds, 240 µs on others).  Capped,
/// a 10⁵-element document is a hundred such subtrees and seeds differ by
/// sampling noise only.
const TOP_LEVEL_CAP: usize = 1_000;

/// XML text of an XMark-shaped tree with exactly `elements` elements under
/// (and including) `<site>`: fan-out uniform in 0..=8, depth ≤ 14, twelve
/// labels, a `v` attribute on every element, a unique `id="id<N>"` on 20 %
/// of them, and the `v` value repeated as text in 60 % of the leaves.
pub fn xmark_text(elements: usize, seed: u64) -> String {
    struct Gen {
        rng: Rng,
        remaining: usize,
        next_id: usize,
        deck: [&'static str; 12],
        dealt: usize,
        out: String,
    }
    /// Labels are dealt from a deck reshuffled every twelve elements, not
    /// drawn independently: every label then names a twelfth of the
    /// elements to within one on every seed.  Drawn independently, the
    /// count of `item` (8 333 ± 90) straddles 8 192, and a result vector
    /// that doubles there made `peak_mb` of the streaming workload read
    /// 1.34 MB on two seeds in ten and 2.21 MB on the rest.
    fn deal(g: &mut Gen) -> &'static str {
        let i = g.dealt % g.deck.len();
        if i == 0 {
            for j in (1..g.deck.len()).rev() {
                g.deck.swap(j, g.rng.below(j as u64 + 1) as usize);
            }
        }
        g.dealt += 1;
        g.deck[i]
    }
    fn subtree(g: &mut Gen, depth: usize) {
        if g.remaining == 0 {
            return;
        }
        g.remaining -= 1;
        let label = deal(g);
        g.out.push('<');
        g.out.push_str(label);
        if g.rng.pct(ID_PCT) {
            let _ = write!(g.out, " id=\"id{}\"", g.next_id);
            g.next_id += 1;
        }
        let v = g.rng.below(1_000);
        let _ = write!(g.out, " v=\"{v}\"");
        let kids = if depth >= MAX_DEPTH {
            0
        } else {
            g.rng.below(MAX_FANOUT + 1)
        };
        if kids == 0 && !g.rng.pct(TEXT_PCT) {
            g.out.push_str("/>");
            return;
        }
        g.out.push('>');
        if kids == 0 {
            let _ = write!(g.out, "{v}");
        }
        for _ in 0..kids {
            subtree(g, depth + 1);
        }
        let _ = write!(g.out, "</{label}>");
    }
    let mut g = Gen {
        rng: Rng::new(seed),
        remaining: 0,
        next_id: 0,
        deck: LABELS,
        dealt: 0,
        out: String::with_capacity(elements * 32),
    };
    g.out.push_str("<site>");
    let mut left = elements.saturating_sub(1);
    while left > 0 {
        let budget = left.min(TOP_LEVEL_CAP);
        g.remaining = budget;
        subtree(&mut g, 1);
        left -= budget - g.remaining;
    }
    g.out.push_str("</site>");
    g.out
}

/// `arena-paths`: predicate-free queries.  The axis kernels, node-set
/// merges and the compile-cache hand-off do all of the work.
pub const PATH_QUERIES: [&str; 12] = [
    "//item",
    "/site/item",
    "//parlist/listitem",
    "/site/*/*",
    "//item//keyword",
    "//listitem/ancestor::parlist",
    "//item/following-sibling::person",
    "//keyword/parent::*",
    "//item/@id",
    "//bid/preceding::item",
    "//item | //person",
    "count(//item)",
];

/// `arena-preds`: predicate, positional and aggregate queries.  Per-context
/// evaluation, memo tables and backward propagation do nearly all of the
/// work; the kernels under them are a few percent.
pub const PRED_QUERIES: [&str; 14] = [
    "//item[@id]",
    "//item[keyword]",
    "//item[not(@id)]",
    "//item[@v > 500]",
    "//item[position() = last()]",
    "//parlist[count(listitem) > 2]",
    "//item[@id][2]",
    "//item[.//keyword and not(bid)]",
    "//person[position() mod 2 = 1]/@id",
    "//item[following-sibling::item]",
    "//item[description/parlist]",
    "//item[count(.//listitem) > count(.//keyword)]",
    "sum(//item/@v)",
    "count(//*[@id])",
];

/// The three queries the ingest and snapshot workloads rotate through; all
/// are in the streamable fragment.
pub const INGEST_QUERIES: [&str; 3] = ["//item", "count(//item[@id])", "//parlist/listitem"];

/// `serve-mixed` request classes.
pub const SERVE_LIGHT: [&str; 5] = [
    "count(//item)",
    "boolean(//listitem)",
    "/site/*/*",
    "count(//parlist/listitem)",
    "//item/@id",
];
pub const SERVE_HEAVY: [&str; 3] = [
    "count(//item[@id])",
    "//item[keyword]",
    "count(//parlist[count(listitem) > 2])",
];
/// Cold-tail ids are uniform in `0..SERVE_TAIL_IDS`: far more distinct
/// query texts than the 256-entry compiled-query LRU holds.
pub const SERVE_TAIL_IDS: u64 = 20_000;

pub fn serve_tail_query(n: u64) -> String {
    format!("string(id('id{n}')/@v)")
}

/// Request classes of `serve-mixed`, in the order the metrics name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    Light = 0,
    Heavy = 1,
    Miss = 2,
}

/// One generated request: which of the two snapshots, which class, and the
/// query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    pub corpus: usize,
    pub class: ServeClass,
    pub query: String,
}

/// The request stream of one client: snapshots 50/50; 65 % light, 25 %
/// heavy, 10 % cold tail.
pub fn serve_requests(seed: u64, n: usize) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let corpus = rng.below(2) as usize;
            let roll = rng.below(100);
            let (class, query) = if roll < 65 {
                let q = SERVE_LIGHT[rng.below(SERVE_LIGHT.len() as u64) as usize];
                (ServeClass::Light, q.to_string())
            } else if roll < 90 {
                let q = SERVE_HEAVY[rng.below(SERVE_HEAVY.len() as u64) as usize];
                (ServeClass::Heavy, q.to_string())
            } else {
                (
                    ServeClass::Miss,
                    serve_tail_query(rng.below(SERVE_TAIL_IDS)),
                )
            };
            ServeRequest {
                corpus,
                class,
                query,
            }
        })
        .collect()
}

/// The four small documents of the differential corpus, as XML text
/// (ported from `minctx_bench::corpus::documents`).
pub fn corpus_documents() -> Vec<(&'static str, String)> {
    fn tree(out: &mut String, depth: usize, fanout: usize, counter: &mut usize) {
        let label = if depth.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        };
        let v = *counter;
        *counter += 1;
        let _ = write!(out, "<{label} v=\"{v}\">");
        if depth == 0 {
            let _ = write!(out, "{v}");
        } else {
            for _ in 0..fanout {
                tree(out, depth - 1, fanout, counter);
            }
        }
        let _ = write!(out, "</{label}>");
    }
    let mut tree_3_3 = String::new();
    tree(&mut tree_3_3, 3, 3, &mut 0);
    vec![
        (
            "books",
            concat!(
                r#"<library xml:lang="en">"#,
                r#"<book id="b1" year="1994"><title>TCP/IP</title><price>65.95</price></book>"#,
                r#"<book id="b2" year="2000"><title>Data on the Web</title><price>39.95</price></book>"#,
                r#"<book id="b3" year="2000" ref="b1"><title>XML</title><price>100</price></book>"#,
                r#"<!-- catalogue -->"#,
                r#"<?render fast?>"#,
                r#"<magazine id="m1"><title>XML</title><price>8</price></magazine>"#,
                r#"</library>"#,
            )
            .to_string(),
        ),
        (
            "numbers",
            "<t><n>1</n><n>2</n><n>3</n><n>100</n><m>2.5</m><m>-4</m>\
             <mixed>7seven</mixed><empty/></t>"
                .to_string(),
        ),
        (
            "idchain",
            r#"<g id="g"><p id="p1">p2 p3</p><p id="p2">p3</p><p id="p3">done</p></g>"#
                .to_string(),
        ),
        ("tree-3-3", tree_3_3),
    ]
}

/// The differential corpus's query list (ported from
/// `minctx_bench::corpus::QUERIES`): every construct the front end knows.
pub const CORPUS_QUERIES: [&str; 161] = [
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
    "//book[1]/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::price",
    "//magazine/ancestor-or-self::node()/preceding-sibling::node()/descendant-or-self::title",
    "/library/book/following::node()/descendant-or-self::price",
    "//price/preceding::node()/descendant-or-self::text()",
    "//book[2]/following::price",
    "//magazine/preceding::title",
    "//@id/ancestor-or-self::node()/following-sibling::node()/descendant-or-self::title",
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
    "//magazine/preceding-sibling::*[1]",
    "//price/ancestor::*[2]",
    "//magazine/preceding::node()[3]",
    "//book[last() - 1]",
    "(//book)[2]",
    "(//title | //price)[last()]",
    "id('b1 b3')[2]",
    "//title | //price",
    "//book | //magazine | //book",
    "//n | //m",
    "id('b2')",
    "id('p1')",
    "id(//book[3]/@ref)",
    "//p[id(.)]",
    "count(//book)",
    "count(//book[price < 50]) + count(//magazine)",
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
    "//nosuch = false()",
    "count(//book[nosuch = false()])",
    "//book != true()",
    "//nosuch < true()",
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
    "substring('12345', 1 div 0)",
    "substring('12345', -1 div 0)",
    "substring('12345', -1 div 0, 1 div 0)",
    "substring('12345', 2, 1 div 0)",
    "substring('12345', 0 div 0, 3)",
    "substring('12345', 2, 0 div 0)",
    "substring('12345', -42, 1 div 0)",
    "substring(string(//title[1]), 1 div 0)",
    "substring-before('abc', '')",
    "substring-after('abc', '')",
    "substring-before('', 'x')",
    "substring-after('', '')",
    "substring-before(string(//mixed), '')",
    "name(//nosuch)",
    "local-name(//nosuch)",
    "namespace-uri(//nosuch)",
    "sum(//nosuch)",
    "string(sum(//nosuch) div count(//nosuch))",
    "number(//nosuch)",
    "string(//nosuch)",
    "string-length(string(//nosuch))",
    "count(//book[sum(nosuch) = 0])",
    "'' = 0",
    "number('') = number('')",
    "//mixed != //mixed",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = xmark_text(ORACLE_ELEMENTS, 7);
        assert_eq!(a, xmark_text(ORACLE_ELEMENTS, 7));
        assert_ne!(a, xmark_text(ORACLE_ELEMENTS, 8));
        assert_eq!(serve_requests(7, 500), serve_requests(7, 500));
        assert_ne!(serve_requests(7, 500), serve_requests(8, 500));
    }

    #[test]
    fn full_size_config_yields_exactly_100_000_elements() {
        for seed in [0, 0x5eed_cafe] {
            let doc = minctx::xml::parse(&xmark_text(DOC_ELEMENTS, seed)).unwrap();
            assert_eq!(doc.element_count(), DOC_ELEMENTS);
        }
        let small = minctx::xml::parse(&xmark_text(ORACLE_ELEMENTS, 3)).unwrap();
        assert_eq!(small.element_count(), ORACLE_ELEMENTS);
    }

    #[test]
    fn serve_mix_has_the_stated_shares() {
        let reqs = serve_requests(11, 20_000);
        let share =
            |c: ServeClass| reqs.iter().filter(|r| r.class == c).count() as f64 / reqs.len() as f64;
        assert!((share(ServeClass::Light) - 0.65).abs() < 0.02);
        assert!((share(ServeClass::Heavy) - 0.25).abs() < 0.02);
        assert!((share(ServeClass::Miss) - 0.10).abs() < 0.02);
        let second = reqs.iter().filter(|r| r.corpus == 1).count() as f64 / reqs.len() as f64;
        assert!((second - 0.5).abs() < 0.02);
    }
}
