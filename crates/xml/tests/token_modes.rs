//! The two tokenizer modes are one lexer: over seeded small documents —
//! and every truncation and a seeded set of one-byte substitutions of
//! each — `Tokenizer::new` on the text and `Tokenizer::from_reader` at
//! read sizes 1, 2, 3, 7 and 4096 produce the same events and, on
//! failure, the same error kind, offset, line and column.  The read sizes
//! put a refill boundary at every byte of every construct; the generator
//! covers what the benchmark's workload text does not (both quote kinds,
//! references in text and values, CDATA next to text, comments and PIs
//! splitting runs, non-ASCII names and content, whitespace-only runs, a
//! leading BOM).  The nesting bound is checked the same way on a document
//! one level deeper than [`MAX_ELEMENT_DEPTH`].

use minctx_xml::{Tokenizer, XmlEvent, MAX_ELEMENT_DEPTH};
use std::io::Read;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

const NAMES: [&str; 7] = ["a", "item", "ns:x", "café", "größe", "_u.v-w", "x1"];
const TEXTS: [&str; 12] = [
    "x",
    " ",
    "\n  ",
    "héllo ☃",
    "a]b",
    "]]",
    "1 > 0",
    "&amp;",
    "&#65;&#x263A;",
    "&lt;&gt;&apos;&quot;",
    "\t",
    "a plain text run",
];

fn element(r: &mut Rng, out: &mut String, depth: usize) {
    let name = r.pick(&NAMES);
    out.push('<');
    out.push_str(name);
    let mut used = Vec::new();
    for _ in 0..r.below(4) {
        let attr = r.pick(&NAMES);
        if used.contains(&attr) {
            continue;
        }
        used.push(attr);
        out.push_str(r.pick(&[" ", "  ", "\n", " \t"]));
        out.push_str(attr);
        out.push_str(r.pick(&["=", " =", "= ", " = "]));
        let quote = r.pick(&["\"", "'"]);
        let other = if quote == "\"" { "'" } else { "\"" };
        out.push_str(quote);
        for _ in 0..r.below(3) {
            out.push_str(r.pick(&[
                "v", "1 2", "a\tb", "&amp;", "&#x41;", "é", other, "x>y", "\n",
            ]));
        }
        out.push_str(quote);
    }
    if r.below(4) == 0 {
        out.push_str(r.pick(&["/>", " />"]));
        return;
    }
    out.push_str(r.pick(&[">", " >", "\n>"]));
    for _ in 0..r.below(5) {
        match r.below(8) {
            0 | 1 if depth < 4 => element(r, out, depth + 1),
            2 => {
                out.push_str("<!--");
                out.push_str(r.pick(&["c", " a - b ", "", "é-"]));
                out.push_str("-->");
            }
            3 => {
                out.push_str("<?");
                out.push_str(r.pick(&["pi", "p-i", "xml-style"]));
                out.push_str(r.pick(&["", " d", "  data ?x", " é"]));
                out.push_str("?>");
            }
            4 => {
                out.push_str("<![CDATA[");
                out.push_str(r.pick(&["", "<raw>&", "]]", " ", "a]]b"]));
                out.push_str("]]>");
            }
            _ => out.push_str(r.pick(&TEXTS)),
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push_str(r.pick(&[">", " >", "\n>"]));
}

fn document(r: &mut Rng) -> String {
    let mut out = String::new();
    if r.below(4) == 0 {
        out.push('\u{feff}');
    }
    if r.below(3) == 0 {
        out.push_str("<?xml version=\"1.0\" encoding='UTF-8'?>\n");
    }
    if r.below(3) == 0 {
        out.push_str(r.pick(&[
            "<!DOCTYPE a SYSTEM \"x.dtd\">\n",
            "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> <!ENTITY e \">]\"> ]>",
            "<!-- pre --> <?pre x?>",
        ]));
    }
    element(r, &mut out, 0);
    out.push_str(r.pick(&["", "\n", "<!--post-->", " <?post?> "]));
    out
}

/// Hands out at most `.1` bytes a read.
struct Trickle<'a>(&'a [u8], usize);

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(out.len()).min(self.1);
        out[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// The events, then how the stream ended: cleanly or with which error
/// where.
fn outcome(mut tok: Tokenizer<'_>) -> Vec<String> {
    let mut out = Vec::new();
    loop {
        match tok.next_event() {
            Ok(Some(ev)) => out.push(match ev {
                XmlEvent::StartElement { name, attrs } => format!("<{name} {attrs:?}"),
                XmlEvent::EndElement { name } => format!("</{name}"),
                XmlEvent::Text(t) => format!("text {t:?}"),
                XmlEvent::Comment(c) => format!("comment {c:?}"),
                XmlEvent::Pi { target, data } => format!("pi {target} {data:?}"),
            }),
            Ok(None) => return out,
            Err(e) => {
                out.push(format!(
                    "{:?} at {} ({}:{})",
                    e.kind(),
                    e.offset(),
                    e.line(),
                    e.column()
                ));
                return out;
            }
        }
    }
}

const READ_SIZES: [usize; 5] = [1, 2, 3, 7, 4096];

/// Checks reader mode against `Str` mode on `input`; returns whether the
/// input tokenized cleanly.
fn modes_agree(input: &str) -> bool {
    let want = outcome(Tokenizer::new(input));
    for size in READ_SIZES {
        let rd = Trickle(input.as_bytes(), size);
        let got = outcome(Tokenizer::from_reader(rd));
        assert_eq!(got, want, "read size {size} on {input:?}");
    }
    !want.last().is_some_and(|l| l.contains(" at "))
}

#[test]
fn reader_mode_is_str_mode_on_every_truncation_and_substitution() {
    let seeds: u64 = if cfg!(miri) { 2 } else { 300 };
    let (mut clean, mut failed) = (0, 0);
    for seed in 1..=seeds {
        let mut r = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let doc = document(&mut r);
        let mut tally = |ok: bool| *(if ok { &mut clean } else { &mut failed }) += 1;
        tally(modes_agree(&doc));
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                tally(modes_agree(&doc[..cut]));
                continue;
            }
            // Not text any more, so `Str` mode cannot take it: whatever the
            // read size, the reader reports the torn sequence where it
            // starts, after the same events — unless the text before it
            // already fails.
            let torn = &doc.as_bytes()[..cut];
            let outcomes =
                READ_SIZES.map(|size| outcome(Tokenizer::from_reader(Trickle(torn, size))));
            let start = (0..cut).rev().find(|&i| doc.is_char_boundary(i)).unwrap();
            let last = outcomes[0].last().unwrap();
            assert!(
                last.contains("UTF-8") && last.contains(&format!(" at {start} "))
                    || outcomes[0] == outcome(Tokenizer::new(&doc[..start])),
                "{:?} for {torn:?}",
                outcomes[0]
            );
            assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{torn:?}");
        }
        for _ in 0..if cfg!(miri) { 4 } else { 48 } {
            let mut bytes = doc.clone().into_bytes();
            let at = r.below(bytes.len());
            if bytes[at].is_ascii() {
                bytes[at] = b"<>&;\"'/!?-[]= a\n#x0"[r.below(19)];
                let mutant = String::from_utf8(bytes).expect("ASCII for ASCII");
                tally(modes_agree(&mutant));
            }
        }
    }
    // The generator and the mutations both have to bite.
    assert!(clean >= seeds && failed >= 10 * seeds, "{clean} {failed}");
}

#[test]
fn reader_mode_is_str_mode_at_the_depth_bound() {
    // One level deeper than the bound, a line per level: every cut at and
    // around the start tag that trips it — before it, through it, after
    // it — ends alike in both modes at every read size.
    let n = MAX_ELEMENT_DEPTH;
    let doc = "<d>\n".repeat(n + 1) + &"</d>".repeat(n + 1);
    let trip = 4 * n;
    assert!(!modes_agree(&doc));
    let window = if cfg!(miri) { 2 } else { 8 };
    let mut failed = 0;
    for cut in trip - window..=trip + window {
        failed += usize::from(!modes_agree(&doc[..cut]));
    }
    // Every cut fails: short of the tag at the end of input, from its `<`
    // on at the bound.
    assert_eq!(failed, 2 * window + 1);
    let verdict = outcome(Tokenizer::new(&doc));
    assert_eq!(
        verdict.last().unwrap(),
        &format!("TooDeep {{ limit: 1024 }} at {trip} ({}:1)", n + 1)
    );
    // One level less is clean.
    let at = "<d>\n".repeat(n) + &"</d>".repeat(n);
    assert!(modes_agree(&at));
}

/// FNV-1a, 64 bits: a stable fold of verdict text.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every verdict `Str` mode reaches on the documents of the test above —
/// each document, its truncations at character boundaries and its ASCII
/// substitutions, drawn in the same order — folded into one hash of the
/// events and, on failure, the error kind, offset, line and column.  A
/// lexer change that alters any verdict changes the hash; the verdict
/// count pins that the inputs are the same.
#[test]
#[cfg_attr(miri, ignore)] // 300 documents through the interpreter
fn str_mode_verdicts_match_the_pinned_digest() {
    let (mut digest, mut verdicts) = (0xcbf2_9ce4_8422_2325, 0u32);
    let mut fold = |input: &str| {
        for line in outcome(Tokenizer::new(input)) {
            digest = fnv(digest, line.as_bytes());
            digest = fnv(digest, b"\n");
        }
        digest = fnv(digest, b"\0");
        verdicts += 1;
    };
    for seed in 1..=300u64 {
        let mut r = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let doc = document(&mut r);
        fold(&doc);
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            fold(&doc[..cut]);
        }
        for _ in 0..48 {
            let mut bytes = doc.clone().into_bytes();
            let at = r.below(bytes.len());
            if bytes[at].is_ascii() {
                bytes[at] = b"<>&;\"'/!?-[]= a\n#x0"[r.below(19)];
                fold(&String::from_utf8(bytes).expect("ASCII for ASCII"));
            }
        }
    }
    assert_eq!(
        (verdicts, digest),
        (42_431, 0x588f_2c0d_f128_b512),
        "verdicts, digest"
    );
}
