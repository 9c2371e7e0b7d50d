//! Seeded inputs shared by the crate's unit tests.

use crate::builder::DocumentBuilder;
use crate::document::Document;

/// One step of the xorshift64 generator: cheap, seedable, and enough to
/// pick shapes and edits reproducibly.
pub(crate) fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

/// A seeded document of about `elements` elements, and every name in
/// the order the builder was handed it.  Mixes multi-byte text,
/// comments and PIs,
/// attribute-only names (`only`), a name used as both element and
/// attribute (`shared`), a name first interned as a PI target
/// (`target`), ids with repeated keys, and, at `elements == 0`, a
/// document element with nothing below it.
pub(crate) fn generated(seed: u64, elements: usize) -> (Document, Vec<&'static str>) {
    const ELEMS: [&str; 4] = ["a", "item", "shared", "target"];
    const ATTRS: [&str; 4] = ["id", "only", "shared", "abcdefgh_long"];
    const KEYS: [&str; 4] = ["k0", "k1", "k1", "k2"];
    fn grow(
        b: &mut DocumentBuilder,
        handed: &mut Vec<&'static str>,
        rng: &mut u64,
        left: &mut usize,
        depth: usize,
    ) {
        let name = ELEMS[xorshift(rng) as usize % ELEMS.len()];
        let mut attrs = Vec::new();
        for (k, &a) in ATTRS.iter().enumerate() {
            if xorshift(rng).is_multiple_of(3) {
                attrs.push((
                    a,
                    if k == 0 {
                        KEYS[xorshift(rng) as usize % 4]
                    } else {
                        "v"
                    },
                ));
            }
        }
        handed.push(name);
        handed.extend(attrs.iter().map(|&(a, _)| a));
        b.start_element(name, &attrs);
        *left = left.saturating_sub(1);
        // Adjacent text nodes would merge when the document is parsed
        // back, so a text node never follows another.
        let mut after_text = false;
        for _ in 0..xorshift(rng) % 5 {
            let pick = xorshift(rng) % 8;
            match pick {
                0 if !after_text => drop(b.text("té€😀")),
                1 => drop(b.comment("c")),
                2 => {
                    handed.push("pi");
                    b.processing_instruction("pi", "d");
                }
                3.. if depth < 8 && *left > 0 => grow(b, handed, rng, left, depth + 1),
                _ => continue,
            }
            after_text = pick == 0;
        }
        b.end_element();
    }
    let (mut b, mut handed, mut rng, mut left) =
        (DocumentBuilder::new(), Vec::new(), seed | 1, elements);
    handed.push("r");
    b.start_element("r", &[]);
    if elements > 0 {
        handed.push("target");
        b.processing_instruction("target", "first");
    }
    while left > 0 {
        grow(&mut b, &mut handed, &mut rng, &mut left, 1);
    }
    b.end_element();
    (b.finish().unwrap(), handed)
}
