//! Randomized property tests: the postings-backed axis kernels against
//! the `axis_relates` brute force, on generated documents with attributes,
//! ids, text, comments and PIs.
//!
//! `axis_relates` is an independent oracle — it answers pair membership
//! straight from the arena invariants (parent pointers, subtree ranges)
//! and shares no code with the set kernels' sweeps, postings walks, or
//! preimage constructions.

use minctx_xml::axes::{axis_image, axis_preimage, Axis, NodeTest};
use minctx_xml::{sibling_ranks, Document, DocumentBuilder, NodeId, NodeSet, Scratch, SiblingRank};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

const LABELS: &[&str] = &["a", "b", "c", "d", "e"];
const ATTR_NAMES: &[&str] = &["p", "q", "id"];

/// A random document: nested elements from a 5-letter alphabet, ~40% of
/// elements attributed (including `id` attributes wired into the id
/// index), text referencing earlier ids half the time.
fn random_doc(seed: u64, target_elements: usize) -> Document {
    let mut rng = seed | 1;
    let mut b = DocumentBuilder::new();
    let mut made = 0usize;
    let mut ids = 0usize;
    fn element(
        b: &mut DocumentBuilder,
        rng: &mut u64,
        made: &mut usize,
        ids: &mut usize,
        depth: usize,
        target: usize,
    ) {
        if *made >= target {
            return;
        }
        *made += 1;
        let label = LABELS[xorshift(rng) as usize % LABELS.len()];
        let id_val;
        let mut attrs: Vec<(&str, &str)> = Vec::new();
        for name in ATTR_NAMES {
            if xorshift(rng) % 100 < 15 {
                if *name == "id" {
                    id_val = format!("k{ids}");
                    *ids += 1;
                    attrs.push((name, &id_val));
                } else {
                    attrs.push((name, "v"));
                }
                break;
            }
        }
        b.start_element(label, &attrs);
        match xorshift(rng) % 10 {
            0 => {
                // Text that may reference an id minted so far.
                if *ids > 0 {
                    b.text(&format!("k{}", xorshift(rng) as usize % *ids));
                } else {
                    b.text("t");
                }
            }
            1 => {
                b.comment("c");
            }
            2 => {
                b.processing_instruction("pi", "d");
            }
            _ => {}
        }
        if depth < 8 {
            let kids = xorshift(rng) as usize % 4;
            for _ in 0..kids {
                element(b, rng, made, ids, depth + 1, target);
            }
        }
        b.end_element();
    }
    b.start_element("r", &[]);
    made += 1;
    while made < target_elements {
        element(&mut b, &mut rng, &mut made, &mut ids, 1, target_elements);
    }
    b.end_element();
    b.finish().expect("random doc is well-formed")
}

fn brute_image(doc: &Document, axis: Axis, x: &NodeSet) -> NodeSet {
    doc.all_nodes()
        .filter(|&y| x.iter().any(|m| doc.axis_relates(axis, m, y)))
        .collect()
}

fn brute_preimage(doc: &Document, axis: Axis, y: &NodeSet) -> NodeSet {
    doc.all_nodes()
        .filter(|&x| y.iter().any(|m| doc.axis_relates(axis, x, m)))
        .collect()
}

fn random_subset(doc: &Document, rng: &mut u64, density_pct: u64) -> NodeSet {
    doc.all_nodes()
        .filter(|_| xorshift(rng) % 100 < density_pct)
        .collect()
}

/// Every set kernel against the oracle from one origin set: images under
/// each non-name test (the oracle's `node()` image, cut down by
/// `ResolvedTest::matches`), preimages, and every output strictly
/// ascending.
fn check_against_brute_force(doc: &Document, set: &NodeSet, tag: &str) {
    let ascending = |s: &NodeSet| s.as_slice().windows(2).all(|w| w[0] < w[1]);
    for axis in Axis::ALL {
        if axis == Axis::Id {
            // `axis_relates(Id, …)` tokenizes the *concatenated* string
            // value; the set kernels tokenize per text node (see
            // DESIGN.md) — covered by the adjointness test below instead.
            continue;
        }
        let reached = brute_image(doc, axis, set);
        for test in [
            NodeTest::AnyNode,
            NodeTest::Wildcard,
            NodeTest::Text,
            NodeTest::Comment,
            NodeTest::Pi(None),
        ] {
            let t = test.resolve(doc);
            let fast = axis_image(doc, axis, set, &test);
            let mut slow = reached.clone();
            slow.retain(|y| t.matches(doc, axis, y));
            assert!(ascending(&fast), "image order: {tag}, {axis}::{test}");
            assert_eq!(
                fast,
                slow,
                "image: {tag}, {axis}::{test}, |X|={}",
                set.len()
            );
        }
        let fast = axis_preimage(doc, axis, set);
        let slow = brute_preimage(doc, axis, set);
        assert!(ascending(&fast), "preimage order: {tag}, {axis}");
        assert_eq!(fast, slow, "preimage: {tag}, {axis}, |Y|={}", set.len());
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn image_and_preimage_match_brute_force_on_random_documents() {
    for seed in 1..=6u64 {
        let doc = random_doc(seed * 0x9e37_79b9, 60 + (seed as usize) * 25);
        let mut rng = seed;
        // Subsets of *all* node kinds — attributes, text, comments, PIs and
        // the root among the origins — from sparse to everything.
        for density in [3, 20, 80, 100] {
            let set = random_subset(&doc, &mut rng, density);
            check_against_brute_force(&doc, &set, &format!("seed {seed} at {density}%"));
        }
    }
}

#[test]
fn image_and_preimage_match_brute_force_on_adversarial_origin_sets() {
    // Where the walks' ordering and once-only arguments are under most
    // strain: one sibling group of thousands entered from its first, its
    // last and every other member, and a same-name spine 40 deep taken
    // whole, so every child chain and sibling group nests inside another.
    let [deep, wide, listy] = <[Document; 3]>::try_from(adversarial_docs()).expect("three shapes");
    let group: Vec<NodeId> = wide.children(wide.document_element()).collect();
    let ends = [group[0], group[group.len() - 1]];
    let sets = [
        ("first", NodeSet::singleton(ends[0])),
        ("last", NodeSet::singleton(ends[1])),
        ("both ends", ends.into_iter().collect()),
        ("every other", group.iter().copied().step_by(2).collect()),
    ];
    for (tag, set) in &sets {
        check_against_brute_force(&wide, set, &format!("wide, {tag}"));
    }
    let spine: NodeSet = deep
        .all_nodes()
        .filter(|&n| n != deep.root() && deep.first_child(n).is_some())
        .collect();
    assert_eq!(spine.len(), 41, "<r> and the 40 nested <a>");
    check_against_brute_force(&deep, &spine, "deep, spine");
    for doc in [&deep, &listy] {
        check_against_brute_force(doc, &doc.all_nodes().collect(), "everything");
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn id_axis_image_and_preimage_are_adjoint_on_random_documents() {
    // Both sides of the id-"axis" use per-text-node tokenization (see
    // DESIGN.md), so they must satisfy the Galois-connection property
    // `x ∈ χ⁻¹({y})  ⇔  y ∈ χ({x})` on every pair.
    for seed in [7u64, 11, 13] {
        let doc = random_doc(seed.wrapping_mul(0x1234_5678_9abc), 60);
        let images: Vec<NodeSet> = doc
            .all_nodes()
            .map(|x| axis_image(&doc, Axis::Id, &NodeSet::singleton(x), &NodeTest::AnyNode))
            .collect();
        for y in doc.all_nodes() {
            let pre = axis_preimage(&doc, Axis::Id, &NodeSet::singleton(y));
            for x in doc.all_nodes() {
                assert_eq!(
                    pre.contains(x),
                    images[x.index()].contains(y),
                    "seed {seed}: id-axis adjointness fails at ({x}, {y})"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn name_test_kernels_match_brute_force_on_random_documents() {
    for seed in 1..=4u64 {
        let doc = random_doc(seed.wrapping_mul(0xdead_beef_1234), 80);
        let mut rng = seed;
        let set = random_subset(&doc, &mut rng, 30);
        for label in ["a", "c", "e", "q", "id", "nosuch"] {
            let test = NodeTest::name(label);
            let t = test.resolve(&doc);
            for axis in Axis::ALL {
                if axis == Axis::Id {
                    continue; // name tests over id targets covered below
                }
                let fast = axis_image(&doc, axis, &set, &test);
                let mut slow = brute_image(&doc, axis, &set);
                slow.retain(|y| t.matches(&doc, axis, y));
                assert_eq!(fast, slow, "seed {seed}, axis {axis}, label {label}");
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn single_origin_axis_nodes_match_brute_force_order() {
    let doc = random_doc(0xabcd_ef12, 70);
    for from in doc.all_nodes() {
        for axis in Axis::ALL {
            for test in [NodeTest::AnyNode, NodeTest::name("b"), NodeTest::name("q")] {
                let fast = doc.axis_nodes(axis, from, &test);
                let t = test.resolve(&doc);
                let mut slow: Vec<NodeId> = doc
                    .all_nodes()
                    .filter(|&y| doc.axis_relates(axis, from, y) && t.matches(&doc, axis, y))
                    .collect();
                if axis.is_reverse() {
                    slow.reverse();
                }
                assert_eq!(fast, slow, "axis {axis} from {from} test {test}");
            }
        }
    }
}

/// Shapes the random generator rarely reaches: same-name nesting 40 deep
/// with a sibling beside every level, one sibling group of thousands,
/// and elements that are mostly attribute list.
fn adversarial_docs() -> Vec<Document> {
    let deep = format!("<r>{}{}</r>", "<a><a/>".repeat(40), "<a/></a>".repeat(40));
    let wide = format!(
        "<r>{}</r>",
        "<a/><b/>".repeat(if cfg!(miri) { 60 } else { 3_000 })
    );
    let attrs: String = (0..30).map(|k| format!(" k{k}=\"{k}\"")).collect();
    let listy = format!("<r{attrs}><a{attrs}><a{attrs}/></a><b/><a{attrs}/></r>");
    [deep, wide, listy]
        .iter()
        .map(|xml| minctx_xml::parse(xml).expect("well-formed"))
        .collect()
}

#[test]
fn sibling_ranks_match_a_quadratic_count() {
    let seeds = if cfg!(miri) { 2 } else { 12 };
    let mut docs = adversarial_docs();
    docs.extend((1..=seeds).map(|s| random_doc(s * 0x9e37_79b9, 40 + (s as usize) * 30)));
    let mut scratch = Scratch::new();
    let mut rng = 0x5eed_u64;
    for (d, doc) in docs.iter().enumerate() {
        // Random document-ordered lists from empty to everything (the root
        // and attribute nodes included), and the lists a name test yields.
        let mut lists: Vec<Vec<NodeId>> = [0, 3, 30, 100]
            .iter()
            .map(|&pct| random_subset(doc, &mut rng, pct).into_vec())
            .collect();
        lists.push(
            axis_image(
                doc,
                Axis::Descendant,
                &NodeSet::singleton(doc.root()),
                &NodeTest::name("a"),
            )
            .into_vec(),
        );
        lists.push(
            doc.all_nodes()
                .filter(|&n| doc.kind(n).is_attribute())
                .collect(),
        );
        for list in &lists {
            let ranks = sibling_ranks(doc, list, &mut scratch);
            assert_eq!(ranks.len(), list.len());
            for (i, &y) in list.iter().enumerate() {
                let same = |&z: &NodeId| doc.parent(z) == doc.parent(y);
                let want = SiblingRank {
                    position: 1 + list[..i].iter().filter(|z| same(z)).count() as u32,
                    size: list.iter().filter(|z| same(z)).count() as u32,
                };
                assert_eq!(
                    ranks[i],
                    want,
                    "doc {d}, |list| {}, member {i} ({y})",
                    list.len()
                );
            }
            scratch.recycle_ranks(ranks);
        }
    }
}
