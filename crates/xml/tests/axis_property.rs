//! Randomized property tests: the postings-backed axis kernels against
//! the `axis_relates` brute force, on generated documents with attributes,
//! ids, text, comments and PIs (`minctx_bench::random_doc`).
//!
//! `axis_relates` is an independent oracle — it answers pair membership
//! straight from the arena invariants (parent pointers, subtree ranges)
//! and shares no code with the set kernels' sweeps, postings walks, or
//! preimage constructions.

mod support;

use minctx_bench::{random_doc, xorshift};
use minctx_xml::axes::{axis_image, axis_image_among, axis_preimage, Axis, NodeTest};
use minctx_xml::{sibling_ranks, Document, Exec, NodeId, NodeSet, Scratch, SiblingRank};

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
/// each non-name test, the element name `a` and the attribute name `p` (the
/// oracle's `node()` image, cut down by `ResolvedTest::matches`),
/// preimages, and every output strictly ascending.
fn check_against_brute_force(doc: &Document, set: &NodeSet, tag: &str) {
    check_axes(doc, set, &Axis::ALL, tag);
}

/// [`check_against_brute_force`] on the listed axes only.
fn check_axes(doc: &Document, set: &NodeSet, axes: &[Axis], tag: &str) {
    let ascending = |s: &NodeSet| s.as_slice().windows(2).all(|w| w[0] < w[1]);
    for &axis in axes {
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
            NodeTest::name("a"),
            NodeTest::name("p"),
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
        let doc = random_doc(seed * 0x9e37_79b9, 60 + (seed as usize) * 25, 0);
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

/// `axis_image_among` against the oracle for each of `lists`: `t(among) ∩
/// χ(X)` whenever it answers, and on the ancestor and sibling axes always,
/// strictly ascending.
fn check_among(doc: &Document, set: &NodeSet, lists: &[Vec<NodeId>], tag: &str) {
    let (mut scratch, mut out) = (Scratch::new(), NodeSet::new());
    for axis in Axis::ALL {
        let merged = matches!(
            axis,
            Axis::Ancestor | Axis::AncestorOrSelf | Axis::FollowingSibling | Axis::PrecedingSibling
        );
        let mut reached = None;
        for among in lists {
            for test in [NodeTest::AnyNode, NodeTest::Wildcard, NodeTest::name("a")] {
                let t = test.resolve(doc);
                let x = set.as_slice();
                let inline = Exec::INLINE;
                let ran = axis_image_among(doc, axis, x, t, among, &mut scratch, &mut out, inline);
                if ran.is_none() {
                    assert!(!merged, "{tag}: {axis}::{test} refused");
                    continue;
                }
                let reached = reached.get_or_insert_with(|| brute_image(doc, axis, set));
                let slow: Vec<NodeId> = among
                    .iter()
                    .copied()
                    .filter(|&y| reached.contains(y) && t.matches(doc, axis, y))
                    .collect();
                assert!(
                    out.as_slice().windows(2).all(|w| w[0] < w[1]),
                    "among order: {tag}, {axis}::{test}"
                );
                assert_eq!(
                    out.as_slice(),
                    slow,
                    "among: {tag}, {axis}::{test}, |X|={} |among|={}",
                    set.len(),
                    among.len()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn image_among_matches_brute_force_on_random_lists() {
    // Origins and `among` lists of every density over every node kind —
    // attributes and the root on both sides — on random documents, and on
    // the adversarial shapes: the 6 000-sibling group entered from its
    // ends and every other member, the 40-deep spine nested in itself.
    let mut rng = 0x51b1_u64;
    let mut lists = |doc: &Document, densities: &[u64]| -> Vec<Vec<NodeId>> {
        densities
            .iter()
            .map(|&pct| random_subset(doc, &mut rng, pct).into_vec())
            .collect()
    };
    for seed in 1..=6u64 {
        let doc = random_doc(seed * 0x2545_f491, 60 + (seed as usize) * 25, 0);
        for density in [3, 20, 80, 100] {
            let set = random_subset(&doc, &mut (seed + density), density);
            let among = lists(&doc, &[0, 10, 50, 100]);
            check_among(&doc, &set, &among, &format!("seed {seed}, X at {density}%"));
        }
    }
    let [deep, wide, listy] = <[Document; 3]>::try_from(adversarial_docs()).expect("three shapes");
    let group: Vec<NodeId> = wide.children(wide.document_element()).collect();
    let spine: NodeSet = deep
        .all_nodes()
        .filter(|&n| deep.first_child(n).is_some())
        .collect();
    let ends = [group[0], group[group.len() - 1]];
    let cases = [
        ("wide, ends", &wide, ends.into_iter().collect()),
        (
            "wide, every other",
            &wide,
            group.iter().copied().step_by(2).collect(),
        ),
        ("deep, spine", &deep, spine),
        ("listy, everything", &listy, listy.all_nodes().collect()),
    ];
    for (tag, doc, set) in &cases {
        check_among(doc, set, &lists(doc, &[5, 50, 100]), tag);
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn merges_match_brute_force_on_a_deep_chain_and_many_small_intervals() {
    // The ancestor merge where every origin has hundreds of ancestors of
    // its own label: a chain 240 levels deep of `a`s, each with an
    // attribute, a text node and a leaf `a` beside the next level.  Origin
    // sets of every kind and density, the root alone and the deepest leaf
    // alone, and `axis_image_among` over random lists.
    let levels = if cfg!(miri) { 20 } else { 240 };
    let chain = format!(
        "<r>{}{}</r>",
        r#"<a p="1">t<a/>"#.repeat(levels),
        "</a>".repeat(levels)
    );
    let doc = minctx_xml::parse(&chain).expect("well-formed");
    let kind = |pick: fn(&minctx_xml::NodeKind) -> bool| -> NodeSet {
        doc.all_nodes().filter(|&n| pick(&doc.kind(n))).collect()
    };
    let deepest = doc.all_nodes().filter(|&n| doc.kind(n).is_element()).last();
    let mut sets = vec![
        ("attributes", kind(|k| k.is_attribute())),
        ("text", kind(|k| k.is_text())),
        ("root", NodeSet::singleton(doc.root())),
        ("deepest", deepest.into_iter().collect()),
        (
            "root and deepest",
            [doc.root()].into_iter().chain(deepest).collect(),
        ),
    ];
    let mut rng = 0xc4a1_u64;
    for density in [1, 3, 20, 80, 100] {
        sets.push(("random", random_subset(&doc, &mut rng, density)));
    }
    let lists: Vec<Vec<NodeId>> = [5, 50, 100]
        .iter()
        .map(|&pct| random_subset(&doc, &mut rng, pct).into_vec())
        .collect();
    for (tag, set) in &sets {
        let tag = format!("chain of {levels}, {tag} ({})", set.len());
        check_against_brute_force(&doc, set, &tag);
        check_among(&doc, set, &lists, &tag);
    }

    // Thousands of one-node intervals over a long list: the descendant
    // merge gallops from one to the next.  Checked on the subtree and
    // ancestor axes (the oracle is quadratic).
    let pairs = if cfg!(miri) { 30 } else { 2_000 };
    let doc =
        minctx_xml::parse(&format!("<r>{}</r>", "<a><a/></a>".repeat(pairs))).expect("well-formed");
    let outer: Vec<NodeId> = doc.children(doc.document_element()).collect();
    let inner: NodeSet = outer.iter().filter_map(|&a| doc.first_child(a)).collect();
    let axes = [
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
    ];
    for (tag, set) in [
        ("every outer", outer.iter().copied().collect()),
        (
            "every third outer",
            outer.iter().copied().step_by(3).collect(),
        ),
        ("every inner", inner),
    ] {
        check_axes(&doc, &set, &axes, &format!("{pairs} pairs, {tag}"));
    }
}

#[test]
#[cfg_attr(miri, ignore = "property sweep is minutes-long under the interpreter")]
fn id_axis_image_and_preimage_are_adjoint_on_random_documents() {
    // Both sides of the id-"axis" use per-text-node tokenization (see
    // DESIGN.md), so they must satisfy the Galois-connection property
    // `x ∈ χ⁻¹({y})  ⇔  y ∈ χ({x})` on every pair.
    for seed in [7u64, 11, 13] {
        let doc = random_doc(seed.wrapping_mul(0x1234_5678_9abc), 60, 0);
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
        let doc = random_doc(seed.wrapping_mul(0xdead_beef_1234), 80, 0);
        let mut rng = seed;
        let set = random_subset(&doc, &mut rng, 30);
        for label in ["a", "c", "d", "q", "id", "nosuch"] {
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
    let doc = random_doc(0xabcd_ef12, 70, 0);
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
    // Long runs: the 3 000-pair sibling group's root holds one run of
    // 3 000 `a`s, and each link of the 40-deep same-name spine a run that
    // ends before its ancestors' trailing `a`s — from every origin, the
    // one-origin arm and `image`'s one-origin branch alike.
    for doc in adversarial_docs() {
        for from in doc.all_nodes() {
            for axis in [Axis::Descendant, Axis::DescendantOrSelf] {
                let reached: Vec<NodeId> = doc
                    .all_nodes()
                    .filter(|&y| doc.axis_relates(axis, from, y))
                    .collect();
                for test in [NodeTest::name("a"), NodeTest::name("b"), NodeTest::AnyNode] {
                    let t = test.resolve(&doc);
                    let mut slow = reached.clone();
                    slow.retain(|&y| t.matches(&doc, axis, y));
                    let tag = format!("{axis}::{test} from {from} of {}", doc.len());
                    assert_eq!(doc.axis_nodes(axis, from, &test), slow, "{tag}");
                    let image = axis_image(&doc, axis, &NodeSet::singleton(from), &test);
                    assert_eq!(image.as_slice(), &slow[..], "image: {tag}");
                }
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
    docs.extend((1..=seeds).map(|s| random_doc(s * 0x9e37_79b9, 40 + (s as usize) * 30, 0)));
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

#[test]
fn derived_links_match_a_brute_force_over_the_parent_column() {
    // `first_child`, `next_sibling` and `children` are computed from
    // `subtree_end` and the kind word; the oracle reads only `parent`: a
    // node's children are the non-attribute nodes whose parent it is,
    // ascending.  Every node is asked — the root and attribute nodes
    // included — on owned and mapped copies of a generated document, the
    // 40-deep spine, a sibling group of thousands, attribute-heavy and
    // attribute-only elements, and empty ones.
    let mut docs = adversarial_docs();
    docs.push(random_doc(0x5eed, if cfg!(miri) { 60 } else { 300 }, 0));
    docs.push(
        minctx_xml::parse(r#"<r a="1" b="2"><e x="1" y="2"/><f/>t<g><h z="3"/><!--c--></g></r>"#)
            .expect("well-formed"),
    );
    for (d, owned) in docs.iter().enumerate() {
        let mapped = support::reopen(owned);
        for (tag, doc) in [("owned", owned), ("mapped", &mapped)] {
            let mut kids = vec![Vec::new(); doc.len()];
            for c in doc.all_nodes().filter(|&c| !doc.kind(c).is_attribute()) {
                if let Some(p) = doc.parent(c) {
                    kids[p.index()].push(c);
                }
            }
            let mut next = vec![None; doc.len()];
            for group in &kids {
                for w in group.windows(2) {
                    next[w[0].index()] = Some(w[1]);
                }
            }
            for n in doc.all_nodes() {
                let want = &kids[n.index()];
                assert_eq!(
                    doc.children(n).collect::<Vec<_>>(),
                    *want,
                    "doc {d} {tag}: children of {n}"
                );
                assert_eq!(
                    doc.first_child(n),
                    want.first().copied(),
                    "doc {d} {tag}: first child of {n}"
                );
                assert_eq!(
                    doc.next_sibling(n),
                    next[n.index()],
                    "doc {d} {tag}: next sibling of {n}"
                );
            }
        }
    }
}
