//! Programmatic document construction.
//!
//! [`DocumentBuilder`] receives SAX-style events (`start_element`, `text`,
//! `end_element`, …) and assembles the pre-order arena of a [`Document`].
//! Both the XML parser and the synthetic workload generators build documents
//! through this one code path, so every invariant (pre-order ids, subtree
//! ranges, sibling links, id index, text-heap spans, CSR postings) is
//! enforced in a single place.

use crate::document::{Document, NONE};
use crate::error::{XmlError, XmlErrorKind};
use crate::name::NameTable;
use crate::node::NodeKind;
use crate::store::{Col, DocStore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Document::stamp`] values; see [`Document::stamp`].
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// The `xml/documents_built` counter in the process-wide metrics
/// registry, resolved once.  Stamps still come from [`NEXT_STAMP`] (the
/// registry cell must not double as the stamp source — stamps demand
/// uniqueness, metrics only monotonicity).  The streaming smoke asserts
/// the counter is unchanged across `evaluate_reader` on streamable
/// queries — direct proof that the one-pass path never materializes an
/// arena — and the index and serve smokes assert the same across
/// `open_snapshot` (reopening a snapshot never re-builds, just as it
/// never re-lexes).
fn documents_built_counter() -> &'static minctx_obs::Counter {
    static C: std::sync::OnceLock<minctx_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("xml/documents_built"))
}

/// Builder stamps are plain counter values with the high bit clear;
/// snapshot-backed documents use content-derived stamps with the high bit
/// set (`minctx-index`), so the two namespaces can never collide in a
/// compiled-query cache.
const STAMP_COUNTER_MASK: u64 = (1 << 63) - 1;

/// Incremental builder for [`Document`]s.
///
/// # Example
///
/// ```
/// use minctx_xml::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new();
/// b.start_element("a", &[("id", "1")]);
/// b.text("hello");
/// b.end_element();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.string_value(doc.root()), "hello");
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    names: NameTable,
    /// Packed kind words ([`NodeKind::pack`]).
    kinds: Vec<u32>,
    parent: Vec<u32>,
    first_child: Vec<u32>,
    last_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
    subtree_end: Vec<u32>,
    /// Per-node content start offsets into `text_heap` (the final
    /// `len + 1`-th offset is pushed at `finish`).
    text_off: Vec<u32>,
    /// All content bytes, appended in pre-order.
    text_heap: String,
    /// `(id attribute node, owner element)` in document order; sorted and
    /// deduplicated (first occurrence wins) at `finish`.
    id_pairs: Vec<(u32, u32)>,
    /// Stack of open elements (indices into the arena); root at bottom.
    open: Vec<u32>,
    /// Name of the attribute that provides element ids (`id` by default).
    id_attribute: String,
    /// Whether a top-level element has been completed already.
    saw_document_element: bool,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Creates a builder holding just the document root node.
    pub fn new() -> Self {
        let mut b = DocumentBuilder {
            names: NameTable::new(),
            kinds: Vec::new(),
            parent: Vec::new(),
            first_child: Vec::new(),
            last_child: Vec::new(),
            next_sibling: Vec::new(),
            prev_sibling: Vec::new(),
            subtree_end: Vec::new(),
            text_off: Vec::new(),
            text_heap: String::new(),
            id_pairs: Vec::new(),
            open: Vec::new(),
            id_attribute: "id".to_string(),
            saw_document_element: false,
        };
        let root = b.push_node(NodeKind::Root, "", NONE);
        b.open.push(root);
        b
    }

    /// Pre-allocates arena capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut b = Self::new();
        b.kinds.reserve(n);
        b.parent.reserve(n);
        b.first_child.reserve(n);
        b.last_child.reserve(n);
        b.next_sibling.reserve(n);
        b.prev_sibling.reserve(n);
        b.subtree_end.reserve(n);
        b.text_off.reserve(n + 1);
        b
    }

    /// Uses `name` instead of `id` as the id-providing attribute.
    pub fn id_attribute(&mut self, name: &str) -> &mut Self {
        self.id_attribute = name.to_string();
        self
    }

    /// Raw node append; returns the arena index.  Links into the sibling
    /// chain of `parent` unless the node is an attribute.
    fn push_node(&mut self, kind: NodeKind, content: &str, parent: u32) -> u32 {
        let idx = u32::try_from(self.kinds.len()).expect("document larger than u32::MAX nodes");
        self.kinds.push(kind.pack());
        self.parent.push(parent);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.next_sibling.push(NONE);
        self.prev_sibling.push(NONE);
        self.subtree_end.push(idx + 1);
        self.text_off
            .push(u32::try_from(self.text_heap.len()).expect("text heap larger than u32::MAX"));
        self.text_heap.push_str(content);
        if parent != NONE && !kind.is_attribute() {
            let prev = self.last_child[parent as usize];
            if prev == NONE {
                self.first_child[parent as usize] = idx;
            } else {
                self.next_sibling[prev as usize] = idx;
                self.prev_sibling[idx as usize] = prev;
            }
            self.last_child[parent as usize] = idx;
        }
        idx
    }

    fn current_parent(&self) -> u32 {
        *self.open.last().expect("builder always has the root open")
    }

    /// Opens an element with the given attributes.
    pub fn start_element(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.start_element_from(name, attrs)
    }

    /// [`start_element`](Self::start_element) over any pair of string
    /// types, so the parser folds the tokenizer's owned attribute slots
    /// in without collecting them into borrowed pairs first.
    pub fn start_element_from<N, V>(&mut self, name: &str, attrs: &[(N, V)]) -> &mut Self
    where
        N: AsRef<str>,
        V: AsRef<str>,
    {
        let nm = self.names.intern(name);
        let parent = self.current_parent();
        let elem = self.push_node(NodeKind::Element(nm), "", parent);
        for (aname, avalue) in attrs {
            let aname = aname.as_ref();
            let an = self.names.intern(aname);
            let attr = self.push_node(NodeKind::Attribute(an), avalue.as_ref(), elem);
            if aname == self.id_attribute {
                self.id_pairs.push((attr, elem));
            }
        }
        self.open.push(elem);
        self
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open (programming error when building
    /// synthetically; the XML parser guards against it).
    pub fn end_element(&mut self) -> &mut Self {
        assert!(self.open.len() > 1, "end_element with no open element");
        let elem = self.open.pop().expect("checked non-empty");
        let end = u32::try_from(self.kinds.len()).expect("checked at push");
        self.subtree_end[elem as usize] = end;
        if self.open.len() == 1 {
            self.saw_document_element = true;
        }
        self
    }

    /// Appends a text node (empty text is dropped, matching the XPath data
    /// model in which empty text nodes do not exist).
    pub fn text(&mut self, content: &str) -> &mut Self {
        if !content.is_empty() {
            let parent = self.current_parent();
            self.push_node(NodeKind::Text, content, parent);
        }
        self
    }

    /// Appends a comment node.
    pub fn comment(&mut self, content: &str) -> &mut Self {
        let parent = self.current_parent();
        self.push_node(NodeKind::Comment, content, parent);
        self
    }

    /// Appends a processing-instruction node.
    pub fn processing_instruction(&mut self, target: &str, content: &str) -> &mut Self {
        let nm = self.names.intern(target);
        let parent = self.current_parent();
        self.push_node(NodeKind::Pi(nm), content, parent);
        self
    }

    /// Convenience: an element with a single text child.
    pub fn leaf(&mut self, name: &str, attrs: &[(&str, &str)], text: &str) -> &mut Self {
        self.start_element(name, attrs);
        self.text(text);
        self.end_element();
        self
    }

    /// How many nodes have been appended so far.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Finalizes the document.
    ///
    /// Fails if elements are still open or if there is no document element.
    pub fn finish(mut self) -> Result<Document, XmlError> {
        if self.open.len() > 1 {
            return Err(XmlError::new(
                XmlErrorKind::UnclosedElements(self.open.len() - 1),
                0,
                0,
                0,
            ));
        }
        if !self.saw_document_element {
            return Err(XmlError::new(XmlErrorKind::NoRootElement, 0, 0, 0));
        }
        let end = u32::try_from(self.kinds.len()).expect("checked at push");
        self.subtree_end[0] = end;
        self.text_off
            .push(u32::try_from(self.text_heap.len()).expect("checked at push"));

        // CSR label postings: a counting sweep, a prefix sum, and a
        // placement sweep.  No per-name allocation at all — in particular
        // none for names that label zero nodes of a family (attribute-only
        // names used to cost an empty element-postings `Vec` each).  The
        // arena is in pre-order, so each name's slice comes out sorted.
        let name_count = self.names.len();
        let (elem_off, elem_post) = csr_postings(&self.kinds, name_count, crate::node::TAG_ELEMENT);
        let (attr_off, attr_post) =
            csr_postings(&self.kinds, name_count, crate::node::TAG_ATTRIBUTE);

        // Id index: sort the (attribute, element) pairs by key bytes.  The
        // pairs are collected in document order, so a stable sort keeps
        // first occurrences first within equal keys and the dedup keeps
        // them (matching the old hash map's first-insert-wins rule).
        let heap = &self.text_heap;
        let text_off = &self.text_off;
        let key = |attr: u32| -> &str {
            &heap[text_off[attr as usize] as usize..text_off[attr as usize + 1] as usize]
        };
        self.id_pairs.sort_by(|a, b| key(a.0).cmp(key(b.0)));
        self.id_pairs
            .dedup_by(|next, first| key(next.0) == key(first.0));
        let (id_attrs, id_elems): (Vec<u32>, Vec<u32>) = self.id_pairs.iter().copied().unzip();

        let store = DocStore {
            kinds: Col::owned(self.kinds),
            parent: Col::owned(self.parent),
            first_child: Col::owned(self.first_child),
            last_child: Col::owned(self.last_child),
            next_sibling: Col::owned(self.next_sibling),
            prev_sibling: Col::owned(self.prev_sibling),
            subtree_end: Col::owned(self.subtree_end),
            text_off: Col::owned(self.text_off),
            text_heap: Col::owned(self.text_heap.into_bytes()),
            elem_off: Col::owned(elem_off),
            elem_post: Col::owned(elem_post),
            attr_off: Col::owned(attr_off),
            attr_post: Col::owned(attr_post),
            id_attrs: Col::owned(id_attrs),
            id_elems: Col::owned(id_elems),
        };
        documents_built_counter().inc();
        Ok(Document {
            names: self.names,
            store,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed) & STAMP_COUNTER_MASK,
        })
    }
}

/// Builds one CSR postings family for the nodes whose packed kind tag is
/// `tag`: `off` has `name_count + 1` entries and `posts[off[i]..off[i+1]]`
/// are the matching nodes named `i`, in document order.
fn csr_postings(kinds: &[u32], name_count: usize, tag: u32) -> (Vec<u32>, Vec<u32>) {
    use crate::node::{KIND_TAG_BITS, KIND_TAG_MASK};
    // Counting sweep (off[i + 1] accumulates name i's count).
    let mut off = vec![0u32; name_count + 1];
    for &word in kinds {
        if word & KIND_TAG_MASK == tag {
            off[(word >> KIND_TAG_BITS) as usize + 1] += 1;
        }
    }
    // Prefix sum: off[i] = start of name i's slice.
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    // Placement sweep with a per-name cursor.
    let mut cursor: Vec<u32> = off[..name_count].to_vec();
    let mut posts = vec![0u32; off[name_count] as usize];
    for (i, &word) in kinds.iter().enumerate() {
        if word & KIND_TAG_MASK == tag {
            let nm = (word >> KIND_TAG_BITS) as usize;
            posts[cursor[nm] as usize] = i as u32;
            cursor[nm] += 1;
        }
    }
    (off, posts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::node::NodeId;

    #[test]
    fn build_simple_tree() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[]);
        b.leaf("b", &[], "x");
        b.leaf("b", &[], "y");
        b.end_element();
        let doc = b.finish().unwrap();
        let a = doc.document_element();
        assert_eq!(doc.children(a).count(), 2);
        assert_eq!(doc.string_value(a), "xy");
    }

    #[test]
    fn subtree_end_is_correct() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[]); // idx 1
        b.start_element("b", &[]); // idx 2
        b.text("t"); // idx 3
        b.end_element();
        b.leaf("c", &[], ""); // idx 4
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.subtree_end(doc.root()), 5);
        let a = doc.document_element();
        assert_eq!(doc.subtree_end(a), 5);
        let bnode = doc.first_child(a).unwrap();
        assert_eq!(doc.subtree_end(bnode), 4);
    }

    #[test]
    fn unclosed_element_is_an_error() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[]);
        let err = b.finish().unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::UnclosedElements(1));
    }

    #[test]
    fn empty_document_is_an_error() {
        let b = DocumentBuilder::new();
        let err = b.finish().unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::NoRootElement);
    }

    #[test]
    fn empty_text_nodes_are_dropped() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[]);
        b.text("");
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.len(), 2); // root + a
    }

    #[test]
    fn id_index_prefers_first_occurrence() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[("id", "k")]);
        b.leaf("b", &[("id", "k")], "");
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.element_by_id("k"), Some(doc.document_element()));
    }

    #[test]
    fn custom_id_attribute() {
        let mut b = DocumentBuilder::new();
        b.id_attribute("key");
        b.start_element("a", &[("key", "z"), ("id", "ignored")]);
        b.end_element();
        let doc = b.finish().unwrap();
        assert_eq!(doc.element_by_id("z"), Some(doc.document_element()));
        assert_eq!(doc.element_by_id("ignored"), None);
    }

    #[test]
    fn comments_and_pis() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[]);
        b.comment("note");
        b.processing_instruction("target", "data");
        b.end_element();
        let doc = b.finish().unwrap();
        let a = doc.document_element();
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.content(kids[0]), "note");
        assert_eq!(doc.label_str(kids[1]), Some("target"));
        // Comments do not contribute to string value.
        assert_eq!(doc.string_value(a), "");
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[("x", "1")]);
        b.leaf("b", &[], "");
        b.leaf("a", &[("x", "2")], "");
        b.leaf("b", &[], "");
        b.end_element();
        let doc = b.finish().unwrap();
        let a_name = doc.find_name("a").unwrap();
        let b_name = doc.find_name("b").unwrap();
        let x_name = doc.find_name("x").unwrap();
        let a_posts = doc.element_postings(a_name);
        let b_posts = doc.element_postings(b_name);
        assert_eq!(a_posts.len(), 2);
        assert_eq!(b_posts.len(), 2);
        assert!(a_posts.windows(2).all(|w| w[0] < w[1]));
        for &n in a_posts {
            assert_eq!(doc.label(n), Some(a_name));
        }
        let x_posts = doc.attribute_postings(x_name);
        assert_eq!(x_posts.len(), 2);
        assert!(x_posts.iter().all(|&n| doc.kind(n).is_attribute()));
        // Attribute names have no element postings and vice versa.
        assert!(doc.element_postings(x_name).is_empty());
        assert!(doc.attribute_postings(b_name).is_empty());
    }

    #[test]
    fn stamps_are_unique_but_shared_by_clones() {
        let mut b = DocumentBuilder::new();
        b.leaf("a", &[], "");
        let d1 = b.finish().unwrap();
        let mut b = DocumentBuilder::new();
        b.leaf("a", &[], "");
        let d2 = b.finish().unwrap();
        assert_ne!(d1.stamp(), d2.stamp());
        assert_eq!(d1.stamp(), d1.clone().stamp());
        // Builder stamps live in the counter namespace (high bit clear);
        // the snapshot namespace (high bit set) can never collide.
        assert_eq!(d1.stamp() >> 63, 0);
    }

    #[test]
    fn attributes_do_not_enter_sibling_chain() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[("x", "1")]);
        b.leaf("b", &[], "");
        b.end_element();
        let doc = b.finish().unwrap();
        let a = doc.document_element();
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.label_str(kids[0]), Some("b"));
        // But the attribute is in the subtree range right after the element.
        let attr = NodeId::from_index(a.index() + 1);
        assert!(doc.kind(attr).is_attribute());
        assert_eq!(doc.parent(attr), Some(a));
    }

    #[test]
    fn text_heap_spans_match_contents() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", &[("k", "vv")]);
        b.text("first");
        b.comment("note");
        b.leaf("b", &[], "second");
        b.end_element();
        let doc = b.finish().unwrap();
        // Per-node spans reconstruct every content string; elements and
        // the root have empty spans.
        let contents: Vec<&str> = doc.all_nodes().map(|n| doc.content(n)).collect();
        assert_eq!(contents, vec!["", "", "vv", "first", "note", "", "second"]);
        assert_eq!(
            doc.text_bytes(),
            "vv".len() + "first".len() + "note".len() + "second".len()
        );
    }
}
