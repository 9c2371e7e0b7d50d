//! The arena-based XML document: the paper's `dom`.
//!
//! A [`Document`] stores all nodes in a struct-of-arrays arena in *pre-order*
//! (document order).  [`NodeId`] is the pre-order index, so:
//!
//! * `<doc` (document order, Section 2.1) is `NodeId` comparison,
//! * the subtree of `x` is the contiguous range
//!   `x.index()+1 .. subtree_end(x)`,
//! * per-node tables elsewhere in the engine are dense arrays.
//!
//! The arena is stored as flat, offset-based columns (see
//! [`store`](crate::store)): packed kind words, structure links, one text
//! heap with per-node spans, CSR label postings, and a sorted id index.
//! Columns are either owned heap buffers (built by
//! [`DocumentBuilder`](crate::DocumentBuilder)) or zero-copy views of a
//! memory-mapped snapshot (`minctx-index`); every accessor below works
//! identically on both backings.
//!
//! Attribute nodes (an extension over the paper's element-only examples) are
//! stored inline immediately after their owner element and before its first
//! child, which is exactly their XPath 1.0 document-order position.  They are
//! excluded from all tree axes and reachable only via the `attribute` axis.

use crate::name::{Name, NameTable};
use crate::node::{self, NodeId, NodeKind};
use crate::nodeset::NodeSet;
use crate::store::{ColumnError, DocStore, RawColumns, StableBytes};
use crate::sweep::ColumnSweep;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) const NONE: u32 = u32::MAX;

/// An in-memory XML document; the node domain `dom` of the paper.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) names: NameTable,
    pub(crate) store: DocStore,
    /// Process-unique identity of this document's *content* (clones share
    /// it), used as a compiled-query cache key.  Snapshot-backed documents
    /// carry a content-derived stamp with the high bit set, disjoint from
    /// the builder's counter stamps (see `minctx-index`).
    pub(crate) stamp: u64,
}

// The concurrent-serving Send/Sync audit (DESIGN.md "Concurrent
// service"): one `Document` is shared immutably across worker threads,
// so the whole storage stack must be thread-safe — the name table is
// append-frozen Vec/HashMap (its debug lookup counter is atomic), the
// columns carry their own `unsafe impl`s justified in `store.rs`, and
// node sets are plain sorted vectors.  Compile-time checks so a future
// `Rc`/`RefCell`/`Cell` slipping in fails here, not in a consumer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Document>();
    assert_send_sync::<NameTable>();
    assert_send_sync::<NodeSet>();
    assert_send_sync::<crate::axes::Scratch>();
};

impl Document {
    /// Number of nodes in `dom` (including the root node and any attribute
    /// nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the document is empty.  A well-formed document never is: it
    /// has at least the root node and the document element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The paper's `|D|`: node count plus character data size.
    pub fn size(&self) -> usize {
        self.len() + self.text_bytes()
    }

    /// Total size of the character data (the text heap), counted into
    /// `|D|`.
    #[inline]
    pub fn text_bytes(&self) -> usize {
        self.store.text_heap.len()
    }

    /// The document root node (the XPath `/` node).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// The document element (the unique element child of the root).
    pub fn document_element(&self) -> NodeId {
        self.children(self.root())
            .find(|&c| self.kind(c).is_element())
            .expect("well-formed document has a document element")
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        NodeKind::unpack(self.store.kinds[n.index()])
    }

    /// The interned label of an element / PI target / attribute name.
    #[inline]
    pub fn label(&self, n: NodeId) -> Option<Name> {
        self.kind(n).name()
    }

    /// The label of a node as a string, if it has one.
    pub fn label_str(&self, n: NodeId) -> Option<&str> {
        self.label(n).map(|nm| self.names.resolve(nm))
    }

    /// The name table (Σ).
    #[inline]
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Interns a name into this document's table (used when compiling
    /// queries so node tests become integer comparisons).
    pub fn intern(&mut self, s: &str) -> Name {
        self.names.intern(s)
    }

    /// Looks a name up without interning.
    pub fn find_name(&self, s: &str) -> Option<Name> {
        self.names.get(s)
    }

    /// The element nodes labeled `name`, sorted in document order.
    ///
    /// Names interned after the document was built (e.g. while compiling a
    /// query whose tests do not occur in the document) have no postings
    /// and yield the empty slice.
    #[inline]
    pub fn element_postings(&self, name: Name) -> &[NodeId] {
        DocStore::postings(&self.store.elem_off, &self.store.elem_post, name.index())
    }

    /// The attribute nodes named `name`, sorted in document order.
    #[inline]
    pub fn attribute_postings(&self, name: Name) -> &[NodeId] {
        DocStore::postings(&self.store.attr_off, &self.store.attr_post, name.index())
    }

    /// A process-unique identity for this document's content.  Clones keep
    /// the stamp (their arenas are identical); any two documents built
    /// independently get distinct stamps, and snapshot-backed documents
    /// carry their snapshot's content-derived stamp (stable across
    /// reopens).  Compiled-query caches key on it.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The parent of a node; `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.store.parent[n.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// First non-attribute child.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        let c = self.store.first_child[n.index()];
        (c != NONE).then_some(NodeId(c))
    }

    /// Last non-attribute child.
    #[inline]
    pub fn last_child(&self, n: NodeId) -> Option<NodeId> {
        let c = self.store.last_child[n.index()];
        (c != NONE).then_some(NodeId(c))
    }

    /// Next sibling (attribute nodes are not part of sibling chains).
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let s = self.store.next_sibling[n.index()];
        (s != NONE).then_some(NodeId(s))
    }

    /// Previous sibling.
    #[inline]
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        let s = self.store.prev_sibling[n.index()];
        (s != NONE).then_some(NodeId(s))
    }

    /// One past the pre-order index of the last descendant of `n`
    /// (attribute nodes included in the range).
    #[inline]
    pub fn subtree_end(&self, n: NodeId) -> usize {
        self.store.subtree_end[n.index()] as usize
    }

    /// Whether `a` is a proper ancestor of `d` — O(1).
    #[inline]
    pub fn is_ancestor_of(&self, a: NodeId, d: NodeId) -> bool {
        a < d && d.index() < self.subtree_end(a)
    }

    /// Content of a text / comment / PI / attribute node (empty for
    /// elements and the root).
    #[inline]
    pub fn content(&self, n: NodeId) -> &str {
        self.store.content_span(n.index())
    }

    /// The raw parent column (axis-kernel hot loops hoist this once per
    /// sweep instead of re-deref'ing per node).
    #[inline]
    pub(crate) fn parent_raw(&self) -> &[u32] {
        &self.store.parent
    }

    /// The raw packed-kind column (see [`NodeKind::pack`]).
    #[inline]
    pub(crate) fn kinds_raw(&self) -> &[u32] {
        &self.store.kinds
    }

    /// The raw `first_child` / `next_sibling` / `prev_sibling` columns the
    /// set kernels walk (`NONE`-terminated; attribute nodes are in none of
    /// the chains).
    #[inline]
    pub(crate) fn child_links_raw(&self) -> (&[u32], &[u32], &[u32]) {
        let s = &self.store;
        (&s.first_child, &s.next_sibling, &s.prev_sibling)
    }

    /// Iterates the non-attribute children of `n` in document order.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.store.first_child[n.index()],
        }
    }

    /// Iterates the attribute nodes of `n` in document order.
    ///
    /// Attributes are stored contiguously right after their element.
    pub fn attributes(&self, n: NodeId) -> Attributes<'_> {
        let start = if self.kind(n).is_element() {
            n.index() + 1
        } else {
            // Non-elements have no attributes; empty range.
            self.len()
        };
        Attributes {
            doc: self,
            next: start,
        }
    }

    /// The value of the attribute named `name` on element `n`.
    pub fn attribute_value(&self, n: NodeId, name: &str) -> Option<&str> {
        let nm = self.names.get(name)?;
        self.attributes(n)
            .find_map(|a| (self.label(a) == Some(nm)).then(|| self.content(a)))
    }

    /// Iterates every node in document order (pre-order), attributes
    /// included.
    pub fn all_nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }

    /// Iterates the proper descendants of `n` in document order, attribute
    /// nodes excluded.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (n.index() + 1..self.subtree_end(n))
            .map(NodeId::from_index)
            .filter(move |&d| !self.kind(d).is_attribute())
    }

    /// `strval : dom → string` (Section 2.1): for elements and the root,
    /// the concatenation of all descendant text nodes; for other nodes,
    /// their own content.
    pub fn string_value(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.string_value_into(n, &mut out);
        out
    }

    /// Appends the string value of `n` to `out` without allocating a fresh
    /// `String` (hot path for comparisons over many nodes).
    pub fn string_value_into(&self, n: NodeId, out: &mut String) {
        match self.kind(n) {
            NodeKind::Root | NodeKind::Element(_) => {
                let range = n.index() + 1..self.subtree_end(n);
                for (d, &word) in self.kinds_raw()[range.clone()].iter().enumerate() {
                    if word & node::KIND_TAG_MASK == node::TAG_TEXT {
                        out.push_str(self.store.content_span(range.start + d));
                    }
                }
            }
            _ => out.push_str(self.content(n)),
        }
    }

    /// The sorted id-index entries `(key, element)` — the keys are the id
    /// attributes' content spans in the text heap.
    pub(crate) fn id_entries(&self) -> impl ExactSizeIterator<Item = (&str, NodeId)> {
        self.store
            .id_attrs
            .iter()
            .zip(self.store.id_elems.iter())
            .map(|(&a, &e)| (self.store.content_span(a as usize), NodeId(e)))
    }

    /// Binary-searches the id index (sorted by key bytes).
    fn id_entry(&self, key: &str) -> Option<usize> {
        self.store
            .id_attrs
            .binary_search_by(|&a| {
                self.store
                    .content_span(a as usize)
                    .as_bytes()
                    .cmp(key.as_bytes())
            })
            .ok()
    }

    /// `deref_ids : string → 2^dom` (Section 2.1): interprets the input as a
    /// whitespace-separated list of keys and returns the set of elements
    /// whose `id` attribute matches one of them.
    pub fn deref_ids(&self, s: &str) -> NodeSet {
        let mut out = Vec::new();
        for token in s.split_ascii_whitespace() {
            if let Some(i) = self.id_entry(token) {
                out.push(NodeId(self.store.id_elems[i]));
            }
        }
        NodeSet::from_unsorted(out)
    }

    /// Looks up a single element by its `id` attribute value.
    pub fn element_by_id(&self, id: &str) -> Option<NodeId> {
        self.id_entry(id).map(|i| NodeId(self.store.id_elems[i]))
    }

    /// The inverse of the `id` step: `{x ∈ dom | deref_ids(strval(x)) ∩ Y ≠ ∅}`,
    /// computed in `O(|D|)` as required by Section 4 (backward propagation
    /// over the id-"axis").
    ///
    /// For elements and the root the string value is the concatenation of
    /// descendant text; a text node containing a matching token therefore
    /// contributes every ancestor.  Attribute / comment / PI nodes match on
    /// their own content.  (Tokens spanning adjacent text-node boundaries
    /// are tokenized per text node; see DESIGN.md.)
    pub fn id_preimage(&self, targets: &NodeSet) -> NodeSet {
        // Which id strings resolve into `targets`?
        let mut wanted: HashMap<&str, ()> = HashMap::new();
        for (key, node) in self.id_entries() {
            if targets.contains(node) {
                wanted.insert(key, ());
            }
        }
        if wanted.is_empty() {
            return NodeSet::new();
        }
        let parent = self.parent_raw();
        let mut hit = vec![false; self.len()];
        for n in 0..self.len() {
            if self.store.content_is_empty(n) {
                continue;
            }
            let matches = self
                .store
                .content_span(n)
                .split_ascii_whitespace()
                .any(|tok| wanted.contains_key(tok));
            if !matches {
                continue;
            }
            match self.kind(NodeId::from_index(n)) {
                NodeKind::Text => {
                    // Contributes to the strval of every ancestor.
                    hit[n] = true;
                    let mut p = parent[n];
                    while p != NONE && !hit[p as usize] {
                        hit[p as usize] = true;
                        p = parent[p as usize];
                    }
                }
                NodeKind::Attribute(_) | NodeKind::Comment | NodeKind::Pi(_) => {
                    hit[n] = true;
                }
                _ => {}
            }
        }
        // Text nodes themselves do have string values containing the token,
        // so they are legitimately in the preimage, as are their ancestors.
        NodeSet::from_sorted_vec(
            hit.iter()
                .enumerate()
                .filter(|&(_, &h)| h)
                .map(|(i, _)| NodeId::from_index(i))
                .collect(),
        )
    }

    /// Number of element nodes (the paper's `dom` in its examples).
    pub fn element_count(&self) -> usize {
        // The element postings index every element exactly once.
        self.store.elem_post.len()
    }

    /// Borrowed views of every storage column — the exchange surface the
    /// `minctx-index` snapshot writer serializes.  See
    /// [`RawColumns`] for the per-column layout contract.
    pub fn raw_columns(&self) -> RawColumns<'_> {
        let s = &self.store;
        RawColumns {
            kinds: &s.kinds,
            parent: &s.parent,
            first_child: &s.first_child,
            last_child: &s.last_child,
            next_sibling: &s.next_sibling,
            prev_sibling: &s.prev_sibling,
            subtree_end: &s.subtree_end,
            text_off: &s.text_off,
            text_heap: &s.text_heap,
            elem_off: &s.elem_off,
            elem_post: &s.elem_post,
            attr_off: &s.attr_off,
            attr_post: &s.attr_post,
            id_attrs: &s.id_attrs,
            id_elems: &s.id_elems,
        }
    }

    /// Adopts columns borrowed from a mapped byte region (`keep` must own
    /// the memory all slices point into) — the zero-copy open path of
    /// `minctx-index`.
    ///
    /// Every document invariant the accessors rely on is validated here,
    /// in `O(|D|)`, so a column set that decodes structurally but
    /// violates the data model (dangling links, non-monotone offsets,
    /// invalid UTF-8, unsorted postings) is rejected with a
    /// [`ColumnError`] instead of panicking later.  This is one whole
    /// [`ColumnSweep`]; a caller that reads the backing bytes itself can
    /// drive the sweep alongside its own pass instead.
    pub fn from_mapped_columns(
        cols: RawColumns<'_>,
        names: NameTable,
        stamp: u64,
        keep: Arc<dyn StableBytes>,
    ) -> Result<Document, ColumnError> {
        ColumnSweep::new(cols, names.len()).finish(names, stamp, keep)
    }

    /// A debug rendering of the tree structure, one node per line.
    pub fn debug_tree(&self) -> String {
        let mut out = String::new();
        let mut depth = vec![0usize; self.len()];
        for n in self.all_nodes() {
            let i = n.index();
            if let Some(p) = self.parent(n) {
                depth[i] = depth[p.index()] + 1;
            }
            for _ in 0..depth[i] {
                out.push_str("  ");
            }
            match self.kind(n) {
                NodeKind::Root => out.push_str("#root"),
                NodeKind::Element(nm) => {
                    out.push('<');
                    out.push_str(self.names.resolve(nm));
                    out.push('>');
                }
                NodeKind::Text => {
                    out.push_str(&format!("#text {:?}", self.content(n)));
                }
                NodeKind::Comment => {
                    out.push_str(&format!("#comment {:?}", self.content(n)));
                }
                NodeKind::Pi(nm) => {
                    out.push_str(&format!(
                        "#pi {} {:?}",
                        self.names.resolve(nm),
                        self.content(n)
                    ));
                }
                NodeKind::Attribute(nm) => {
                    out.push_str(&format!(
                        "@{}={:?}",
                        self.names.resolve(nm),
                        self.content(n)
                    ));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Iterator over the non-attribute children of a node.
pub struct Children<'d> {
    doc: &'d Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let cur = NodeId(self.next);
        self.next = self.doc.store.next_sibling[cur.index()];
        Some(cur)
    }
}

/// Iterator over the attribute nodes of an element.
pub struct Attributes<'d> {
    doc: &'d Document,
    next: usize,
}

impl Iterator for Attributes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next >= self.doc.len() {
            return None;
        }
        let n = NodeId::from_index(self.next);
        if self.doc.kind(n).is_attribute() {
            self.next += 1;
            Some(n)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;
    use crate::NodeKind;

    #[test]
    fn structure_of_small_document() {
        let doc = parse("<a><b/><c>hi</c></a>").unwrap();
        let root = doc.root();
        assert_eq!(doc.kind(root), NodeKind::Root);
        let a = doc.document_element();
        assert_eq!(doc.label_str(a), Some("a"));
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.label_str(kids[0]), Some("b"));
        assert_eq!(doc.label_str(kids[1]), Some("c"));
        assert_eq!(doc.parent(kids[0]), Some(a));
        assert_eq!(doc.next_sibling(kids[0]), Some(kids[1]));
        assert_eq!(doc.prev_sibling(kids[1]), Some(kids[0]));
        assert_eq!(doc.prev_sibling(kids[0]), None);
        assert_eq!(doc.first_child(a), Some(kids[0]));
        assert_eq!(doc.last_child(a), Some(kids[1]));
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let doc = parse("<a>x<b>y</b>z</a>").unwrap();
        let a = doc.document_element();
        assert_eq!(doc.string_value(a), "xyz");
        assert_eq!(doc.string_value(doc.root()), "xyz");
        let b = doc.children(a).nth(1).unwrap();
        assert_eq!(doc.string_value(b), "y");
    }

    #[test]
    fn attribute_values() {
        let doc = parse(r#"<a id="1" lang="en"><b id="2"/></a>"#).unwrap();
        let a = doc.document_element();
        assert_eq!(doc.attribute_value(a, "id"), Some("1"));
        assert_eq!(doc.attribute_value(a, "lang"), Some("en"));
        assert_eq!(doc.attribute_value(a, "missing"), None);
        let attrs: Vec<_> = doc.attributes(a).collect();
        assert_eq!(attrs.len(), 2);
        assert!(doc.kind(attrs[0]).is_attribute());
        assert_eq!(doc.string_value(attrs[0]), "1");
    }

    #[test]
    fn deref_ids_resolves_whitespace_separated_keys() {
        let doc = parse(r#"<a id="10"><b id="11"/><c id="12"/></a>"#).unwrap();
        let set = doc.deref_ids("12  10 nonexistent");
        assert_eq!(set.len(), 2);
        let a = doc.document_element();
        assert!(set.contains(a));
        assert_eq!(
            doc.element_by_id("11").map(|n| doc.label_str(n)),
            Some(Some("b"))
        );
    }

    #[test]
    fn id_preimage_via_text() {
        // <a id="10"><b id="11">10</b><c id="12">99</c></a>
        // strval(b) = "10" references a; so b, a (ancestor incl. of the text),
        // the root, and the text node itself are in the preimage of {a}.
        let doc = parse(r#"<a id="10"><b id="11">10</b><c id="12">99</c></a>"#).unwrap();
        let a = doc.document_element();
        let targets = crate::NodeSet::from_unsorted(vec![a]);
        let pre = doc.id_preimage(&targets);
        let b = doc.children(a).next().unwrap();
        assert!(pre.contains(b));
        assert!(pre.contains(a)); // strval(a) = "1099" .. careful!
    }

    #[test]
    fn id_preimage_tokenizes_per_text_node() {
        // strval(a) = "10" from a single text node inside b.
        let doc = parse(r#"<a id="7"><b>7</b></a>"#).unwrap();
        let a = doc.document_element();
        let targets = crate::NodeSet::from_unsorted(vec![a]);
        let pre = doc.id_preimage(&targets);
        assert!(pre.contains(a));
        assert!(pre.contains(doc.root()));
    }

    #[test]
    fn is_ancestor_and_subtree_ranges() {
        let doc = parse("<a><b><c/></b><d/></a>").unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        let d = doc.last_child(a).unwrap();
        assert!(doc.is_ancestor_of(a, c));
        assert!(doc.is_ancestor_of(b, c));
        assert!(!doc.is_ancestor_of(c, b));
        assert!(!doc.is_ancestor_of(b, d));
        assert!(!doc.is_ancestor_of(b, b));
        assert!(doc.is_ancestor_of(doc.root(), a));
    }

    #[test]
    fn descendants_exclude_attributes() {
        let doc = parse(r#"<a x="1"><b y="2">t</b></a>"#).unwrap();
        let a = doc.document_element();
        let ds: Vec<_> = doc.descendants(a).collect();
        // b and the text node; not the attribute nodes.
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|&d| !doc.kind(d).is_attribute()));
    }

    #[test]
    fn size_counts_nodes_and_text() {
        let doc = parse("<a>hello</a>").unwrap();
        // root + a + text = 3 nodes, 5 bytes of text.
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.size(), 8);
        assert_eq!(doc.element_count(), 1);
    }

    #[test]
    fn debug_tree_renders() {
        let doc = parse(r#"<a id="1"><b/>txt</a>"#).unwrap();
        let t = doc.debug_tree();
        assert!(t.contains("#root"));
        assert!(t.contains("<a>"));
        assert!(t.contains("@id=\"1\""));
        assert!(t.contains("#text \"txt\""));
    }
}
