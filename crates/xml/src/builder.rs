//! Programmatic document construction.
//!
//! [`DocumentBuilder`] receives SAX-style events (`start_element`, `text`,
//! `end_element`, …) and assembles the pre-order arena of a [`Document`].
//! Both the XML parser and the synthetic workload generators build documents
//! through this one code path, so every invariant (pre-order ids, parent
//! links, subtree ranges, id index, text-heap spans, CSR postings) is
//! enforced in a single place.  Child and sibling links are not built: the
//! document derives them from the subtree ranges.

use crate::document::{Document, NONE};
use crate::error::{XmlError, XmlErrorKind};
use crate::name::{Name, NameTable};
use crate::node::NodeKind;
use crate::store::{Col, DocStore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Document::stamp`] values; see [`Document::stamp`].
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// The `xml/documents_built` counter in the process-wide metrics
/// registry, resolved once.  Stamps still come from [`NEXT_STAMP`] (the
/// registry cell must not double as the stamp source — stamps demand
/// uniqueness, metrics only monotonicity).  In `crates/bench/tests/`,
/// `stream_alloc.rs` asserts the counter is unchanged across
/// `evaluate_reader` on streamable queries — direct proof that the
/// one-pass path never materializes an arena — and `open_alloc.rs` and
/// `serve_alloc.rs` assert the same across `open_snapshot` and a warm
/// serving pool (reopening a snapshot never re-builds, just as it never
/// re-lexes).
fn documents_built_counter() -> &'static minctx_obs::Counter {
    static C: std::sync::OnceLock<minctx_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("xml/documents_built"))
}

/// Builder stamps are plain counter values with the high bit clear;
/// snapshot-backed documents use content-derived stamps with the high bit
/// set (`snapshot.rs`), so the two namespaces can never collide in a
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
    /// Two-way set-associative cache in front of `names`; see
    /// [`Self::intern`].
    name_cache: [[CachedName; 2]; NAME_CACHE],
    /// How many names the cache passed on to `names`.
    #[cfg(test)]
    table_asks: usize,
    /// `[element, attribute]` nodes counted per name as they are pushed:
    /// the postings' offsets without a counting sweep at `finish`.
    counts: Vec<[u32; 2]>,
    /// Packed kind words ([`NodeKind::pack`]).
    kinds: Vec<u32>,
    parent: Vec<u32>,
    /// `idx + 1` when pushed; an element's is set when it closes.
    subtree_end: Vec<u32>,
    /// Per-node content start offsets into `text_heap` (the final
    /// `len + 1`-th offset is pushed at `finish`).
    text_off: Vec<u32>,
    /// All content bytes, appended in pre-order.
    text_heap: String,
    /// Stack of open elements (indices into the arena); root at bottom.
    open: Vec<u32>,
    /// Whether a top-level element has been completed already.
    saw_document_element: bool,
}

/// Sets of [`DocumentBuilder`]'s name cache.
const NAME_CACHE: usize = 64;

/// A name cache slot: one of the last two names whose length and
/// [`name_key`] led to its set.
#[derive(Debug, Clone, Copy)]
struct CachedName {
    len: usize,
    key: u64,
    name: Name,
}

/// Matches no name (no name is `usize::MAX` bytes long).
const EMPTY_SLOT: CachedName = CachedName {
    len: usize::MAX,
    key: 0,
    name: Name(0),
};

/// A name's first eight bytes as one word.  Names shorter than eight bytes
/// are read as two overlapping halves (or three single bytes below four),
/// so that together with the length the word still determines every byte
/// of the name — without a loop whose exit depends on the length.
#[inline]
fn name_key(b: &[u8]) -> u64 {
    let n = b.len();
    let word = |i: usize| u64::from(u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]));
    if n >= 8 {
        word(0) | word(4) << 32
    } else if n >= 4 {
        word(0) | word(n - 4) << 32
    } else if n > 0 {
        u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16
    } else {
        0
    }
}

/// The name cache set of a name with this [`name_key`] and length.
#[inline]
fn cache_set(key: u64, len: usize) -> usize {
    let mix = (key ^ len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mix >> (64 - NAME_CACHE.trailing_zeros())) as usize
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
            name_cache: [[EMPTY_SLOT; 2]; NAME_CACHE],
            #[cfg(test)]
            table_asks: 0,
            counts: Vec::new(),
            kinds: Vec::new(),
            parent: Vec::new(),
            subtree_end: Vec::new(),
            text_off: Vec::new(),
            text_heap: String::new(),
            open: Vec::new(),
            saw_document_element: false,
        };
        let root = b.push_node(NodeKind::Root, NONE);
        b.open.push(root);
        b
    }

    /// Pre-allocates arena capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut b = Self::new();
        b.kinds.reserve(n);
        b.parent.reserve(n);
        b.subtree_end.reserve(n);
        b.text_off.reserve(n + 1);
        b
    }

    /// A builder sized for `len` bytes of XML text: a node per 8 bytes and
    /// a quarter of them as content, which the workload-shaped text (2.96
    /// MB: 266 k nodes, 0.55 MB of content) fills without a regrowth.
    /// [`finish`](Self::finish) shrinks every column to its length.
    pub(crate) fn for_text(len: usize) -> Self {
        let mut b = Self::with_capacity(len / 8);
        b.text_heap.reserve(len / 4);
        b
    }

    /// Raw node append with no content; returns the arena index.  Writes
    /// no earlier node's slot.
    #[inline]
    fn push_node(&mut self, kind: NodeKind, parent: u32) -> u32 {
        let idx = u32::try_from(self.kinds.len()).expect("document larger than u32::MAX nodes");
        let off = u32::try_from(self.text_heap.len()).expect("text heap larger than u32::MAX");
        self.kinds.push(kind.pack());
        self.parent.push(parent);
        self.subtree_end.push(idx + 1);
        self.text_off.push(off);
        idx
    }

    /// [`push_node`](Self::push_node) for a node with content.
    #[inline]
    fn push_leaf(&mut self, kind: NodeKind, content: &str, parent: u32) {
        self.push_node(kind, parent);
        self.text_heap.push_str(content);
    }

    /// [`NameTable::intern`] behind a two-way set-associative cache of 64
    /// sets, indexed by the name's length and first eight bytes.  A hit is
    /// confirmed against the name's bytes: by the slot's length and key
    /// alone for names of at most eight bytes (they determine every
    /// byte), by the table's copy for longer ones.  A miss asks the table,
    /// which stays the only authority: names get the numbers it alone
    /// would give them, in first-occurrence order.  The set keeps the last
    /// two names that led to it, so two names sharing a set — `keyword`
    /// and `person` do — alternate without asking the table again.
    #[inline]
    fn intern(&mut self, s: &str) -> Name {
        let key = name_key(s.as_bytes());
        let set = &mut self.name_cache[cache_set(key, s.len())];
        let names = &self.names;
        let hit = |c: &CachedName| {
            c.len == s.len() && c.key == key && (s.len() <= 8 || names.resolve(c.name) == s)
        };
        if let Some(c) = set.iter().find(|c| hit(c)) {
            return c.name;
        }
        #[cfg(test)]
        {
            self.table_asks += 1;
        }
        let name = self.names.intern(s);
        set[1] = set[0];
        set[0] = CachedName {
            len: s.len(),
            key,
            name,
        };
        self.counts.resize(self.names.len(), [0, 0]);
        name
    }

    fn current_parent(&self) -> u32 {
        *self.open.last().expect("builder always has the root open")
    }

    /// Opens an element with the given attributes.
    pub fn start_element(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.start_element_from(name, attrs.iter().copied())
    }

    /// [`start_element`](Self::start_element) over any run of `(name,
    /// value)` pairs, so the parser folds the tokenizer's
    /// [`Attrs`](crate::token::Attrs) in without collecting them first.
    pub fn start_element_from<'s>(
        &mut self,
        name: &str,
        attrs: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> &mut Self {
        let nm = self.intern(name);
        self.counts[nm.index()][0] += 1;
        let parent = self.current_parent();
        let elem = self.push_node(NodeKind::Element(nm), parent);
        for (aname, avalue) in attrs {
            let an = self.intern(aname);
            self.counts[an.index()][1] += 1;
            self.push_leaf(NodeKind::Attribute(an), avalue, elem);
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
            self.push_leaf(NodeKind::Text, content, parent);
        }
        self
    }

    /// Appends a comment node.
    pub fn comment(&mut self, content: &str) -> &mut Self {
        let parent = self.current_parent();
        self.push_leaf(NodeKind::Comment, content, parent);
        self
    }

    /// Appends a processing-instruction node.
    pub fn processing_instruction(&mut self, target: &str, content: &str) -> &mut Self {
        let nm = self.intern(target);
        let parent = self.current_parent();
        self.push_leaf(NodeKind::Pi(nm), content, parent);
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
        // The arena is complete: give back what the reservation overshot
        // before the postings are allocated beside it.
        self.kinds.shrink_to_fit();
        self.parent.shrink_to_fit();
        self.subtree_end.shrink_to_fit();
        self.text_off.shrink_to_fit();
        self.text_heap.shrink_to_fit();
        let (elem_off, elem_post, attr_off, attr_post) = place_postings(&self.kinds, &self.counts);

        // Id index: the `id` attribute's postings sorted by key bytes, each
        // with its owner element.  Postings are in document order, so a
        // stable sort keeps first occurrences first within equal keys and
        // the dedup keeps them (matching the old hash map's
        // first-insert-wins rule).
        let heap = self.text_heap.as_bytes();
        let text_off = &self.text_off;
        let key = |attr: u32| {
            &heap[text_off[attr as usize] as usize..text_off[attr as usize + 1] as usize]
        };
        let mut id_attrs = match self.names.get("id") {
            Some(id) => {
                attr_post[attr_off[id.index()] as usize..attr_off[id.index() + 1] as usize].to_vec()
            }
            None => Vec::new(),
        };
        id_attrs.sort_by(|&a, &b| key(a).cmp(key(b)));
        id_attrs.dedup_by(|next, first| key(*next) == key(*first));
        id_attrs.shrink_to_fit();
        let id_elems: Vec<u32> = id_attrs.iter().map(|&a| self.parent[a as usize]).collect();

        let store = DocStore {
            kinds: Col::owned(self.kinds),
            parent: Col::owned(self.parent),
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

/// The CSR label postings of both families from the per-name `[element,
/// attribute]` counts: `off` has `counts.len() + 1` entries and
/// `post[off[i]..off[i + 1]]` are the nodes named `i`, in document order
/// (the arena is in pre-order, so each slice comes out sorted).
///
/// One sweep over `kinds` places every node.  Its kind tag picks a family
/// through [`FAMILY`], and the family a cursor and an output array through
/// small tables rather than a branch: the tags of an attributed document
/// interleave too irregularly to predict.  Nodes of neither family write to
/// a one-slot dummy whose cursor never moves.
fn place_postings(kinds: &[u32], counts: &[[u32; 2]]) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    use crate::node::{KIND_TAG_BITS, KIND_TAG_MASK};
    let n = counts.len();
    let mut elem_off = Vec::with_capacity(n + 1);
    let mut attr_off = Vec::with_capacity(n + 1);
    let (mut e, mut a) = (0u32, 0u32);
    for &[ec, ac] in counts {
        elem_off.push(e);
        attr_off.push(a);
        e += ec;
        a += ac;
    }
    elem_off.push(e);
    attr_off.push(a);
    // Cursors: element names, then attribute names, then the dummy's.
    let mut cursor: Vec<u32> = elem_off[..n]
        .iter()
        .chain(&attr_off[..n])
        .copied()
        .collect();
    cursor.push(0);
    let base = [0, n, 2 * n];
    let name_mask = [u32::MAX, u32::MAX, 0];
    let step = [1, 1, 0];
    let mut elem_post = vec![0u32; e as usize];
    let mut attr_post = vec![0u32; a as usize];
    let mut dummy = [0u32; 1];
    let out: [&mut [u32]; 3] = [&mut elem_post, &mut attr_post, &mut dummy];
    for (i, &word) in kinds.iter().enumerate() {
        let f = FAMILY[(word & KIND_TAG_MASK) as usize];
        let c = base[f] + ((word >> KIND_TAG_BITS) & name_mask[f]) as usize;
        out[f][cursor[c] as usize] = i as u32;
        cursor[c] += step[f];
    }
    debug_assert!(cursor[..n] == elem_off[1..] && cursor[n..2 * n] == attr_off[1..]);
    (elem_off, elem_post, attr_off, attr_post)
}

/// Postings family of each kind tag: 0 element, 1 attribute, 2 neither
/// (the unused tags 6 and 7 included).
const FAMILY: [usize; 8] = {
    use crate::node::{TAG_ATTRIBUTE, TAG_ELEMENT};
    let mut f = [2; 8];
    f[TAG_ELEMENT as usize] = 0;
    f[TAG_ATTRIBUTE as usize] = 1;
    f
};

/// The two counting-and-placing sweeps per family that
/// [`place_postings`] replaced, kept verbatim as its test oracle.
#[cfg(test)]
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
    use crate::testgen::generated;

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

    /// The id index as the builder used to make it: `(attribute, owner)`
    /// pairs collected in document order, stably sorted by key, first
    /// occurrence kept.
    fn id_index_oracle(doc: &Document, id: &str) -> (Vec<u32>, Vec<u32>) {
        let mut pairs: Vec<(u32, u32)> = doc
            .all_nodes()
            .filter(|&n| doc.kind(n).is_attribute() && doc.label_str(n) == Some(id))
            .map(|n| (n.0, doc.parent(n).unwrap().0))
            .collect();
        pairs.sort_by(|a, b| doc.content(NodeId(a.0)).cmp(doc.content(NodeId(b.0))));
        pairs.dedup_by(|next, first| doc.content(NodeId(next.0)) == doc.content(NodeId(first.0)));
        pairs.into_iter().unzip()
    }

    /// Everything the postings sweep, the id index and the name cache
    /// decide, against the two sweeps per family and the pair sort they
    /// replaced.
    fn assert_matches_oracles(doc: &Document, handed: &[&str]) {
        use crate::node::{TAG_ATTRIBUTE, TAG_ELEMENT};
        let s = &doc.store;
        let names = doc.names().len();
        let elem = csr_postings(&s.kinds, names, TAG_ELEMENT);
        let attr = csr_postings(&s.kinds, names, TAG_ATTRIBUTE);
        assert_eq!((&*s.elem_off, &*s.elem_post), (&elem.0[..], &elem.1[..]));
        assert_eq!((&*s.attr_off, &*s.attr_post), (&attr.0[..], &attr.1[..]));
        let (attrs, elems) = id_index_oracle(doc, "id");
        assert_eq!((&*s.id_attrs, &*s.id_elems), (&attrs[..], &elems[..]));
        let mut first: Vec<&str> = Vec::new();
        for &n in handed {
            if !first.contains(&n) {
                first.push(n);
            }
        }
        assert!(doc.names().strings().eq(first));
    }

    #[test]
    fn postings_and_id_index_match_the_old_sweeps() {
        for seed in 0..200u64 {
            let elements = [0, 1, 2, 7, 40, 300][seed as usize % 6];
            let (doc, handed) = generated(seed, elements);
            assert_matches_oracles(&doc, &handed);
            // The same document through the tokenizer, the name cache
            // and the reservation sized from the text.
            let parsed = crate::parse(&crate::serialize::to_xml_string(&doc)).unwrap();
            assert_eq!(parsed.debug_tree(), doc.debug_tree(), "seed {seed}");
            assert_matches_oracles(&parsed, &handed);
        }
    }

    #[test]
    fn names_sharing_length_and_first_eight_bytes_stay_apart() {
        // 1 000 names past the eight bytes the cache keys on, then short
        // ones that share a length and their first four bytes.
        let names: Vec<String> = (0..1000)
            .map(|i| format!("abcdefgh_{i:03}"))
            .chain((0..100).map(|i| format!("abcd{i:02}")))
            .chain((0..10).map(|i| format!("x{i}")))
            .collect();
        let mut b = DocumentBuilder::new();
        b.start_element("abcdefgh_x", &[("abcdefgh_y", "1")]);
        b.leaf("abcdefgh_y", &[("abcdefgh_x", "2")], "");
        for _ in 0..2 {
            for pair in names.chunks(2) {
                b.leaf(&pair[0], &[(&pair[1], "")], "");
                b.leaf(&pair[1], &[(&pair[0], "")], "");
            }
        }
        b.end_element();
        let doc = b.finish().unwrap();
        let want: Vec<&str> = ["abcdefgh_x", "abcdefgh_y"]
            .into_iter()
            .chain(names.iter().map(|s| &s[..]))
            .collect();
        assert!(doc.names().strings().eq(want.iter().copied()));
        // Every label resolves to what it was built with.
        let mut labels = doc.all_nodes().filter_map(|n| doc.label_str(n));
        assert_eq!(
            labels.by_ref().take(4).collect::<Vec<_>>(),
            ["abcdefgh_x", "abcdefgh_y", "abcdefgh_y", "abcdefgh_x"]
        );
        for _ in 0..2 {
            for pair in names.chunks(2) {
                let got: Vec<&str> = labels.by_ref().take(4).collect();
                assert_eq!(got, [&pair[0], &pair[1], &pair[1], &pair[0]]);
            }
        }
    }

    #[test]
    fn two_names_sharing_a_set_ask_the_table_once_each() {
        // `keyword` and `person` share a set of the cache; alternating
        // them a thousand times reaches the table once per distinct name.
        let set = |s: &str| cache_set(name_key(s.as_bytes()), s.len());
        assert_eq!(set("keyword"), set("person"));
        let mut b = DocumentBuilder::new();
        b.start_element("site", &[]);
        for _ in 0..1000 {
            b.leaf("keyword", &[], "");
            b.leaf("person", &[], "");
        }
        b.end_element();
        assert_eq!(b.table_asks, 3, "site, keyword, person");
        let doc = b.finish().unwrap();
        assert!(doc.names().strings().eq(["site", "keyword", "person"]));
    }

    /// Folds `xml`'s events into a builder as `parser::build` does, but
    /// interning through the table alone.
    fn build_bypassing_cache(xml: &str) -> Document {
        use crate::token::{Tokenizer, XmlEvent};
        fn intern(b: &mut DocumentBuilder, s: &str) -> Name {
            let n = b.names.intern(s);
            b.counts.resize(b.names.len(), [0, 0]);
            n
        }
        let mut b = DocumentBuilder::new();
        let mut tok = Tokenizer::new(xml);
        while let Some(ev) = tok.next_event().unwrap() {
            match ev {
                XmlEvent::StartElement { name, attrs } => {
                    let nm = intern(&mut b, name);
                    b.counts[nm.index()][0] += 1;
                    let parent = b.current_parent();
                    let elem = b.push_node(NodeKind::Element(nm), parent);
                    for (aname, avalue) in attrs.iter() {
                        let an = intern(&mut b, aname);
                        b.counts[an.index()][1] += 1;
                        b.push_leaf(NodeKind::Attribute(an), avalue, elem);
                    }
                    b.open.push(elem);
                }
                XmlEvent::Pi { target, data } => {
                    let nm = intern(&mut b, target);
                    let parent = b.current_parent();
                    b.push_leaf(NodeKind::Pi(nm), data, parent);
                }
                XmlEvent::EndElement { .. } => drop(b.end_element()),
                XmlEvent::Text(t) => drop(b.text(t)),
                XmlEvent::Comment(c) => drop(b.comment(c)),
            }
        }
        b.finish().unwrap()
    }

    /// A snapshot file is the name strings in `Name` order plus the raw
    /// columns, so equal strings and columns are equal snapshot bytes.
    #[test]
    fn snapshot_content_matches_a_build_that_bypasses_the_cache() {
        let mut xml = String::from("<?xml version=\"1.0\"?><site><?target t?>");
        for i in 0..400 {
            let _ = std::fmt::Write::write_fmt(
                &mut xml,
                format_args!(
                    "<item id=\"i{}\" abcdefgh_{}=\"x\"><target shared=\"&amp;\">t</target>\
                     <!--c--><shared only=\"{i}\"/><abcdefgh_{} id=\"i{}\"/></item>",
                    i % 97,
                    i % 7,
                    (i + 3) % 7,
                    i % 89
                ),
            );
        }
        xml.push_str("</site>");
        let cached = crate::parse(&xml).unwrap();
        let direct = build_bypassing_cache(&xml);
        assert!(cached.names().strings().eq(direct.names().strings()));
        assert_eq!(
            format!("{:?}", cached.raw_columns()),
            format!("{:?}", direct.raw_columns())
        );
    }
}
