//! XPath axes: the binary relations `χ ⊆ dom × dom` of Definition 1 and
//! their set functions.
//!
//! Three entry points:
//!
//! * [`axis_image`] — `χ(X) = {y | ∃x ∈ X : x χ y}`, in `O(|D|)` at worst;
//! * [`axis_preimage`] — `χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}`, likewise;
//! * [`Document::axis_nodes`] — the nodes reachable from a *single* node in
//!   axis order `<doc,χ` (forward document order for forward axes, reverse
//!   for `ancestor(-or-self)`, `preceding(-sibling)` and `parent`), which is
//!   what positional predicates (`position()`, `last()`) are defined over.
//!
//! The `O(|D|)` bounds (shown in [11] and relied upon by every theorem in
//! the paper) are the *worst* case here: the kernels walk the pre-order
//! arena's structure links from `X`, entering each child chain, sibling
//! group, ancestor chain and subtree interval at most once, so a step costs
//! what it touches (DESIGN.md "Kernels that cost what they touch").  Only
//! `following`/`preceding` under a non-name test (`{y | pre(y) ≥ min_{x∈X}
//! subtree_end(x)}`: the arena's tail, all of it output) and `id` scan.
//!
//! Three layers of machinery keep the constant factors down (see DESIGN.md):
//!
//! * **Label postings** ([`Document::element_postings`]): name tests route
//!   through per-label sorted node lists instead of sweeping `dom`, making
//!   the common `descendant::a` / `child::a` / `attribute::a` steps
//!   sublinear in practice.
//! * **[`Scratch`]**: every kernel threads reusable mark/flag bitmaps and
//!   candidate buffers, so steady-state evaluation performs no per-call
//!   `O(|D|)` allocations.  The `*_into` variants also reuse the output
//!   set's allocation.
//! * **Packed kind words**: a node test is resolved once per call into one
//!   comparison on the `kinds` column, so no loop unpacks a [`NodeKind`].
//!
//! Each (axis, test shape, origin shape) is dispatched once, to one kernel
//! body; the bodies whose cost is a single ascending scan are written over
//! an index range of that scan, and the `*_on` entry points take the
//! [`Exec`] that runs it — one range on the calling thread
//! ([`Exec::INLINE`], what the plain entry points use) or several on a
//! [`WorkerPool`](crate::par::WorkerPool), concatenated in range order —
//! and return the [`Dispatch`] that ran.
//!
//! The paper's formal model has no attribute nodes; we support them as an
//! extension.  Per the XPath 1.0 data model, attribute nodes are *excluded*
//! from the results of all tree axes and reachable only via `attribute`.
//! The `id` pseudo-axis of Section 4 (`id(id(π))` rewritten to `π/id/id`)
//! is also implemented here so location-path machinery can treat it
//! uniformly.

use crate::document::{Document, NONE};
use crate::name::Name;
use crate::node::{
    NodeId, NodeKind, KIND_TAG_MASK, TAG_ATTRIBUTE, TAG_COMMENT, TAG_ELEMENT, TAG_PI, TAG_TEXT,
};
use crate::nodeset::{DenseSet, NodeSet};
use crate::par::Exec;
use std::fmt;

/// The XPath axes of the paper (Section 2.1) plus the `attribute` extension
/// and the `id` pseudo-axis of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    SelfAxis,
    Child,
    Parent,
    Descendant,
    Ancestor,
    DescendantOrSelf,
    AncestorOrSelf,
    Following,
    Preceding,
    FollowingSibling,
    PrecedingSibling,
    /// Extension: the XPath 1.0 `attribute` axis (outside the paper's
    /// formal fragments).
    Attribute,
    /// The id-"axis" of Section 4: `x χ_id y` iff
    /// `y ∈ deref_ids(strval(x))`.
    Id,
}

impl Axis {
    /// All axes, in a stable order (useful for exhaustive tests).
    pub const ALL: [Axis; 13] = [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Parent,
        Axis::Descendant,
        Axis::Ancestor,
        Axis::DescendantOrSelf,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Attribute,
        Axis::Id,
    ];

    /// Whether `<doc,χ` is *reverse* document order for this axis
    /// (Section 2.1: ancestor, ancestor-or-self, parent, preceding,
    /// preceding-sibling).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// The axis whose relation is the inverse of this one
    /// (`x χ y ⇔ y χ⁻¹ x`), where one exists as a plain axis.
    pub fn inverse(self) -> Option<Axis> {
        Some(match self {
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::Ancestor => Axis::Descendant,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Following => Axis::Preceding,
            Axis::Preceding => Axis::Following,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::Attribute | Axis::Id => return None,
        })
    }

    /// The unabbreviated XPath spelling of the axis.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Parent => "parent",
            Axis::Descendant => "descendant",
            Axis::Ancestor => "ancestor",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
            Axis::Id => "id",
        }
    }

    /// Parses an axis name.
    pub fn from_str_opt(s: &str) -> Option<Axis> {
        Some(match s {
            "self" => Axis::SelfAxis,
            "child" => Axis::Child,
            "parent" => Axis::Parent,
            "descendant" => Axis::Descendant,
            "ancestor" => Axis::Ancestor,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            "id" => Axis::Id,
            _ => return None,
        })
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A node test `t`: the paper's `T : (Σ ∪ {*}) → 2^dom` extended with the
/// XPath 1.0 kind tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `*` — any node of the axis's *principal type* (element for every
    /// tree axis, attribute for the attribute axis).
    Wildcard,
    /// A name test — principal-type node with this label.
    Name(Box<str>),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` / `processing-instruction('target')`
    Pi(Option<Box<str>>),
    /// `node()` — any node.
    AnyNode,
}

impl NodeTest {
    /// Convenience constructor for a name test.
    pub fn name(s: &str) -> NodeTest {
        NodeTest::Name(s.into())
    }

    /// Resolves the test against a document, turning string comparisons
    /// into integer comparisons for the per-node hot path.
    pub fn resolve(&self, doc: &Document) -> ResolvedTest {
        match self {
            NodeTest::Wildcard => ResolvedTest::Wildcard,
            NodeTest::Name(s) => match doc.find_name(s) {
                Some(n) => ResolvedTest::Name(n),
                None => ResolvedTest::NeverMatches,
            },
            NodeTest::Text => ResolvedTest::Text,
            NodeTest::Comment => ResolvedTest::Comment,
            NodeTest::Pi(None) => ResolvedTest::PiAny,
            NodeTest::Pi(Some(t)) => match doc.find_name(t) {
                Some(n) => ResolvedTest::Pi(n),
                None => ResolvedTest::NeverMatches,
            },
            NodeTest::AnyNode => ResolvedTest::AnyNode,
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Wildcard => f.write_str("*"),
            NodeTest::Name(s) => f.write_str(s),
            NodeTest::Text => f.write_str("text()"),
            NodeTest::Comment => f.write_str("comment()"),
            NodeTest::Pi(None) => f.write_str("processing-instruction()"),
            NodeTest::Pi(Some(t)) => write!(f, "processing-instruction('{t}')"),
            NodeTest::AnyNode => f.write_str("node()"),
        }
    }
}

/// A [`NodeTest`] resolved against a specific document (name lookups done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedTest {
    Wildcard,
    Name(Name),
    Text,
    Comment,
    PiAny,
    Pi(Name),
    AnyNode,
    /// A name test whose name does not occur in the document at all.
    NeverMatches,
}

impl ResolvedTest {
    /// Whether node `n` passes this test when reached via `axis`.
    #[inline]
    pub fn matches(self, doc: &Document, axis: Axis, n: NodeId) -> bool {
        let kind = doc.kind(n);
        match self {
            ResolvedTest::AnyNode => true,
            ResolvedTest::NeverMatches => false,
            ResolvedTest::Wildcard => match axis {
                Axis::Attribute => kind.is_attribute(),
                _ => kind.is_element(),
            },
            ResolvedTest::Name(nm) => match axis {
                Axis::Attribute => matches!(kind, NodeKind::Attribute(k) if k == nm),
                _ => matches!(kind, NodeKind::Element(k) if k == nm),
            },
            ResolvedTest::Text => kind.is_text(),
            ResolvedTest::Comment => kind == NodeKind::Comment,
            ResolvedTest::PiAny => matches!(kind, NodeKind::Pi(_)),
            ResolvedTest::Pi(nm) => matches!(kind, NodeKind::Pi(k) if k == nm),
        }
    }
}

/// A resolved test as one comparison on a packed kind word: the tag must
/// be one of `tags` (a bit per tag value) and the word must agree with
/// `want` under `mask` — all of it for a name, none of it otherwise.  Built
/// once per kernel call; the loops then never unpack a [`NodeKind`].
#[derive(Debug, Clone, Copy)]
struct KindFilter {
    tags: u32,
    mask: u32,
    want: u32,
}

impl KindFilter {
    /// The filter [`ResolvedTest::matches`] decides for `axis`.
    fn new(t: ResolvedTest, axis: Axis) -> KindFilter {
        let (principal, named): (u32, fn(Name) -> NodeKind) = if axis == Axis::Attribute {
            (TAG_ATTRIBUTE, NodeKind::Attribute)
        } else {
            (TAG_ELEMENT, NodeKind::Element)
        };
        let (tags, name) = match t {
            ResolvedTest::AnyNode => (!0, None),
            ResolvedTest::NeverMatches => (0, None),
            ResolvedTest::Wildcard => (1 << principal, None),
            ResolvedTest::Name(nm) => (1 << principal, Some(named(nm))),
            ResolvedTest::Text => (1 << TAG_TEXT, None),
            ResolvedTest::Comment => (1 << TAG_COMMENT, None),
            ResolvedTest::PiAny => (1 << TAG_PI, None),
            ResolvedTest::Pi(nm) => (1 << TAG_PI, Some(NodeKind::Pi(nm))),
        };
        let (mask, want) = name.map_or((0, 0), |kind| (!0, kind.pack()));
        KindFilter { tags, mask, want }
    }

    /// The same test on an axis that never yields attribute nodes.
    fn without_attributes(mut self) -> KindFilter {
        self.tags &= !(1 << TAG_ATTRIBUTE);
        self
    }

    #[inline(always)]
    fn accepts(self, word: u32) -> bool {
        (self.tags >> (word & KIND_TAG_MASK)) & 1 != 0 && word & self.mask == self.want
    }
}

/// Reusable working memory for the axis kernels.
///
/// The set-at-a-time kernels need `O(|D|)` mark/flag bitmaps and assorted
/// candidate buffers; allocating them per call dominated evaluation time
/// on large documents.  A `Scratch` owns them all — callers (the engine's
/// evaluators, chiefly) create one and thread it through every kernel
/// call, so steady-state evaluation performs no per-call `O(|D|)`
/// allocations.  Buffers grow monotonically to the largest document seen.
#[derive(Debug, Default)]
pub struct Scratch {
    marked: DenseSet,
    flag: DenseSet,
    /// Internal candidate buffer used by the image kernels (the singleton
    /// shortcut, `parent::a`, the `id` axis).
    tmp: Vec<NodeId>,
    /// Buffer the preimage kernels use for attribute-filtered copies of
    /// `Y` (must be distinct from `tmp`, which the inner image call uses).
    tmp2: Vec<NodeId>,
    /// Merged subtree intervals of the origins (`descendant` images, the
    /// `ancestor` preimage).
    ranges: Vec<(u32, u32)>,
    /// [`sibling_ranks`]' output buffer between calls (see
    /// [`Scratch::recycle_ranks`]).
    ranks: Vec<SiblingRank>,
    /// [`sibling_ranks`]' open groups: `[parent, subtree_end(parent), index
    /// of the group's first list member]`, innermost on top.
    open: Vec<[u32; 3]>,
}

#[cfg(test)]
thread_local!(static TOUCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// Counts link and kind slots read, plus bitmap words cleared or read back,
/// by the walking kernels (a bit probed rides on a counted slot) — in unit
/// tests only: a count, not a clock, for the "costs what it touches" bound.
#[inline(always)]
fn touched(_slots: usize) {
    #[cfg(test)]
    TOUCHED.with(|t| t.set(t.get() + _slots));
}

impl Scratch {
    /// A scratch with empty buffers; they size themselves on first use.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    fn grow(&mut self, n: usize) {
        self.marked.ensure_capacity(n);
        self.flag.ensure_capacity(n);
    }

    /// Hands a buffer [`sibling_ranks`] returned back, so the next call
    /// reuses its allocation.
    pub fn recycle_ranks(&mut self, ranks: Vec<SiblingRank>) {
        self.ranks = ranks;
    }
}

/// Which kernel family an axis call ran on.  The kernel invocation itself
/// returns this (inside a [`Dispatch`]), so the EXPLAIN/profile surface
/// reports the arm that ran rather than a re-derivation of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisRoute {
    /// Sorted label-postings kernel (binary search / interval merge /
    /// parent check): sublinear in `|D|` when the label is rare.
    Postings,
    /// Local traversal — the ordered single-node walk from a singleton
    /// origin, or a set kernel following structure links (child chains,
    /// sibling groups, ancestor chains, subtree intervals) — whose cost is
    /// what it touches, not the document.
    Walk,
    /// A scan of ordinals, whatever the test: the arena's tail or head
    /// (`following` / `preceding` under a non-name test — all of it
    /// output), the whole arena (`id`), or just the origins (`self`).
    Sweep,
}

impl AxisRoute {
    /// A short stable name (used in EXPLAIN plan text).
    pub fn as_str(self) -> &'static str {
        match self {
            AxisRoute::Postings => "postings",
            AxisRoute::Walk => "walk",
            AxisRoute::Sweep => "sweep",
        }
    }
}

impl fmt::Display for AxisRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one kernel invocation did: the family of the kernel arm that ran,
/// and how many chunks its scan was cut into on the pool (`0`: one range
/// on the calling thread — always, under [`Exec::INLINE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    pub route: AxisRoute,
    pub chunks: usize,
}

impl Dispatch {
    /// The constant-time short-circuit — no origins, or a name the
    /// document lacks: no kernel runs at all.  Reported as a walk (of
    /// nothing).
    pub const NONE: Dispatch = Dispatch {
        route: AxisRoute::Walk,
        chunks: 0,
    };

    fn ran(route: AxisRoute, chunks: usize) -> Dispatch {
        Dispatch { route, chunks }
    }
}

/// `χ(X)` filtered by a node test, in `O(|D|)` worst case (Definition 1;
/// the filter does not change the bound) and sublinear for name tests via
/// the label postings index.  The result is in document order.
///
/// Convenience wrapper over [`axis_image_into`] that resolves the test and
/// allocates fresh scratch; hot paths should resolve once and reuse a
/// [`Scratch`] instead.
pub fn axis_image(doc: &Document, axis: Axis, x: &NodeSet, test: &NodeTest) -> NodeSet {
    let mut scratch = Scratch::new();
    axis_image_resolved(doc, axis, x, test.resolve(doc), &mut scratch)
}

/// [`axis_image`] with a pre-resolved test and caller-provided scratch,
/// returning an owned set.
pub fn axis_image_resolved(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
) -> NodeSet {
    let mut out = NodeSet::new();
    axis_image_into(doc, axis, x, t, scratch, &mut out);
    out
}

/// The allocation-free core of [`axis_image`]: clears `out` and fills it
/// with `χ(X)` filtered by `t`, in document order.
pub fn axis_image_into(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) {
    axis_image_on(doc, axis, x, t, scratch, out, Exec::INLINE);
}

/// [`axis_image_into`] with the scan run on `exec` (identical output,
/// whatever the executor), reporting the kernel that ran.
pub fn axis_image_on(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    exec: Exec<'_>,
) -> Dispatch {
    image(doc, axis, x.as_slice(), t, scratch, out, exec)
}

/// The subtree ranges of `x` (ascending) — each member's own ordinal
/// included with `or_self` — merged into sorted, disjoint intervals of
/// ordinals; sorted starts make it one pass.
fn subtree_intervals(doc: &Document, x: &[NodeId], or_self: bool, ranges: &mut Vec<(u32, u32)>) {
    ranges.clear();
    for &m in x {
        let s = (m.index() + usize::from(!or_self)) as u32;
        let e = doc.subtree_end(m) as u32;
        if s >= e {
            continue;
        }
        match ranges.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => ranges.push((s, e)),
        }
    }
}

/// The one dispatch on (axis, test shape, origin shape).  Every arm whose
/// dominant cost is a single ascending scan — over a sorted postings slice
/// or over the ordinals `following`/`preceding` select — hands that scan to
/// `exec` as a body over an index range; the arms that re-sort anyway
/// (`parent::a`, `id`) or are already memcpys (name-tested `following`) run
/// inline, and everything else is a [`walk`].
///
/// The scan bodies are `#[inline(always)]` closures: inlined into this
/// function for the one-range path, their loops see that `out`, `scratch`
/// and `doc` are distinct (the parameters' `noalias`), so the bitmap and
/// column headers stay in registers across the pushes — compiled out of
/// line they are reloaded once per node, measured at +25 % on a scan (and
/// again when the walks shared this function: +27–34 % on the postings
/// arms, which is why they do not).
fn image(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    exec: Exec<'_>,
) -> Dispatch {
    out.clear();
    if x.is_empty() || t == ResolvedTest::NeverMatches {
        return Dispatch::NONE;
    }
    let name = match t {
        ResolvedTest::Name(nm) => Some(nm),
        _ => None,
    };
    let o = out.vec_mut();
    // Singleton origin: the ordered single-node walk is local (subtree /
    // chain / sibling cost) and clears no bitmap — and the per-candidate
    // predicate paths the evaluators memoize, thousands of calls a query,
    // are exactly this shape.  Excluded: the id axis, whose single-node walk
    // tokenizes the *concatenated* string value while the set kernel
    // tokenizes per text node (see DESIGN.md); and name-tested
    // `following`/`preceding`, where the sliced postings kernel is
    // sublinear while the single-node walk scans the whole tail.
    if let [single] = x {
        let sliced_name_test = name.is_some() && matches!(axis, Axis::Following | Axis::Preceding);
        if axis != Axis::Id && !sliced_name_test {
            // Staged in the scratch so `out` is sized once, exactly.
            let tmp = &mut scratch.tmp;
            let ran = doc.axis_nodes_on(axis, *single, t, tmp, exec);
            if axis.is_reverse() {
                tmp.reverse();
            }
            o.extend_from_slice(tmp);
            return ran;
        }
    }
    let n = doc.len();
    scratch.grow(n);
    let Scratch {
        marked,
        flag,
        tmp,
        ranges,
        ..
    } = scratch;
    let (parent, kinds) = (doc.parent_raw(), doc.kinds_raw());
    let test = KindFilter::new(t, axis);
    let tree = test.without_attributes();
    use AxisRoute::{Postings, Sweep, Walk};
    match (axis, name) {
        // Postings-backed name tests: sublinear in |D| when the label is
        // rare.  `child::a` / `attribute::a` parent-check the postings.
        (Axis::Child | Axis::Attribute, Some(nm)) => {
            marked.clear();
            marked.extend(x.iter().copied());
            let marked = &*marked;
            let posts = if axis == Axis::Child {
                doc.element_postings(nm)
            } else {
                doc.attribute_postings(nm)
            };
            let chunks = exec.scan(
                posts.len(),
                o,
                #[inline(always)]
                |r, buf| {
                    for &p in &posts[r] {
                        let par = parent[p.index()];
                        if par != NONE && marked.contains(NodeId(par)) {
                            buf.push(p);
                        }
                    }
                },
            );
            Dispatch::ran(Postings, chunks)
        }
        (Axis::Descendant | Axis::DescendantOrSelf, Some(nm)) => {
            // The postings X's merged subtree intervals span, merged
            // against those intervals.
            subtree_intervals(doc, x, axis == Axis::DescendantOrSelf, ranges);
            let ranges = &*ranges;
            let span = match (ranges.first(), ranges.last()) {
                (Some(first), Some(last)) => first.0..last.1,
                _ => 0..0,
            };
            let all = doc.element_postings(nm);
            let lo = all.partition_point(|p| (p.index() as u32) < span.start);
            let hi = lo + all[lo..].partition_point(|p| (p.index() as u32) < span.end);
            let posts = &all[lo..hi];
            let chunks = exec.scan(
                posts.len(),
                o,
                #[inline(always)]
                |r, buf| {
                    let posts = &posts[r];
                    let Some(first) = posts.first() else {
                        return;
                    };
                    // Intervals are sorted and disjoint: start at the first
                    // one that does not end before this range's postings do.
                    let from = ranges.partition_point(|&(_, e)| e <= first.index() as u32);
                    let mut pi = 0usize;
                    for &(s, e) in &ranges[from..] {
                        pi += posts[pi..].partition_point(|p| (p.index() as u32) < s);
                        if pi == posts.len() {
                            break;
                        }
                        while pi < posts.len() && (posts[pi].index() as u32) < e {
                            buf.push(posts[pi]);
                            pi += 1;
                        }
                    }
                },
            );
            Dispatch::ran(Postings, chunks)
        }
        (Axis::Following, Some(nm)) => {
            let m = x
                .iter()
                .map(|&v| doc.subtree_end(v))
                .min()
                .expect("x non-empty");
            let posts = doc.element_postings(nm);
            o.extend_from_slice(&posts[posts.partition_point(|p| p.index() < m)..]);
            Dispatch::ran(Postings, 0)
        }
        (Axis::Preceding, Some(nm)) => {
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            let all = doc.element_postings(nm);
            let posts = &all[..all.partition_point(|p| p.index() < m)];
            let chunks = exec.scan(
                posts.len(),
                o,
                #[inline(always)]
                |r, buf| {
                    for &p in &posts[r] {
                        if doc.subtree_end(p) <= m {
                            buf.push(p);
                        }
                    }
                },
            );
            Dispatch::ran(Postings, chunks)
        }
        // `parent::a`: the few parents that carry the name, sorted.
        (Axis::Parent, Some(nm)) => {
            tmp.clear();
            for &m in x {
                let p = parent[m.index()];
                if p != NONE && doc.kind(NodeId(p)) == NodeKind::Element(nm) {
                    tmp.push(NodeId(p));
                }
            }
            tmp.sort_unstable();
            tmp.dedup();
            o.extend_from_slice(tmp);
            Dispatch::ran(Walk, 0)
        }
        // What still scans ordinals, whatever the test: the origins, the
        // arena's tail or head (all of it output), or — `id` — all of it.
        (Axis::SelfAxis, _) => {
            o.extend(x.iter().copied().filter(|m| test.accepts(kinds[m.index()])));
            Dispatch::ran(Sweep, 0)
        }
        (Axis::Following, None) => {
            // y ∈ following(X)  ⇔  pre(y) ≥ min_{x∈X} subtree_end(x).
            let m = x
                .iter()
                .map(|&v| doc.subtree_end(v))
                .min()
                .expect("x non-empty");
            let chunks = exec.scan(
                n - m,
                o,
                #[inline(always)]
                |r, buf| {
                    for y in (m + r.start..m + r.end).map(NodeId::from_index) {
                        if tree.accepts(kinds[y.index()]) {
                            buf.push(y);
                        }
                    }
                },
            );
            Dispatch::ran(Sweep, chunks)
        }
        (Axis::Preceding, None) => {
            // y ∈ preceding(X)  ⇔  subtree_end(y) ≤ max_{x∈X} pre(x) — and
            // subtree_end(y) > pre(y), so only ordinals below it qualify.
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            let chunks = exec.scan(
                m,
                o,
                #[inline(always)]
                |r, buf| {
                    for y in r.map(NodeId::from_index) {
                        if doc.subtree_end(y) <= m && tree.accepts(kinds[y.index()]) {
                            buf.push(y);
                        }
                    }
                },
            );
            Dispatch::ran(Sweep, chunks)
        }
        (Axis::Id, _) => {
            // Tokens of text content reachable from X (descendant-or-self
            // for element/root members; own content for the rest),
            // dereferenced through the id index.  O(|D| + text).
            marked.clear();
            marked.extend(x.iter().copied());
            flag.clear(); // flag: under an element/root member of X
            for (i, &p) in parent.iter().enumerate() {
                let from_parent = p != NONE && {
                    let pid = NodeId(p);
                    (flag.contains(pid) || marked.contains(pid))
                        && matches!(doc.kind(pid), NodeKind::Root | NodeKind::Element(_))
                };
                if from_parent {
                    flag.insert(NodeId::from_index(i));
                }
            }
            tmp.clear();
            for y in doc.all_nodes() {
                let content_counts = match doc.kind(y) {
                    NodeKind::Text => flag.contains(y) || marked.contains(y),
                    NodeKind::Attribute(_) | NodeKind::Comment | NodeKind::Pi(_) => {
                        marked.contains(y)
                    }
                    _ => false,
                };
                if content_counts {
                    tmp.extend(doc.deref_ids(doc.content(y)).iter());
                }
            }
            tmp.retain(|m| test.accepts(kinds[m.index()]));
            tmp.sort_unstable();
            tmp.dedup();
            o.extend_from_slice(tmp);
            Dispatch::ran(Sweep, 0)
        }
        _ => {
            walk(doc, axis, x, t, scratch, o);
            Dispatch::ran(Walk, 0)
        }
    }
}

/// The set kernels that follow the structure links instead of scanning
/// the arena: `child`, `parent`, `descendant(-or-self)` and `attribute`
/// under a non-name test, `ancestor(-or-self)` and both sibling axes under
/// any test, from two or more origins (ascending) into `o`.
///
/// Each child chain, sibling group, ancestor chain and subtree interval is
/// entered at most once, so the cost is `O(|X| + nodes reached + ⌈n/64⌉)`:
/// Definition 1's `O(|D|)` as the worst case only.  What a walk reaches out
/// of document order it scatters into `flag` and reads back ascending over
/// the span it wrote; a walk that needs no bitmap clears none.  All run on
/// the calling thread, whatever the [`Exec`].
fn walk(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    t: ResolvedTest,
    scratch: &mut Scratch,
    o: &mut Vec<NodeId>,
) {
    let Scratch { flag, ranges, .. } = scratch;
    let (parent, kinds) = (doc.parent_raw(), doc.kinds_raw());
    let (first_child, next_sibling, prev_sibling) = doc.child_links_raw();
    let any = t == ResolvedTest::AnyNode;
    let test = KindFilter::new(t, axis);
    let keep = |node: NodeId| test.accepts(kinds[node.index()]);
    // The ordering step: what was scattered into `flag` between ordinals
    // `lo` and `hi` comes back ascending, and meets the test.
    let drain = |flag: &DenseSet, lo: usize, hi: usize, o: &mut Vec<NodeId>| {
        touched(hi.saturating_sub(lo) / 64 + 1);
        flag.append_span_to(lo, hi, o, |y| any || keep(y));
    };
    let words = doc.len().div_ceil(64);
    let last_at = x.len() - 1;
    let last = x[last_at].index();
    match axis {
        Axis::Child => {
            // Children of two origins interleave only when one origin lies
            // in the other's subtree — and then, X being ascending, some
            // origin lies in its predecessor's.
            let nested = x.windows(2).any(|w| w[1].index() < doc.subtree_end(w[0]));
            touched(2 * x.len());
            if nested {
                flag.clear();
                touched(words);
            }
            let mut hi = 0;
            for &m in x {
                let mut c = first_child[m.index()];
                while c != NONE {
                    touched(2 - usize::from(any));
                    if nested {
                        flag.insert(NodeId(c));
                    } else if any || keep(NodeId(c)) {
                        o.push(NodeId(c));
                    }
                    hi = hi.max(c as usize);
                    c = next_sibling[c as usize];
                }
            }
            if nested {
                drain(flag, x[0].index(), hi, o);
            }
        }
        Axis::Parent => {
            flag.clear();
            touched(words + (2 - usize::from(any)) * x.len());
            let mut lo = usize::MAX;
            for &m in x {
                let p = parent[m.index()];
                if p != NONE {
                    flag.insert(NodeId(p));
                    lo = lo.min(p as usize);
                }
            }
            // A parent precedes its child.
            drain(flag, lo, last, o);
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // The union of the origins' ancestor chains.  A chain is left
            // at its first node at or before the previous origin: that node
            // is the previous origin or an ancestor of it (it precedes it,
            // and its subtree reaches past it), and the rest of the chain
            // was walked from there — so no node is met from two origins.
            // The test is met on the way in: matches are few, chains long.
            flag.clear();
            touched(words + 2 * x.len() + last / 64 + 1);
            let mut enter = |y: u32| {
                if any || keep(NodeId(y)) {
                    flag.insert(NodeId(y));
                }
            };
            let (or_self, mut floor) = (axis == Axis::AncestorOrSelf, 0);
            for &m in x {
                let mut cur = if or_self { m.0 } else { parent[m.index()] };
                while cur != NONE && cur >= floor {
                    touched(2 - usize::from(any));
                    enter(cur);
                    cur = parent[cur as usize];
                }
                if cur != NONE && cur + 1 == floor {
                    enter(cur); // the previous origin itself
                }
                floor = m.0 + 1;
            }
            // An ancestor precedes its descendants.
            flag.append_span_to(0, last, o, |_| true);
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            let or_self = axis == Axis::DescendantOrSelf;
            let tree = test.without_attributes();
            subtree_intervals(doc, x, or_self, ranges);
            touched(x.len());
            let mut xi = 0;
            for &(s, e) in ranges.iter() {
                touched((e - s) as usize);
                for y in (s..e).map(NodeId) {
                    let w = kinds[y.index()];
                    if tree.accepts(w) {
                        o.push(y);
                    } else if or_self && test.accepts(w) {
                        // What only `tree` turns away is an attribute: never
                        // a *descendant*, but as a member of X its own
                        // descendant-or-self.
                        while xi < x.len() && x[xi] < y {
                            xi += 1;
                        }
                        if x.get(xi) == Some(&y) {
                            o.push(y);
                        }
                    }
                }
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            // One walk per sibling group, from its earliest member of X to
            // the group's end (`preceding-sibling`: its latest, to the start):
            // X is taken in that order, so the group's other members were
            // passed on the way — and attribute members are in no chain.
            let forward = axis == Axis::FollowingSibling;
            let link = if forward { next_sibling } else { prev_sibling };
            flag.clear();
            touched(words + x.len());
            let (mut lo, mut hi) = (usize::MAX, 0);
            for i in 0..x.len() {
                let m = x[if forward { i } else { last_at - i }];
                if flag.contains(m) {
                    continue;
                }
                let mut s = link[m.index()];
                while s != NONE && flag.insert(NodeId(s)) {
                    touched(2 - usize::from(any));
                    (lo, hi) = (lo.min(s as usize), hi.max(s as usize));
                    s = link[s as usize];
                }
            }
            drain(flag, lo, hi, o);
        }
        Axis::Attribute => {
            // An element's attributes are the slots right after it.
            touched(2 * x.len());
            for &m in x {
                if kinds[m.index()] & KIND_TAG_MASK != TAG_ELEMENT {
                    continue;
                }
                let run = kinds[m.index() + 1..]
                    .iter()
                    .take_while(|&&w| w & KIND_TAG_MASK == TAG_ATTRIBUTE)
                    .count() as u32;
                touched(run as usize);
                let owned = (m.0 + 1..=m.0 + run).map(NodeId);
                o.extend(owned.filter(|&y| any || keep(y)));
            }
        }
        _ => unreachable!("{axis} is scanned, not walked"),
    }
}

/// `χ⁻¹(Y) = {x ∈ dom | χ({x}) ∩ Y ≠ ∅}` (Definition 1), in `O(|D|)`.
///
/// Exact for attribute nodes on *both* sides of the relation: attribute
/// members of `Y` only contribute where the forward axis can actually
/// reach an attribute (`self`, `attribute`, the or-self part of
/// `descendant-or-self`/`ancestor-or-self`, `parent`), and attribute
/// *origins* are reported for the axes whose forward image from an
/// attribute node is non-empty (`parent`, `ancestor(-or-self)`,
/// `following`, `preceding`, the or-self axes) — the divergence-from-`χ⁻¹`
/// cases the pure mirror-axis implementation used to get wrong (see
/// DESIGN.md).
pub fn axis_preimage(doc: &Document, axis: Axis, y: &NodeSet) -> NodeSet {
    let mut scratch = Scratch::new();
    let mut out = NodeSet::new();
    axis_preimage_into(doc, axis, y, &mut scratch, &mut out);
    out
}

/// The allocation-free core of [`axis_preimage`]: clears `out` and fills
/// it with `χ⁻¹(Y)` in document order.
pub fn axis_preimage_into(
    doc: &Document,
    axis: Axis,
    y: &NodeSet,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) {
    axis_preimage_on(doc, axis, y, scratch, out, Exec::INLINE);
}

/// [`axis_preimage_into`] with the scan run on `exec` (identical output,
/// whatever the executor).  Returns the chunks the scan was cut into
/// (`0`: one range, inline).
pub fn axis_preimage_on(
    doc: &Document,
    axis: Axis,
    y: &NodeSet,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    exec: Exec<'_>,
) -> usize {
    out.clear();
    if y.is_empty() {
        return 0;
    }
    let n = doc.len();
    let mirror = |axis: Axis| axis.inverse().expect("tree axes have inverses");
    match axis {
        Axis::SelfAxis => {
            out.vec_mut().extend_from_slice(y.as_slice());
            0
        }
        Axis::Attribute => {
            // x has an attribute in Y  ⇔  x owns an attribute node in Y.
            let tmp = &mut scratch.tmp;
            tmp.clear();
            tmp.extend(
                y.iter()
                    .filter(|&a| doc.kind(a).is_attribute())
                    .filter_map(|a| doc.parent(a)),
            );
            tmp.sort_unstable();
            tmp.dedup();
            out.vec_mut().extend_from_slice(tmp);
            0
        }
        Axis::Id => {
            *out = doc.id_preimage(y);
            0
        }
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf => {
            // child(x) / descendant(x) never contain attributes: drop them
            // from Y, then mirror.  The buffer must survive the inner
            // image call, so it is taken out of the scratch for its
            // duration.
            let mut filt = std::mem::take(&mut scratch.tmp2);
            filt.clear();
            filt.extend(y.iter().filter(|&m| !doc.kind(m).is_attribute()));
            let any = ResolvedTest::AnyNode;
            let ran = image(doc, mirror(axis), &filt, any, scratch, out, exec);
            scratch.tmp2 = filt;
            if axis == Axis::DescendantOrSelf {
                // …plus the attribute members themselves (an attribute is
                // its own descendant-or-self and has no other preimage).
                let o = out.vec_mut();
                o.extend(y.iter().filter(|&m| doc.kind(m).is_attribute()));
                o.sort_unstable();
                o.dedup();
            }
            ran.chunks
        }
        Axis::Parent => {
            // parent(x) is defined for attributes too: the preimage is the
            // non-attribute children of Y plus the attributes owned by Y.
            let any = ResolvedTest::AnyNode;
            let ran = image(doc, Axis::Child, y.as_slice(), any, scratch, out, exec);
            let o = out.vec_mut();
            for m in y.iter() {
                if doc.kind(m).is_element() {
                    o.extend(doc.attributes(m));
                }
            }
            // Two ascending runs with no node in both: the stable sort is
            // one merge.
            o.sort();
            ran.chunks
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // ancestor(x) reaches Y  ⇔  x is a proper descendant of Y —
            // *including* attribute descendants, which the mirror
            // descendant image would drop: Y's merged subtree intervals,
            // whole.
            let ranges = &mut scratch.ranges;
            subtree_intervals(doc, y.as_slice(), axis == Axis::AncestorOrSelf, ranges);
            for &(s, e) in ranges.iter() {
                out.vec_mut().extend((s..e).map(NodeId));
            }
            0
        }
        Axis::Following => {
            // following(x) ∩ Y ≠ ∅  ⇔  subtree_end(x) ≤ max non-attribute
            // member of Y; attribute origins qualify.
            let Some(m) = y
                .iter()
                .filter(|&v| !doc.kind(v).is_attribute())
                .map(|v| v.index())
                .max()
            else {
                return 0;
            };
            exec.scan(
                n,
                out.vec_mut(),
                #[inline(always)]
                |r, buf| {
                    for v in r.map(NodeId::from_index) {
                        if doc.subtree_end(v) <= m {
                            buf.push(v);
                        }
                    }
                },
            )
        }
        Axis::Preceding => {
            // preceding(x) ∩ Y ≠ ∅  ⇔  pre(x) ≥ min subtree_end over
            // non-attribute members of Y; attribute origins qualify.
            let Some(m) = y
                .iter()
                .filter(|&v| !doc.kind(v).is_attribute())
                .map(|v| doc.subtree_end(v))
                .min()
            else {
                return 0;
            };
            out.vec_mut().extend((m..n).map(NodeId::from_index));
            0
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            // Sibling relations exclude attributes on both sides, and the
            // sibling walks already enforce that: plain mirror.
            let any = ResolvedTest::AnyNode;
            image(doc, mirror(axis), y.as_slice(), any, scratch, out, exec).chunks
        }
    }
}

/// A list member's proximity position among the members that share its
/// parent, and how many of those there are — the `position()` and `last()`
/// of a `child` or `attribute` step whose surviving candidates are the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiblingRank {
    pub position: u32,
    pub size: u32,
}

/// Ranks every member of `list` — nodes in strictly ascending document
/// order — among the members with the same parent, in one pass.
///
/// The arena is pre-order, so the groups nest: once a member lies at or
/// past `subtree_end(p)` no later member is a child of `p`, and a member
/// inside `p`'s subtree whose parent is not `p` opens a group nested in
/// `p`'s.  A stack of open groups (innermost on top, never deeper than the
/// tree) therefore finds each member's group in amortized constant time: an
/// `item` inside an `item` is ranked among its own siblings by construction.
/// Time and memory are proportional to the list, never to `|D|`.
///
/// The returned buffer is lent out of `scratch`; give it back with
/// [`Scratch::recycle_ranks`] (a nested call in between simply allocates).
pub fn sibling_ranks(doc: &Document, list: &[NodeId], scratch: &mut Scratch) -> Vec<SiblingRank> {
    debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
    let mut ranks = std::mem::take(&mut scratch.ranks);
    ranks.clear();
    ranks.reserve(list.len());
    let open = &mut scratch.open;
    open.clear();
    let parent = doc.parent_raw();
    for (i, &y) in list.iter().enumerate() {
        let p = parent[y.index()];
        while open.last().is_some_and(|g| g[1] as usize <= y.index()) {
            open.pop();
        }
        match open.last() {
            // While a group is open its first member's `size` is the running
            // count; the others remember where that first member is.
            Some(&[top, _, first]) if top == p => {
                let seen = &mut ranks[first as usize].size;
                *seen += 1;
                let position = *seen;
                ranks.push(SiblingRank {
                    position,
                    size: first,
                });
            }
            _ => {
                // The root's (absent) parent never closes.
                let end = if p == NONE {
                    u32::MAX
                } else {
                    doc.subtree_end(NodeId(p)) as u32
                };
                open.push([p, end, i as u32]);
                ranks.push(SiblingRank {
                    position: 1,
                    size: 1,
                });
            }
        }
    }
    // Every group is complete: copy its count from its first member (the
    // one at position 1, always earlier in the list) to the rest.
    for i in 0..ranks.len() {
        if ranks[i].position > 1 {
            ranks[i].size = ranks[ranks[i].size as usize].size;
        }
    }
    ranks
}

impl Document {
    /// The nodes reachable from the single node `from` via `axis`,
    /// filtered by `test`, **in axis order** `<doc,χ` (Section 2.1):
    /// document order for forward axes, reverse document order for reverse
    /// axes.  This ordering is what `position()` and `last()` are defined
    /// over, so the evaluators build their candidate lists with it.
    pub fn axis_nodes(&self, axis: Axis, from: NodeId, test: &NodeTest) -> Vec<NodeId> {
        let t = test.resolve(self);
        let mut out = Vec::new();
        self.axis_nodes_into(axis, from, t, &mut out);
        out
    }

    /// Allocation-reusing variant of [`Document::axis_nodes`].
    pub fn axis_nodes_into(
        &self,
        axis: Axis,
        from: NodeId,
        t: ResolvedTest,
        out: &mut Vec<NodeId>,
    ) {
        self.axis_nodes_on(axis, from, t, out, Exec::INLINE);
    }

    /// [`Document::axis_nodes_into`] with the two shapes whose cost is an
    /// arena scan — `following` and `preceding` under non-name tests —
    /// run on `exec` (identical output, whatever the executor), reporting
    /// the kernel that ran.
    pub fn axis_nodes_on(
        &self,
        axis: Axis,
        from: NodeId,
        t: ResolvedTest,
        out: &mut Vec<NodeId>,
        exec: Exec<'_>,
    ) -> Dispatch {
        out.clear();
        if t == ResolvedTest::NeverMatches {
            return Dispatch::NONE;
        }
        // Postings fast paths: a name test over a subtree range is a
        // binary search into the label postings instead of an arena scan.
        if let ResolvedTest::Name(nm) = t {
            match axis {
                Axis::Descendant | Axis::DescendantOrSelf => {
                    let posts = self.element_postings(nm);
                    let lo = from.index() + usize::from(axis == Axis::Descendant);
                    let hi = self.subtree_end(from);
                    let start = posts.partition_point(|p| p.index() < lo);
                    for &p in &posts[start..] {
                        if p.index() >= hi {
                            break;
                        }
                        out.push(p);
                    }
                    return Dispatch::ran(AxisRoute::Postings, 0);
                }
                Axis::Following => {
                    let posts = self.element_postings(nm);
                    let start = posts.partition_point(|p| p.index() < self.subtree_end(from));
                    out.extend_from_slice(&posts[start..]);
                    return Dispatch::ran(AxisRoute::Postings, 0);
                }
                _ => {}
            }
        }
        let kinds = self.kinds_raw();
        let test = KindFilter::new(t, axis);
        let tree = test.without_attributes();
        let keep = |n: NodeId| test.accepts(kinds[n.index()]);
        let mut chunks = 0;
        match axis {
            Axis::SelfAxis => {
                if keep(from) {
                    out.push(from);
                }
            }
            Axis::Child => out.extend(self.children(from).filter(|&c| keep(c))),
            Axis::Parent => {
                if let Some(p) = self.parent(from) {
                    if keep(p) {
                        out.push(p);
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf && keep(from) {
                    out.push(from);
                }
                let below = from.0 + 1..self.subtree_end(from) as u32;
                out.extend(below.map(NodeId).filter(|d| tree.accepts(kinds[d.index()])));
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf && keep(from) {
                    out.push(from);
                }
                let mut cur = self.parent(from);
                while let Some(p) = cur {
                    if keep(p) {
                        out.push(p);
                    }
                    cur = self.parent(p);
                }
            }
            Axis::Following => {
                let start = self.subtree_end(from);
                chunks = exec.scan(
                    self.len() - start,
                    out,
                    #[inline(always)]
                    |r, buf| {
                        for y in (start + r.start..start + r.end).map(NodeId::from_index) {
                            if tree.accepts(kinds[y.index()]) {
                                buf.push(y);
                            }
                        }
                    },
                );
            }
            Axis::Preceding => {
                // Reverse document order, skipping ancestors of `from`.
                let m = from.index();
                chunks = exec.scan_rev(
                    m,
                    out,
                    #[inline(always)]
                    |r, buf| {
                        for y in r.rev().map(NodeId::from_index) {
                            if self.subtree_end(y) <= m && tree.accepts(kinds[y.index()]) {
                                buf.push(y);
                            }
                        }
                    },
                );
            }
            Axis::FollowingSibling => {
                let mut cur = self.next_sibling(from);
                while let Some(s) = cur {
                    if keep(s) {
                        out.push(s);
                    }
                    cur = self.next_sibling(s);
                }
            }
            Axis::PrecedingSibling => {
                let mut cur = self.prev_sibling(from);
                while let Some(s) = cur {
                    if keep(s) {
                        out.push(s);
                    }
                    cur = self.prev_sibling(s);
                }
            }
            Axis::Attribute => out.extend(self.attributes(from).filter(|&a| keep(a))),
            Axis::Id => {
                let set = self.deref_ids(&self.string_value(from));
                out.extend(set.iter().filter(|&m| keep(m)));
            }
        }
        Dispatch::ran(AxisRoute::Walk, chunks)
    }

    /// Whether the pair `(x, y)` is in the axis relation `χ` — the
    /// membership test `x χ y` used by the predicate loops of MINCONTEXT.
    pub fn axis_relates(&self, axis: Axis, x: NodeId, y: NodeId) -> bool {
        match axis {
            Axis::SelfAxis => x == y,
            Axis::Child => self.parent(y) == Some(x) && !self.kind(y).is_attribute(),
            Axis::Parent => self.parent(x) == Some(y),
            Axis::Descendant => self.is_ancestor_of(x, y) && !self.kind(y).is_attribute(),
            Axis::Ancestor => self.is_ancestor_of(y, x),
            Axis::DescendantOrSelf => {
                x == y || (self.is_ancestor_of(x, y) && !self.kind(y).is_attribute())
            }
            Axis::AncestorOrSelf => x == y || self.is_ancestor_of(y, x),
            Axis::Following => y.index() >= self.subtree_end(x) && !self.kind(y).is_attribute(),
            Axis::Preceding => self.subtree_end(y) <= x.index() && !self.kind(y).is_attribute(),
            Axis::FollowingSibling => {
                self.parent(x) == self.parent(y)
                    && x < y
                    && !self.kind(y).is_attribute()
                    && !self.kind(x).is_attribute()
            }
            Axis::PrecedingSibling => {
                self.parent(x) == self.parent(y)
                    && y < x
                    && !self.kind(y).is_attribute()
                    && !self.kind(x).is_attribute()
            }
            Axis::Attribute => self.kind(y).is_attribute() && self.parent(y) == Some(x),
            Axis::Id => self.deref_ids(&self.string_value(x)).contains(y),
        }
    }
}

/// `idxχ(x, S)`: the 1-based index of `x` in `S` with respect to `<doc,χ`
/// (Section 2.1).  `S` must be sorted in document order.
pub fn idx_in_axis_order(axis: Axis, x: NodeId, s: &NodeSet) -> Option<usize> {
    let pos = s.position_of(x)?;
    Some(if axis.is_reverse() {
        s.len() - pos
    } else {
        pos + 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;
    use crate::par::WorkerPool;
    use crate::parser::parse;

    /// Brute-force reference: enumerate all pairs via `axis_relates`.
    fn brute_image(doc: &Document, axis: Axis, x: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        for y in doc.all_nodes() {
            if x.iter().any(|m| doc.axis_relates(axis, m, y)) {
                out.push(y);
            }
        }
        NodeSet::from_sorted_vec(out)
    }

    fn brute_preimage(doc: &Document, axis: Axis, y: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        for x in doc.all_nodes() {
            if y.iter().any(|m| doc.axis_relates(axis, x, m)) {
                out.push(x);
            }
        }
        NodeSet::from_sorted_vec(out)
    }

    fn doc1() -> Document {
        parse("<a><b><c/><d/></b><e>text</e><f><g/></f></a>").unwrap()
    }

    /// An attributed document: attribute nodes on several elements, mixed
    /// with text and nested structure, to exercise the attribute edge
    /// cases of both image and preimage (see DESIGN.md).
    fn doc2() -> Document {
        parse(r#"<a p="1"><b q="2"><c/><c r="3"/></b><e>t</e><f s="4" u="5"><g/></f></a>"#).unwrap()
    }

    fn all_elements(doc: &Document) -> NodeSet {
        doc.all_nodes()
            .filter(|&n| doc.kind(n).is_element())
            .collect()
    }

    #[test]
    fn image_matches_brute_force_on_all_axes() {
        for doc in [doc1(), doc2()] {
            let elems = all_elements(&doc);
            let everything: NodeSet = doc.all_nodes().collect();
            // Try every singleton (attributes and text included) and the
            // element / full sets.
            for axis in Axis::ALL {
                if axis == Axis::Id {
                    continue; // no ids in these docs; covered separately
                }
                for x in everything.iter() {
                    let xs = NodeSet::singleton(x);
                    let fast = axis_image(&doc, axis, &xs, &NodeTest::AnyNode);
                    let slow = brute_image(&doc, axis, &xs);
                    assert_eq!(fast, slow, "axis {axis} from {x}");
                }
                for set in [&elems, &everything] {
                    let fast = axis_image(&doc, axis, set, &NodeTest::AnyNode);
                    let slow = brute_image(&doc, axis, set);
                    assert_eq!(fast, slow, "axis {axis} from set of {}", set.len());
                }
            }
        }
    }

    #[test]
    fn preimage_matches_brute_force_on_all_axes() {
        // Includes the attributed document: mirror-axis images diverge
        // from χ⁻¹ when Y contains attribute nodes (and for attribute
        // *origins* of `parent` / `ancestor` / `following` / `preceding`),
        // which the direct preimage kernels must get right.
        for doc in [doc1(), doc2()] {
            let everything: NodeSet = doc.all_nodes().collect();
            for axis in Axis::ALL {
                if matches!(axis, Axis::Id) {
                    continue;
                }
                for y in everything.iter() {
                    let ys = NodeSet::singleton(y);
                    let fast = axis_preimage(&doc, axis, &ys);
                    let slow = brute_preimage(&doc, axis, &ys);
                    assert_eq!(fast, slow, "axis {axis} to {y}");
                }
                let fast = axis_preimage(&doc, axis, &everything);
                let slow = brute_preimage(&doc, axis, &everything);
                assert_eq!(fast, slow, "axis {axis} to full node set");
            }
        }
    }

    #[test]
    fn preimage_attribute_members_do_not_leak_through_tree_axes() {
        // Regression for the old mirror-axis shortcut: with Y = {an
        // attribute}, child/descendant preimages must be empty (tree axes
        // never produce attributes), parent must report the attribute
        // itself (parent(attr) = owner… i.e. x = attr has parent in Y only
        // if Y contains the owner), and descendant-or-self must report
        // exactly the attribute (its own descendant-or-self).
        let doc = doc2();
        let a = doc.document_element();
        let p_attr = doc.attributes(a).next().unwrap();
        let ys = NodeSet::singleton(p_attr);
        assert!(axis_preimage(&doc, Axis::Child, &ys).is_empty());
        assert!(axis_preimage(&doc, Axis::Descendant, &ys).is_empty());
        assert_eq!(
            axis_preimage(&doc, Axis::DescendantOrSelf, &ys),
            NodeSet::singleton(p_attr)
        );
        // Owner in Y: attributes are in the parent-axis preimage.
        let pre = axis_preimage(&doc, Axis::Parent, &NodeSet::singleton(a));
        assert!(pre.contains(p_attr));
        // Attribute origins reach forward through following/ancestor.
        let root_set = NodeSet::singleton(doc.root());
        assert!(axis_preimage(&doc, Axis::Ancestor, &root_set).contains(p_attr));
    }

    #[test]
    fn name_test_images_match_filtered_brute_force() {
        // The postings fast paths must agree with the generic sweep +
        // post-filter on every axis.
        for doc in [doc1(), doc2()] {
            let everything: NodeSet = doc.all_nodes().collect();
            let elems = all_elements(&doc);
            for label in ["a", "b", "c", "g", "q", "zzz"] {
                let test = NodeTest::name(label);
                for axis in Axis::ALL {
                    if axis == Axis::Id {
                        continue;
                    }
                    let t = test.resolve(&doc);
                    for set in [&elems, &everything] {
                        let fast = axis_image(&doc, axis, set, &test);
                        let mut slow = brute_image(&doc, axis, set);
                        slow.retain(|y| t.matches(&doc, axis, y));
                        assert_eq!(fast, slow, "axis {axis}, label {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn axis_nodes_ordering_forward_and_reverse() {
        let doc = doc1();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();

        // descendant: document order.
        let desc = doc.axis_nodes(Axis::Descendant, a, &NodeTest::Wildcard);
        let labels: Vec<_> = desc.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["b", "c", "d", "e", "f", "g"]);

        // ancestor: reverse document order (parent first).
        let anc = doc.axis_nodes(Axis::Ancestor, c, &NodeTest::AnyNode);
        assert_eq!(anc[0], b);
        assert_eq!(anc[1], a);
        assert_eq!(anc[2], doc.root());

        // preceding from <g>: reverse document order, no ancestors.
        let g = doc
            .descendants(a)
            .find(|&n| doc.label_str(n) == Some("g"))
            .unwrap();
        let prec = doc.axis_nodes(Axis::Preceding, g, &NodeTest::Wildcard);
        let labels: Vec<_> = prec.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["e", "d", "c", "b"]);
    }

    #[test]
    fn following_excludes_descendants_and_self() {
        let doc = doc1();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let foll = doc.axis_nodes(Axis::Following, b, &NodeTest::Wildcard);
        let labels: Vec<_> = foll.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["e", "f", "g"]);
    }

    #[test]
    fn sibling_axes() {
        let doc = doc1();
        let a = doc.document_element();
        let kids: Vec<_> = doc.children(a).collect();
        let (b, e, f) = (kids[0], kids[1], kids[2]);
        let fs = doc.axis_nodes(Axis::FollowingSibling, b, &NodeTest::Wildcard);
        assert_eq!(fs, vec![e, f]);
        let ps = doc.axis_nodes(Axis::PrecedingSibling, f, &NodeTest::Wildcard);
        assert_eq!(ps, vec![e, b]); // reverse document order
    }

    #[test]
    fn wildcard_selects_elements_only() {
        let doc = parse("<a>t1<b/>t2</a>").unwrap();
        let a = doc.document_element();
        let star = doc.axis_nodes(Axis::Child, a, &NodeTest::Wildcard);
        assert_eq!(star.len(), 1);
        let any = doc.axis_nodes(Axis::Child, a, &NodeTest::AnyNode);
        assert_eq!(any.len(), 3);
        let text = doc.axis_nodes(Axis::Child, a, &NodeTest::Text);
        assert_eq!(text.len(), 2);
    }

    #[test]
    fn name_test_resolution() {
        let doc = doc1();
        let a = doc.document_element();
        let bs = doc.axis_nodes(Axis::Descendant, a, &NodeTest::name("b"));
        assert_eq!(bs.len(), 1);
        let none = doc.axis_nodes(Axis::Descendant, a, &NodeTest::name("zzz"));
        assert!(none.is_empty());
    }

    #[test]
    fn attribute_axis_and_preimage() {
        let doc = parse(r#"<a p="1"><b q="2" r="3"/></a>"#).unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let attrs_b = doc.axis_nodes(Axis::Attribute, b, &NodeTest::Wildcard);
        assert_eq!(attrs_b.len(), 2);
        let q_only = doc.axis_nodes(Axis::Attribute, b, &NodeTest::name("q"));
        assert_eq!(q_only.len(), 1);
        // Preimage: owner elements of the attribute nodes.
        let ys = NodeSet::from_unsorted(attrs_b.clone());
        let owners = axis_preimage(&doc, Axis::Attribute, &ys);
        assert_eq!(owners, NodeSet::singleton(b));
        // Attributes never appear on tree axes.
        let desc = doc.axis_nodes(Axis::Descendant, a, &NodeTest::AnyNode);
        assert!(desc.iter().all(|&n| !doc.kind(n).is_attribute()));
    }

    #[test]
    fn id_axis_image_and_preimage() {
        // b's text references id 22; c has id 22.
        let doc = parse(r#"<a id="10"><b id="11">22</b><c id="22">x</c></a>"#).unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let c = doc.last_child(a).unwrap();
        let img = axis_image(&doc, Axis::Id, &NodeSet::singleton(b), &NodeTest::AnyNode);
        assert_eq!(img, NodeSet::singleton(c));
        let pre = axis_preimage(&doc, Axis::Id, &NodeSet::singleton(c));
        assert!(pre.contains(b));
        // Per-text-node tokenization (see DESIGN.md): the text node "22"
        // under b contributes the token to every ancestor's preimage.
        assert!(pre.contains(a));
    }

    #[test]
    fn idx_in_axis_order_forward_and_reverse() {
        let s = NodeSet::from_unsorted(vec![
            NodeId::from_index(2),
            NodeId::from_index(5),
            NodeId::from_index(9),
        ]);
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(2), &s),
            Some(1)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(9), &s),
            Some(3)
        );
        // Reverse axis: first in reverse doc order gets index 1.
        assert_eq!(
            idx_in_axis_order(Axis::Ancestor, NodeId::from_index(9), &s),
            Some(1)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Ancestor, NodeId::from_index(2), &s),
            Some(3)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(4), &s),
            None
        );
    }

    #[test]
    fn axis_inverse_round_trip() {
        for axis in Axis::ALL {
            if let Some(inv) = axis.inverse() {
                assert_eq!(inv.inverse(), Some(axis));
            }
        }
    }

    #[test]
    fn axis_parse_round_trip() {
        for axis in Axis::ALL {
            assert_eq!(Axis::from_str_opt(axis.as_str()), Some(axis));
        }
        assert_eq!(Axis::from_str_opt("sideways"), None);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full axis x test x origin pool sweep is minutes-long under the interpreter"
    )]
    fn parallel_kernels_match_sequential_bit_for_bit() {
        // The range driver's contract, kernel by kernel: a scan cut at
        // *any* points — random ones here, repeated (empty ranges),
        // adjacent (one-item ranges) and past the scan's end — and run on
        // a pool concatenates to exactly what the one inline range
        // produces, ordinals and axis order included, and dispatches to
        // the same route.
        let pool = WorkerPool::new(3);
        let ids = parse(r#"<a id="10"><b id="11">22 10</b><c id="22">x</c></a>"#).unwrap();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for doc in [doc1(), doc2(), ids] {
            let everything: NodeSet = doc.all_nodes().collect();
            let sparse: NodeSet = doc.all_nodes().filter(|n| n.index() % 3 == 1).collect();
            let single = NodeSet::singleton(doc.document_element());
            let sets = [single, sparse, all_elements(&doc), everything.clone()];
            let tests = [
                NodeTest::name("b"),
                NodeTest::name("c"),
                NodeTest::name("q"),
                NodeTest::Wildcard,
                NodeTest::AnyNode,
                NodeTest::Text,
                NodeTest::name("zzz"), // never matches
            ];
            let mut scratch = Scratch::new();
            let (mut one, mut many) = (NodeSet::new(), NodeSet::new());
            let (mut one_list, mut many_list) = (Vec::new(), Vec::new());
            for round in 0..6 {
                let mut cuts: Vec<usize> = (0..xorshift(&mut rng) % 7)
                    .map(|_| xorshift(&mut rng) as usize % (doc.len() + 3))
                    .collect();
                cuts.sort_unstable();
                let cut = Exec::cut_at(&pool, &cuts);
                let inline = Exec::INLINE;
                for axis in Axis::ALL {
                    let tag = format!("round {round} cuts {cuts:?} axis {axis}");
                    for set in &sets {
                        let a = axis_preimage_on(&doc, axis, set, &mut scratch, &mut one, inline);
                        let b = axis_preimage_on(&doc, axis, set, &mut scratch, &mut many, cut);
                        assert_eq!(many, one, "preimage {tag}");
                        assert!(a == 0 && (b == 0 || b == cuts.len() + 1), "{tag}");
                    }
                    for test in &tests {
                        let t = test.resolve(&doc);
                        for set in &sets {
                            let a =
                                axis_image_on(&doc, axis, set, t, &mut scratch, &mut one, inline);
                            let b = axis_image_on(&doc, axis, set, t, &mut scratch, &mut many, cut);
                            assert_eq!(many, one, "image {tag} test {test}");
                            assert_eq!((a.route, a.chunks), (b.route, 0), "{tag} test {test}");
                        }
                        for from in everything.iter() {
                            let a = doc.axis_nodes_on(axis, from, t, &mut one_list, inline);
                            let b = doc.axis_nodes_on(axis, from, t, &mut many_list, cut);
                            assert_eq!(many_list, one_list, "nodes {tag} test {test} from {from}");
                            assert_eq!(a.route, b.route, "{tag} test {test} from {from}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "gate-sized chunked sweeps are minutes-long under the interpreter"
    )]
    fn parallel_kernels_engage_above_threshold() {
        // A wide flat document just past the production gate, in postings
        // (the `a` label) and in arena ordinals: the scans really are cut
        // (non-zero chunk counts), still agreeing with the one inline
        // range; a scan below the gate stays inline on the same executor,
        // and so does every walk, whatever it reaches.
        let mut xml = String::from("<r><c><b/></c>");
        for i in 0..crate::par::GATE_ITEMS + 10 {
            xml.push_str(if i % 1000 == 0 {
                "<a><b/>t</a>"
            } else {
                "<a/>"
            });
        }
        xml.push_str("<c/></r>");
        let doc = parse(&xml).unwrap();
        let pool = WorkerPool::new(4);
        let exec = Exec::on(Some(&pool));
        let elems = all_elements(&doc);
        let mut scratch = Scratch::new();
        let (mut one, mut many) = (NodeSet::new(), NodeSet::new());
        for (axis, test, chunked) in [
            (Axis::Child, NodeTest::name("a"), true),
            (Axis::Descendant, NodeTest::name("a"), true),
            (Axis::Preceding, NodeTest::name("a"), true),
            (Axis::Preceding, NodeTest::Wildcard, true),
            (Axis::Following, NodeTest::AnyNode, true),
            (Axis::Child, NodeTest::name("c"), false),
            (Axis::Child, NodeTest::AnyNode, false),
            (Axis::Descendant, NodeTest::Wildcard, false),
            (Axis::FollowingSibling, NodeTest::AnyNode, false),
        ] {
            let t = test.resolve(&doc);
            let a = axis_image_on(&doc, axis, &elems, t, &mut scratch, &mut one, Exec::INLINE);
            let b = axis_image_on(&doc, axis, &elems, t, &mut scratch, &mut many, exec);
            assert_eq!(many, one, "axis {axis} test {test}");
            assert_eq!((a.route, a.chunks), (b.route, 0), "axis {axis} test {test}");
            assert_eq!(b.chunks > 0, chunked, "axis {axis} test {test}");
        }
        // Of the preimages, `following` still scans the arena; `ancestor`
        // copies subtree intervals out.
        for (axis, chunked) in [(Axis::Following, true), (Axis::Ancestor, false)] {
            axis_preimage_on(&doc, axis, &elems, &mut scratch, &mut one, Exec::INLINE);
            let chunks = axis_preimage_on(&doc, axis, &elems, &mut scratch, &mut many, exec);
            assert!((chunks > 0) == chunked && many == one, "preimage {axis}");
        }
        let last = elems.last().unwrap();
        let (mut one, mut many) = (Vec::new(), Vec::new());
        doc.axis_nodes_into(Axis::Preceding, last, ResolvedTest::Wildcard, &mut one);
        let ran = doc.axis_nodes_on(
            Axis::Preceding,
            last,
            ResolvedTest::Wildcard,
            &mut many,
            exec,
        );
        assert!(ran.chunks > 0 && many == one && one.windows(2).all(|w| w[0] > w[1]));
    }

    /// A seeded tree of about `elements` elements, fan-out 0–4 and depth
    /// ≤ 9, with 0–3 attributes an element and text, comments and PIs
    /// among the children.
    fn mixed_doc(seed: u64, elements: usize) -> Document {
        fn grow(b: &mut DocumentBuilder, rng: &mut u64, left: &mut usize, depth: usize) {
            let attrs = [("p", "1"), ("q", "2"), ("r", "3")];
            b.start_element(
                ["a", "b", "c"][xorshift(rng) as usize % 3],
                &attrs[..xorshift(rng) as usize % 4],
            );
            *left = left.saturating_sub(1);
            for _ in 0..xorshift(rng) % 5 {
                match xorshift(rng) % 8 {
                    0 => drop(b.text("t")),
                    1 => drop(b.comment("c")),
                    2 => drop(b.processing_instruction("pi", "d")),
                    _ if depth < 9 && *left > 0 => grow(b, rng, left, depth + 1),
                    _ => {}
                }
            }
            b.end_element();
        }
        let (mut b, mut rng, mut left) = (DocumentBuilder::new(), seed | 1, elements);
        b.start_element("r", &[]);
        while left > 0 {
            grow(&mut b, &mut rng, &mut left, 1);
        }
        b.end_element();
        b.finish().unwrap()
    }

    /// The axes with a walking arm.
    const WALKED: [Axis; 9] = [
        Axis::Child,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Attribute,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
    ];

    /// Slots read and bitmap words passed over by one `axis::test` image
    /// of `x`, and how many nodes the walk could reach before the test: the
    /// `node()` image — for the two arms that scan subtree intervals, with
    /// the attribute slots inside them, i.e. the inverse axis's preimage.
    fn work_and_reach(
        doc: &Document,
        axis: Axis,
        test: &NodeTest,
        x: &NodeSet,
        scratch: &mut Scratch,
    ) -> (usize, usize) {
        let mut out = NodeSet::new();
        if matches!(axis, Axis::Descendant | Axis::DescendantOrSelf) {
            let inverse = axis.inverse().expect("a tree axis");
            axis_preimage_into(doc, inverse, x, scratch, &mut out);
        } else {
            axis_image_into(doc, axis, x, ResolvedTest::AnyNode, scratch, &mut out);
        }
        let reach = out.len();
        let before = TOUCHED.get();
        axis_image_into(doc, axis, x, test.resolve(doc), scratch, &mut out);
        (TOUCHED.get() - before, reach)
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "10⁵-node documents are minutes-long under the interpreter"
    )]
    fn walks_cost_what_they_touch() {
        // A count, not a clock: link and kind slots read plus bitmap words
        // cleared or read back, per walked arm.  One constant, 2: at most
        // two slots per origin, two per node reached (its link and its
        // kind word), and the bitmap passed over twice (cleared, read
        // back) — at every density, nested and adversarial sets included.
        let wide = format!("<r>{}</r>", "<a/><b/>".repeat(3_000));
        let deep = format!("<r>{}{}</r>", "<a><a/>".repeat(40), "<a/></a>".repeat(40));
        let docs = [
            mixed_doc(7, 3_000),
            parse(&wide).unwrap(),
            parse(&deep).unwrap(),
        ];
        let tests = [
            NodeTest::AnyNode,
            NodeTest::Wildcard,
            NodeTest::Text,
            NodeTest::name("a"),
        ];
        let mut scratch = Scratch::new();
        let mut rng = 0x5eed_u64;
        for (d, doc) in docs.iter().enumerate() {
            let mut sets: Vec<NodeSet> = [3, 20, 80, 100]
                .iter()
                .map(|&pct| {
                    doc.all_nodes()
                        .filter(|_| xorshift(&mut rng) % 100 < pct)
                        .collect()
                })
                .collect();
            // Every other child of the document element; everything with
            // children (the spine, on the deep document).
            sets.push(doc.children(doc.document_element()).step_by(2).collect());
            sets.push(
                doc.all_nodes()
                    .filter(|&n| doc.first_child(n).is_some())
                    .collect(),
            );
            let words = doc.len().div_ceil(64);
            for x in sets.iter().filter(|x| x.len() > 1) {
                for arm in WALKED {
                    for test in &tests {
                        let named = matches!(test, NodeTest::Name(_));
                        if named && !matches!(arm, Axis::Ancestor | Axis::FollowingSibling) {
                            continue; // the other arms' name tests run on postings
                        }
                        let (work, reach) = work_and_reach(doc, arm, test, x, &mut scratch);
                        assert!(
                            work <= 2 * x.len() + 2 * reach + 2 * words,
                            "doc {d}, {arm}::{test} from {} of {} nodes: {work} for reach {reach}",
                            x.len(),
                            doc.len()
                        );
                    }
                }
            }
        }

        // And sublinear where the origins are few: 100 of them, inside one
        // subtree of a 2·10⁵-node document, read under 2 % of the arena —
        // of which clearing the bitmap, n/64 words before a link is read,
        // is 1.6 %.  (Origins spread over the whole document have all of
        // the bitmap read back as well: the bound above, nothing less.)
        let doc = mixed_doc(11, 100_000);
        let n = doc.len();
        assert!(n >= 200_000, "{n}");
        let top = doc
            .children(doc.document_element())
            .find(|&c| doc.subtree_end(c) - c.index() > 100)
            .unwrap();
        let x: NodeSet = (1..=100).map(|i| NodeId(top.0 + i)).collect();
        for arm in WALKED {
            for test in &tests[..3] {
                let (work, reach) = work_and_reach(&doc, arm, test, &x, &mut scratch);
                assert!(
                    work < n / 50,
                    "{arm}::{test} from 100 of {n} nodes: {work} for reach {reach}"
                );
            }
        }
    }

    #[test]
    fn kernels_return_the_route_they_ran() {
        use AxisRoute::{Postings, Sweep, Walk};
        let doc = doc1();
        let name = NodeTest::name("c").resolve(&doc);
        let any = NodeTest::AnyNode.resolve(&doc);
        let three: NodeSet = all_elements(&doc).iter().take(3).collect();
        let one = NodeSet::singleton(doc.document_element());
        let none = NodeSet::new();
        let mut scratch = Scratch::new();
        let mut out = NodeSet::new();
        for (axis, t, x, want) in [
            // Name tests over multi-node origin sets run on the postings…
            (Axis::Child, name, &three, Postings),
            (Axis::Attribute, name, &three, Postings),
            (Axis::Descendant, name, &three, Postings),
            (Axis::DescendantOrSelf, name, &three, Postings),
            (Axis::Following, name, &three, Postings),
            (Axis::Preceding, name, &three, Postings),
            // …the chain kernels are local walks, as are the sibling axes
            // and, under a non-name test, everything that follows links or
            // subtree intervals…
            (Axis::Parent, name, &three, Walk),
            (Axis::Ancestor, name, &three, Walk),
            (Axis::AncestorOrSelf, name, &three, Walk),
            (Axis::FollowingSibling, name, &three, Walk),
            (Axis::PrecedingSibling, any, &three, Walk),
            (Axis::Child, any, &three, Walk),
            (Axis::Parent, any, &three, Walk),
            (Axis::Ancestor, any, &three, Walk),
            (Axis::DescendantOrSelf, any, &three, Walk),
            (Axis::Attribute, any, &three, Walk),
            // …and what is left scans: the origins, the tail or head of the
            // arena, or all of it.
            (Axis::SelfAxis, name, &three, Sweep),
            (Axis::Following, any, &three, Sweep),
            (Axis::Preceding, any, &three, Sweep),
            (Axis::Id, name, &three, Sweep),
            // Singleton origins take the single-node walk, whose own
            // postings fast paths cover name-tested descendant(-or-self).
            (Axis::Descendant, name, &one, Postings),
            (Axis::Child, name, &one, Walk),
            (Axis::Child, any, &one, Walk),
            // The singleton exceptions stay on the set kernels: id, and
            // the sliced name-tested following/preceding postings.
            (Axis::Id, any, &one, Sweep),
            (Axis::Preceding, name, &one, Postings),
            // Empty origins and dead names never run a kernel at all.
            (Axis::Child, name, &none, Walk),
            (Axis::Descendant, ResolvedTest::NeverMatches, &three, Walk),
        ] {
            let ran = axis_image_on(&doc, axis, x, t, &mut scratch, &mut out, Exec::INLINE);
            assert_eq!(
                ran,
                Dispatch::ran(want, 0),
                "axis {axis} test {t:?} from {}",
                x.len()
            );
        }
        // One origin at a time — what each origin of a positional step pays.
        let from = doc.document_element();
        let mut list = Vec::new();
        for (axis, t, want) in [
            (Axis::Descendant, name, Postings),
            (Axis::Following, name, Postings),
            (Axis::Preceding, name, Walk),
            (Axis::Child, any, Walk),
        ] {
            let ran = doc.axis_nodes_on(axis, from, t, &mut list, Exec::INLINE);
            assert_eq!(ran, Dispatch::ran(want, 0), "axis {axis} test {t:?}");
        }
    }
}
