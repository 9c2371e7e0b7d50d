//! The invariant sweep behind [`open_snapshot`](crate::snapshot::open_snapshot):
//! every document invariant the accessors rely on, checked
//! column-at-a-time.
//!
//! Each per-entry rule is one `#[inline(always)] fn … -> bool` ("is bad").  A
//! sweep ORs its rule over a block of one column with no early exit, so
//! the loop stays branch-free and vectorises; only a block that reports
//! bad is re-scanned, entry by entry *with the same fn*, to name the
//! first offender.  The sweep is incremental so that a reader hashing
//! the backing file can check each block while it is still in cache
//! ([`ColumnSweep::advance`]); blocks may therefore arrive in any order,
//! and the violation reported is the one the row-wise validator this
//! replaced would have met first (the lowest `Rank`), not the first
//! one seen.  The one-tree rule — `parent`, `subtree_end` and the kind
//! word describe the same pre-order tree — is checked the same way, over
//! rows instead of one column (`ColumnSweep::check_tree`).
//!
//! The sweep's body is compiled twice from one `#[inline(always)]` source:
//! a generic copy, and on x86-64 one built for AVX-512 (F, VL, BW, DQ),
//! whose unsigned compares and mask registers the rules' OR-loops
//! vectorise into.  Each `ColumnSweep` picks its copy once, by what the
//! CPU reports; both apply the same fns, so they rank and word every
//! violation alike.  See DESIGN.md "Opening at memory speed".

use crate::document::{Document, NONE};
use crate::map::Mapping;
use crate::name::NameTable;
use crate::node::{KIND_TAG_BITS, KIND_TAG_MASK, TAG_ATTRIBUTE, TAG_ELEMENT, TAG_PI, TAG_ROOT};
use crate::snapshot::SnapshotError;
use crate::store::{Col, DocStore, RawColumns};
use std::ops::Range;
use std::sync::Arc;

/// Where a violation sits in the order of the checks: (phase, entry,
/// column within a node row).
type Rank = (u8, usize, u8);

// Phases, in reporting order.  The node phase is row-major: node `i`'s
// kind word, parent, subtree end and one-tree rule, then node `i + 1`.
const UTF8: u8 = 0;
const SHAPE: u8 = 1;
const ROOT: u8 = 2;
const NODES: u8 = 3;
const TEXT_LEN: u8 = 4;
const TEXT_OFF: u8 = 5;
const TEXT_END: u8 = 6;
/// First of five phases per postings family (element, then attribute):
/// offsets length, offsets monotone, offsets cover, entries, counts.
const POSTINGS: u8 = 7;
const IDS: u8 = 17;
const NAMES: u8 = 18;

// Progress slots: the three node columns by their row position, then the
// other streamed columns.  The one-tree rule's parts follow the columns in
// a row (see `TreeRule`).
const KINDS_COL: usize = 0;
const PARENT_COL: usize = 1;
const SUBTREE_END_COL: usize = 2;
const TEXT_OFF_COL: usize = 3;
const HEAP_COL: usize = 4;
const POST_COL: usize = 5;

/// A kind word is a known tag with an interned name exactly when the
/// tag carries one.
#[inline(always)]
fn kind_bad(word: u32, name_count: u32) -> bool {
    let tag = word & KIND_TAG_MASK;
    let nm = word >> KIND_TAG_BITS;
    let named = (tag == TAG_ELEMENT) | (tag == TAG_PI) | (tag == TAG_ATTRIBUTE);
    (tag > TAG_ATTRIBUTE) | (named & (nm >= name_count)) | (!named & (nm != 0))
}

/// A parent strictly precedes its child (`v >= n` implies `v >= i`), so
/// a crafted parent cycle fails here, not in the first ancestor walk.
#[inline(always)]
fn parent_bad(i: u32, v: u32) -> bool {
    (v != NONE) & (v >= i)
}

/// A subtree starts at its node and ends inside the arena, so every walk
/// along `c ← subtree_end(c)` moves forward and stops; the root's spans
/// the arena.
#[inline(always)]
fn subtree_end_bad(i: u32, end: u32, n: u32) -> bool {
    (end <= i) | (end > n) | ((i == 0) & (end != n))
}

/// The one-tree rule's parts, in the order a row reports them after its
/// columns: node `i ≥ 1` is a leaf unless an element, has for parent the
/// innermost node open at `i`, nests its subtree in the parent's, and, if
/// an attribute, directly follows its element or a sibling attribute.  (The
/// root spans the arena, so some node is always open.)
#[derive(Debug, Clone, Copy)]
enum TreeRule {
    Leaf = 3,
    Parent,
    Nests,
    Attribute,
}

/// The parts node `i ≥ 1` breaks by its row `[kind word, parent,
/// subtree_end]` and the row before.  "Innermost open" is checked in two
/// local halves — here, that `i - 1`, if still open at `i`, is the parent;
/// in [`link_faults`], that the node after a subtree ending inside its
/// parent's is the parent's child — which by induction over the rows are
/// the stack rule: the innermost node open at `i` is `i - 1` if that is
/// open, else the parent of the outermost node closing at `i`.
#[inline(always)]
fn local_faults(
    i: u32,
    [word, p, end]: [u32; 3],
    [before, prev_p, prev_end]: [u32; 3],
) -> [(bool, TreeRule); 3] {
    let (tag, prev) = (word & KIND_TAG_MASK, before & KIND_TAG_MASK);
    let attr_ok = (prev == TAG_ELEMENT) & (p == i - 1) | (prev == TAG_ATTRIBUTE) & (prev_p == p);
    [
        ((tag != TAG_ELEMENT) & (end != i + 1), TreeRule::Leaf),
        ((prev_end > i) & (p != i - 1), TreeRule::Parent),
        ((tag == TAG_ATTRIBUTE) & !attr_ok, TreeRule::Attribute),
    ]
}

/// Entry `k` of a node column, clamped to its last: a row holding garbage
/// (a `NONE` parent, an end past the arena), reported by a column rule
/// ranked before the tree rule, still reads in bounds.
#[inline(always)]
fn clamped(col: &[u32], k: u32) -> u32 {
    col[(k as usize).min(col.len() - 1)]
}

/// The parts read through the parent `p` of a node whose subtree ends at
/// `end`: it nests in the parent's (bad for the node), and the node at
/// `end`, if still inside the parent, is the parent's child (bad for the
/// node at `end`).
#[inline(always)]
fn link_faults(c: &RawColumns<'_>, p: u32, end: u32) -> [bool; 2] {
    let pend = clamped(c.subtree_end, p);
    [end > pend, (end < pend) & (clamped(c.parent, end) != p)]
}

/// The message for `rule` broken at node `i`, whose innermost open node
/// is `top` — read as [`link_faults`] reads, since it is built before the
/// rule's rank is compared with a column fault's in the same row.
fn tree_message(c: &RawColumns<'_>, i: usize, rule: TreeRule, top: u32) -> String {
    let (p, end) = (c.parent[i], c.subtree_end[i]);
    let what = match rule {
        TreeRule::Leaf => format!("only elements have descendants, but subtree_end is {end}"),
        TreeRule::Parent => format!("parent {p} is not {top}, the innermost node open there"),
        TreeRule::Nests => format!("subtree_end {end} overruns {}", clamped(c.subtree_end, p)),
        TreeRule::Attribute => {
            "attribute follows neither its element nor a sibling attribute".into()
        }
    };
    format!("node {i}: {what}")
}

/// Text offsets are monotone and within the heap (`heap_len` saturated to
/// `u32`); reads only the column.  That each lands on a char boundary is
/// [`boundary_bad`], checked once the heap has been read.
#[inline(always)]
fn text_off_bad(prev: u32, off: u32, heap_len: u32) -> bool {
    (off < prev) | (off > heap_len)
}

/// An offset inside the heap lands on a char boundary: a byte that is not
/// a UTF-8 continuation byte.  (The heap's end is one too.)
#[inline(always)]
fn boundary_bad(off: u32, heap: &[u8]) -> bool {
    heap.get(off as usize).is_some_and(|&b| (b as i8) < -0x40)
}

/// A posting names a node whose kind word is exactly its family's tag
/// and its group's name, above its predecessor in the group (`prev` is
/// −1 at a group's start).
#[inline(always)]
fn posting_bad(p: u32, prev: i64, word: u32, kinds: &[u32]) -> bool {
    (kinds.get(p as usize) != Some(&word)) | (i64::from(p) <= prev)
}

/// ORs `rule` over `block` with no early exit, threading its state
/// (`rule(state, entry) -> (bad, next state)`); returns the final state
/// and, when any entry was bad, the first bad one's position — found by
/// a second, entry-by-entry pass with the same `rule`.
#[inline(always)]
fn sweep_block<S: Copy>(
    block: &[u32],
    start: S,
    rule: impl Fn(S, u32) -> (bool, S),
) -> (S, Option<usize>) {
    let mut any = false;
    let mut state = start;
    for &v in block {
        let (bad, next) = rule(state, v);
        any |= bad;
        state = next;
    }
    if !any {
        return (state, None);
    }
    let mut at = start;
    let first = block.iter().position(|&v| {
        let (bad, next) = rule(at, v);
        at = next;
        bad
    });
    (state, first)
}

/// A broken invariant, `msg` naming the column and the first offending
/// entry.
fn invariant(msg: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("invalid document columns: {msg}"))
}

/// A text heap that is not UTF-8 after its first `valid_up_to` bytes.  It
/// backs `from_utf8_unchecked` views for the life of the document, so such
/// a region is never adopted.
fn invalid_utf8(valid_up_to: usize) -> SnapshotError {
    SnapshotError::InvalidUtf8 {
        region: "text heap",
        valid_up_to,
    }
}

/// How many entries of `col` lie wholly below address `end`.
fn prefix<T>(col: &[T], end: usize) -> usize {
    (end.saturating_sub(col.as_ptr() as usize) / std::mem::size_of::<T>()).min(col.len())
}

/// The incremental validator of a [`RawColumns`] set: construct it,
/// optionally [`advance`](ColumnSweep::advance) it as the backing bytes
/// are read, and [`finish`](ColumnSweep::finish) it into the
/// [`Document`] — the only way a borrowed-column document comes to be,
/// so every entry of every column has been checked by then.
pub(crate) struct ColumnSweep<'a> {
    cols: RawColumns<'a>,
    name_count: usize,
    /// Entries checked so far, per streamed column.
    done: [usize; POST_COL + 2],
    /// Rows the one-tree rule has been checked for.
    tree_done: usize,
    /// Nodes tagged element / attribute, counted by the kinds sweep.
    tagged: [usize; 2],
    /// Per postings family: the CSR group being swept and its last
    /// entry so far (−1 at a group's start).
    cursor: [(usize, i64); 2],
    /// Whether each family's offsets column is sound enough to group
    /// its entries by.
    offsets_ok: [bool; 2],
    /// Whether every heap byte validated so far was ASCII: then every
    /// in-bounds offset is a char boundary.
    heap_ascii: bool,
    /// `text_off` entries checked against [`boundary_bad`].
    boundary_done: usize,
    first: Option<(Rank, SnapshotError)>,
    /// Whether [`sweep_below`](ColumnSweep::sweep_below) runs the AVX-512
    /// copy: true only where [`wide_supported`] is.
    wide: bool,
}

/// Whether this CPU has every feature the AVX-512 copy of the sweep is
/// compiled for.  Never under Miri, which runs the generic copy.
fn wide_supported() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512vl")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

impl<'a> ColumnSweep<'a> {
    /// Starts a sweep of `cols` against a name table of `name_count`
    /// entries, checking the `O(names)` parts at once: column lengths,
    /// the root, the postings offsets.
    pub(crate) fn new(cols: RawColumns<'a>, name_count: usize) -> ColumnSweep<'a> {
        let mut s = ColumnSweep {
            cols,
            name_count,
            done: [0; POST_COL + 2],
            tree_done: 1,
            tagged: [0; 2],
            cursor: [(0, -1); 2],
            offsets_ok: [false; 2],
            heap_ascii: true,
            boundary_done: 0,
            first: None,
            wide: wide_supported(),
        };
        s.check_shape();
        s
    }

    /// Checks every column entry stored wholly inside `seen` that has
    /// not been checked yet — text offsets against char boundaries only
    /// once the whole text heap is inside `seen`, since that rule reads
    /// the heap at every offset.  Beside the entries checked, a rule
    /// reads only the node columns (`kinds`, `parent`, `subtree_end`).
    /// `seen` is meant to be the prefix of the columns' backing region
    /// read so far, so that each block is checked while a reader's pass
    /// still has it in cache; any slice is sound — it only decides
    /// *when* an entry is checked, and [`finish`](ColumnSweep::finish)
    /// checks whatever is left.
    pub(crate) fn advance(&mut self, seen: &[u8]) {
        self.sweep_below(seen.as_ptr() as usize + seen.len());
    }

    /// Checks what [`advance`](ColumnSweep::advance) has not, and adopts
    /// the columns as a [`Document`] borrowing from `keep` (which must
    /// own the memory all slices point into).  `names` must be the
    /// table of the `name_count` entries the sweep was started with.
    pub(crate) fn finish(
        mut self,
        names: NameTable,
        stamp: u64,
        keep: &Arc<Mapping>,
    ) -> Result<Document, SnapshotError> {
        self.conclude(names.len())?;
        let c = self.cols;
        let store = DocStore {
            kinds: Col::borrowed(c.kinds, keep),
            parent: Col::borrowed(c.parent, keep),
            subtree_end: Col::borrowed(c.subtree_end, keep),
            text_off: Col::borrowed(c.text_off, keep),
            text_heap: Col::borrowed(c.text_heap, keep),
            elem_off: Col::borrowed(c.elem_off, keep),
            elem_post: Col::borrowed(c.elem_post, keep),
            attr_off: Col::borrowed(c.attr_off, keep),
            attr_post: Col::borrowed(c.attr_post, keep),
            id_attrs: Col::borrowed(c.id_attrs, keep),
            id_elems: Col::borrowed(c.id_elems, keep),
        };
        Ok(Document {
            names,
            store,
            stamp,
        })
    }

    /// Checks every entry not checked yet, then what needs whole
    /// columns; the lowest-ranked violation of all, if there is one.
    fn conclude(&mut self, names_len: usize) -> Result<(), SnapshotError> {
        self.sweep_below(usize::MAX);
        if self.done[HEAP_COL] < self.cols.text_heap.len() {
            // The heap ends inside a multi-byte sequence.
            let at = self.done[HEAP_COL];
            self.note((UTF8, at, 0), invalid_utf8(at));
        }
        for family in 0..2 {
            self.check_counts(family);
        }
        self.check_ids();
        if names_len != self.name_count {
            self.invariant(
                (NAMES, 0, 0),
                format!(
                    "name table has {names_len} entries, the columns were checked against {}",
                    self.name_count
                ),
            );
        }
        self.first.take().map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Whether no violation ranked before `rank` is known.
    fn clear_below(&self, rank: Rank) -> bool {
        self.first.as_ref().is_none_or(|(r, _)| rank < *r)
    }

    /// Records `err` unless a violation of lower rank is already known.
    fn note(&mut self, rank: Rank, err: SnapshotError) {
        if self.clear_below(rank) {
            self.first = Some((rank, err));
        }
    }

    fn invariant(&mut self, rank: Rank, msg: String) {
        self.note(rank, invariant(&msg));
    }

    /// One postings family: its name, tag, first phase, offsets, entries.
    fn family(&self, family: usize) -> (&'static str, u32, u8, &'a [u32], &'a [u32]) {
        let c = &self.cols;
        if family == 0 {
            ("element", TAG_ELEMENT, POSTINGS, c.elem_off, c.elem_post)
        } else {
            (
                "attribute",
                TAG_ATTRIBUTE,
                POSTINGS + 5,
                c.attr_off,
                c.attr_post,
            )
        }
    }

    fn check_shape(&mut self) {
        let c = self.cols;
        let n = c.kinds.len();
        if n < 2 {
            self.invariant(
                (SHAPE, 0, 0),
                format!(
                    "document has {n} nodes; a well-formed document has at least root + \
                     document element"
                ),
            );
        } else if u32::try_from(n).is_err() {
            let msg = format!("document has {n} nodes; node ids are 32 bits");
            self.invariant((SHAPE, 0, 0), msg);
        }
        for (k, (name, col)) in [("parent", c.parent), ("subtree_end", c.subtree_end)]
            .into_iter()
            .enumerate()
        {
            if col.len() != n {
                let msg = format!("column {name} has {} entries, expected {n}", col.len());
                self.invariant((SHAPE, k + 1, 0), msg);
            }
        }
        if c.kinds.first().map(|w| w & KIND_TAG_MASK) != Some(TAG_ROOT)
            || c.parent.first() != Some(&NONE)
        {
            self.invariant((ROOT, 0, 0), "node 0 is not a parentless root node".into());
        }
        if c.text_off.len() != n + 1 {
            let msg = format!(
                "text_off has {} entries, expected {}",
                c.text_off.len(),
                n + 1
            );
            self.invariant((TEXT_LEN, 0, 0), msg);
        }
        if c.text_off
            .get(n)
            .is_some_and(|&end| end as usize != c.text_heap.len())
        {
            let msg = "final text offset does not cover the text heap";
            self.invariant((TEXT_END, 0, 0), msg.into());
        }
        // CSR postings offsets: sized to the name table, monotone and
        // covering (a lone offset has no group to put an entry in).
        for family in 0..2 {
            let (what, _, phase, off, posts) = self.family(family);
            let sized = off.len() == self.name_count + 1;
            let (_, unordered) = sweep_block(off, 0, |prev, o| {
                ((o < prev) | (o as usize > posts.len()), o)
            });
            let covering = off.last().copied().unwrap_or(0) as usize == posts.len()
                && (off.len() >= 2 || posts.is_empty());
            if !sized {
                let msg = format!(
                    "{what} postings offsets have {} entries, expected {}",
                    off.len(),
                    self.name_count + 1
                );
                self.invariant((phase, 0, 0), msg);
            }
            if unordered.is_some() {
                let msg = format!("{what} postings offsets are not monotone");
                self.invariant((phase + 1, 0, 0), msg);
            }
            if !covering {
                let msg = format!("{what} postings offsets do not cover the postings");
                self.invariant((phase + 2, 0, 0), msg);
            }
            self.offsets_ok[family] = sized && unordered.is_none() && covering;
        }
        if c.id_attrs.len() != c.id_elems.len() {
            let msg = "id index columns have mismatched lengths";
            self.invariant((IDS, 0, 0), msg.into());
        }
    }

    /// The not-yet-checked entries of `col` below address `end`, marked
    /// checked.
    fn take<T>(&mut self, slot: usize, col: &[T], end: usize) -> Range<usize> {
        let from = self.done[slot];
        let upto = prefix(col, end).max(from);
        self.done[slot] = upto;
        from..upto
    }

    /// Checks every entry stored below address `end` not checked yet, by
    /// the copy of [`ColumnSweep::sweep`] this CPU runs.
    #[allow(unsafe_code, reason = "calls the AVX-512 copy on a detected CPU")]
    fn sweep_below(&mut self, end: usize) {
        if self.wide {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            // SAFETY: `wide` is set only where `wide_supported` found every
            // feature `sweep_wide` is compiled for.
            return unsafe { self.sweep_wide(end) };
        }
        self.sweep(end);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
    fn sweep_wide(&mut self, end: usize) {
        self.sweep(end);
    }

    /// The body both copies compile: every rule over its not-yet-checked
    /// block, the one-tree rule inlined.
    #[inline(always)]
    fn sweep(&mut self, end: usize) {
        let c = self.cols;
        // `check_shape` refuses more nodes than a `u32` counts; more
        // names than that only make the kind check stricter.
        let n = c.kinds.len() as u32;
        let name_count = self.name_count as u32;

        // Kind words, and the two tag counts the postings are held to.
        let r = self.take(KINDS_COL, c.kinds, end);
        let block = &c.kinds[r.clone()];
        let ((elements, attributes), hit) = sweep_block(block, (0u32, 0u32), |(e, a), w| {
            let tag = w & KIND_TAG_MASK;
            let counts = (
                e + u32::from(tag == TAG_ELEMENT),
                a + u32::from(tag == TAG_ATTRIBUTE),
            );
            (kind_bad(w, name_count), counts)
        });
        self.tagged[0] += elements as usize;
        self.tagged[1] += attributes as usize;
        if let Some(k) = hit {
            let (i, word) = (r.start + k, block[k]);
            self.invariant(
                (NODES, i, KINDS_COL as u8),
                format!("node {i} has invalid packed kind word {word:#x}"),
            );
        }

        // Parents: NONE or before the node.
        let r = self.take(PARENT_COL, c.parent, end);
        let block = &c.parent[r.clone()];
        if let (_, Some(k)) = sweep_block(block, r.start as u32, |i, v| {
            (parent_bad(i, v), i.wrapping_add(1))
        }) {
            let (i, v) = (r.start + k, block[k]);
            self.invariant(
                (NODES, i, PARENT_COL as u8),
                format!("node {i}: parent link {v} out of range or against pre-order"),
            );
        }
        let r = self.take(SUBTREE_END_COL, c.subtree_end, end);
        let block = &c.subtree_end[r.clone()];
        if let (_, Some(k)) = sweep_block(block, r.start as u32, |i, v| {
            (subtree_end_bad(i, v, n), i.wrapping_add(1))
        }) {
            let (i, se) = (r.start + k, block[k]);
            self.invariant(
                (NODES, i, SUBTREE_END_COL as u8),
                format!("node {i}: subtree_end {se} out of range"),
            );
        }
        self.check_tree();

        // Text heap: monotone offsets within it.
        let r = self.take(TEXT_OFF_COL, c.text_off, end);
        let prev = r.start.checked_sub(1).map_or(0, |p| c.text_off[p]);
        let heap_len = u32::try_from(c.text_heap.len()).unwrap_or(u32::MAX);
        let block = &c.text_off[r.clone()];
        if let (_, Some(k)) = sweep_block(block, prev, |prev, off| {
            (text_off_bad(prev, off, heap_len), off)
        }) {
            self.text_off_fault(r.start + k);
        }

        // The heap itself: UTF-8, resumed at the start of a sequence a
        // previous block's end cut in two.
        let from = self.done[HEAP_COL];
        let upto = prefix(c.text_heap, end);
        if upto > from {
            let block = &c.text_heap[from..upto];
            self.heap_ascii &= block.is_ascii();
            match std::str::from_utf8(block) {
                Ok(_) => self.done[HEAP_COL] = upto,
                Err(e) => {
                    let at = from + e.valid_up_to();
                    self.done[HEAP_COL] = if e.error_len().is_none() {
                        at // a sequence the block's end cut: resume here
                    } else {
                        self.note((UTF8, at, 0), invalid_utf8(at));
                        // Nothing past the first invalid byte can rank lower.
                        c.text_heap.len()
                    };
                }
            }
        }

        // Offsets on char boundaries, once the whole heap has been read,
        // so that no offset reads a heap byte before `end` passes it.  An
        // ASCII heap has no continuation byte to land on.
        if self.done[HEAP_COL] == c.text_heap.len() && !self.heap_ascii {
            let r = self.boundary_done..self.done[TEXT_OFF_COL];
            self.boundary_done = r.end;
            let block = &c.text_off[r.clone()];
            if let (_, Some(k)) =
                sweep_block(block, (), |(), off| (boundary_bad(off, c.text_heap), ()))
            {
                self.text_off_fault(r.start + k);
            }
        }

        // CSR postings entries, one tight loop per group: sorted, in
        // range, each naming a node of exactly this family and label.
        for family in 0..2 {
            let (what, tag, phase, off, posts) = self.family(family);
            let r = self.take(POST_COL + family, posts, end);
            if !self.offsets_ok[family] {
                continue;
            }
            let (mut group, mut prev) = self.cursor[family];
            let mut i = r.start;
            while i < r.end {
                while off[group + 1] as usize <= i {
                    group += 1;
                    prev = -1;
                }
                let stop = (off[group + 1] as usize).min(r.end);
                let word = tag | ((group as u32) << KIND_TAG_BITS);
                let (last, hit) = sweep_block(&posts[i..stop], prev, |prev, p| {
                    (posting_bad(p, prev, word, c.kinds), i64::from(p))
                });
                if let Some(k) = hit {
                    self.invariant(
                        (phase + 3, i + k, 0),
                        format!(
                            "{what} postings entry {} is out of range, unsorted, or not a \
                             matching node",
                            i + k
                        ),
                    );
                }
                prev = last;
                i = stop;
            }
            self.cursor[family] = (group, prev);
        }
    }

    /// Records `text_off[i]` as breaking either half of the offset rule:
    /// one rank and one message, so the lower entry wins whichever half
    /// found it.
    fn text_off_fault(&mut self, i: usize) {
        let off = self.cols.text_off[i];
        self.invariant(
            (TEXT_OFF, i, 0),
            format!("text_off[{i}] = {off} is not a monotone char boundary"),
        );
    }

    /// The one-tree rule over the rows whose columns are checked, swept
    /// as a column is: every part ORed with no early exit (two passes, so
    /// the first vectorises), and only if one is bad the rows again for
    /// the lowest-ranked fault.  Linear; allocates only the message.
    #[inline(always)]
    fn check_tree(&mut self) {
        let c = self.cols;
        let from = self.tree_done;
        let upto = self.done[..3].iter().copied().min().unwrap_or(0);
        // No root or mismatched lengths (reported already): no tree.
        if upto <= from || !self.clear_below((NODES, 0, 0)) {
            return;
        }
        self.tree_done = upto;
        let rows = |back: usize| {
            let at = |col: &'a [u32]| &col[from - back..upto - back];
            at(c.kinds).iter().zip(at(c.parent)).zip(at(c.subtree_end))
        };
        let (mut any, pairs) = (false, (from as u32..).zip(rows(0).zip(rows(1))));
        for (i, (((&w, &p), &e), ((&w0, &p0), &e0))) in pairs {
            let faults = local_faults(i, [w, p, e], [w0, p0, e0]);
            any |= faults.iter().fold(false, |any, &(bad, _)| any | bad);
        }
        for (&p, &e) in c.parent[from..upto].iter().zip(&c.subtree_end[from..upto]) {
            let [a, b] = link_faults(&c, p, e);
            any |= a | b;
        }
        if any {
            self.tree_fault(from..upto);
        }
    }

    /// Records the lowest-ranked one-tree fault among `rows`, which hold
    /// one.
    #[cold]
    #[inline(never)]
    fn tree_fault(&mut self, rows: Range<usize>) {
        let c = self.cols;
        let row = |j: usize| [c.kinds[j], c.parent[j], c.subtree_end[j]];
        let first = rows
            .flat_map(|j| {
                let ([_, p, e], i) = (row(j), j as u32);
                let local = local_faults(i, row(j), row(j - 1));
                let own = local.into_iter().find(|&(bad, _)| bad);
                let [nests, next] = link_faults(&c, p, e);
                // (A garbage `subtree_end` can point anywhere.)
                let next = next && (j..c.parent.len()).contains(&(e as usize));
                [
                    own.map(|(_, rule)| (j, rule, i - 1)),
                    nests.then_some((j, TreeRule::Nests, p)),
                    next.then_some((e as usize, TreeRule::Parent, p)),
                ]
            })
            .flatten()
            .min_by_key(|&(i, rule, _)| (i, rule as u8));
        if let Some((i, rule, top)) = first {
            let rank = (NODES, i, rule as u8);
            if self.clear_below(rank) {
                self.invariant(rank, tree_message(&c, i, rule, top));
            }
        }
    }

    /// Group sizes against the kinds column, once every check ranked
    /// before it has passed.  Every posting passed
    /// [`posting_bad`], so the groups are disjoint sets of distinct
    /// nodes, group `g` ⊆ the nodes whose kind word is `(tag, g)`; if
    /// the groups together hold as many entries as the kinds column has
    /// nodes of the tag, every inclusion is an equality — each group is
    /// *exactly* the matching set, and a crafted snapshot cannot make
    /// the name-test fast paths (or `element_count`) disagree with the
    /// kind sweeps.  Per-name counts are taken only to name the first
    /// group that falls short.
    fn check_counts(&mut self, family: usize) {
        let (what, tag, phase, off, posts) = self.family(family);
        if !self.clear_below((phase + 4, 0, 0))
            || (posts.len() == self.tagged[family] && off[0] == 0)
        {
            return;
        }
        let mut counts = vec![0u32; self.name_count];
        for &word in self.cols.kinds {
            if word & KIND_TAG_MASK == tag {
                counts[(word >> KIND_TAG_BITS) as usize] += 1;
            }
        }
        let short = (0..counts.len()).find(|&g| off[g + 1] - off[g] != counts[g]);
        self.invariant(
            (phase + 4, 0, 0),
            match short {
                Some(g) => format!(
                    "{what} postings for name {g} have {} entries, the kinds column has {}",
                    off[g + 1] - off[g],
                    counts[g]
                ),
                None => format!("{what} postings do not match the kinds column"),
            },
        );
    }

    /// Id index: in-range, sorted (strictly — keys are unique) by key
    /// bytes.  Random access into columns that must have passed, so it
    /// runs once, last, and only if everything else did.
    fn check_ids(&mut self) {
        if !self.clear_below((IDS, 0, 0)) {
            return;
        }
        let c = self.cols;
        let n = c.kinds.len();
        let span = |a: u32| -> &[u8] {
            let s = c.text_off[a as usize] as usize;
            let e = c.text_off[a as usize + 1] as usize;
            &c.text_heap[s..e]
        };
        for (i, (&a, &e)) in c.id_attrs.iter().zip(c.id_elems).enumerate() {
            if a as usize >= n || e as usize >= n {
                return self.invariant((IDS, i, 0), format!("id index entry {i} out of range"));
            }
            if i > 0 && span(c.id_attrs[i - 1]) >= span(a) {
                return self.invariant(
                    (IDS, i, 1),
                    format!("id index keys are not strictly sorted at entry {i}"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::serialize::to_xml_string;
    use crate::testgen::{generated, xorshift};

    /// Owned copies of a document's columns, to break and re-borrow.
    struct Owned {
        u32s: [Vec<u32>; 10],
        heap: Vec<u8>,
        names: usize,
    }

    const KINDS: usize = 0;
    const PARENT: usize = 1;
    const SUBTREE_END: usize = 2;
    const TEXT_OFFS: usize = 3;
    const ELEM_OFF: usize = 4;
    const ELEM_POST: usize = 5;
    const ID_ATTRS: usize = 8;

    impl Owned {
        fn of(xml: &str) -> Owned {
            Owned::of_doc(&parse(xml).unwrap())
        }

        fn of_doc(doc: &Document) -> Owned {
            let c = doc.raw_columns();
            Owned {
                u32s: [
                    c.kinds,
                    c.parent,
                    c.subtree_end,
                    c.text_off,
                    c.elem_off,
                    c.elem_post,
                    c.attr_off,
                    c.attr_post,
                    c.id_attrs,
                    c.id_elems,
                ]
                .map(<[u32]>::to_vec),
                heap: c.text_heap.to_vec(),
                names: doc.names().len(),
            }
        }

        fn cols(&self) -> RawColumns<'_> {
            let u = &self.u32s;
            RawColumns {
                kinds: &u[0],
                parent: &u[1],
                subtree_end: &u[2],
                text_off: &u[3],
                text_heap: &self.heap,
                elem_off: &u[4],
                elem_post: &u[5],
                attr_off: &u[6],
                attr_post: &u[7],
                id_attrs: &u[8],
                id_elems: &u[9],
            }
        }

        fn verdict(&self) -> Result<(), SnapshotError> {
            ColumnSweep::new(self.cols(), self.names).conclude(self.names)
        }

        /// The verdict of the generic copy or the AVX-512 one, the columns
        /// reached in address order `step` bytes at a time (`None`: all
        /// at once, by `conclude`).
        fn verdict_by(&self, wide: bool, step: Option<usize>) -> Result<(), SnapshotError> {
            let mut sweep = ColumnSweep::new(self.cols(), self.names);
            sweep.wide = wide;
            if let Some(step) = step {
                let mut spans: Vec<(usize, usize)> = self
                    .u32s
                    .iter()
                    .map(|c| (c.as_ptr() as usize, 4 * c.len()))
                    .collect();
                spans.push((self.heap.as_ptr() as usize, self.heap.len()));
                spans.sort_unstable();
                for (start, len) in spans {
                    for at in (0..=len).step_by(step) {
                        sweep.sweep_below(start + at);
                    }
                }
            }
            sweep.conclude(self.names)
        }
    }

    const DOC: &str = r#"<lib x="1"><b id="b1">téxt</b><!--c--><b id="b2" y="2">two<i/></b></lib>"#;

    /// `xml` with every non-ASCII char dropped, parsed.
    fn ascii_twin(xml: &str) -> Document {
        parse(&xml.chars().filter(char::is_ascii).collect::<String>()).unwrap()
    }

    /// The text-offset rule as one rule, before its char-boundary half
    /// waited for the heap: monotone, and on a char boundary — the heap's
    /// end, or a byte that is not a UTF-8 continuation byte.
    fn whole_text_off_bad(prev: u32, off: u32, heap: &[u8]) -> bool {
        let boundary = match heap.get(off as usize) {
            Some(&b) => (b as i8) >= -0x40,
            None => off as usize == heap.len(),
        };
        (off < prev) | !boundary
    }

    /// The fault [`whole_text_off_bad`] names first in `o`, worded as the
    /// sweep words it.
    fn whole_text_off_fault(o: &Owned) -> Option<SnapshotError> {
        let offs = &o.u32s[TEXT_OFFS];
        let (_, first) = sweep_block(offs, 0, |prev, off| {
            (whole_text_off_bad(prev, off, &o.heap), off)
        });
        first.map(|i| {
            invariant(&format!(
                "text_off[{i}] = {} is not a monotone char boundary",
                offs[i]
            ))
        })
    }

    /// `o` with its text offsets and heap in fresh allocations, the heap
    /// stored below the offsets (`heap_first`) or above them, so that a
    /// sweep in address order reaches it before or after them.  Where
    /// the allocator puts a block is its own choice, so pairs are drawn
    /// (and kept, so that each draw is new) until one lies as asked.
    fn placed(o: &Owned, heap_first: bool) -> Owned {
        let mut drawn = Vec::new();
        for _ in 0..64 {
            // Allocated in the order asked for, which often suffices.
            let pair = if heap_first {
                let heap = o.heap.clone();
                (heap, o.u32s[TEXT_OFFS].clone())
            } else {
                let offs = o.u32s[TEXT_OFFS].clone();
                (o.heap.clone(), offs)
            };
            if ((pair.0.as_ptr() as usize) < pair.1.as_ptr() as usize) == heap_first {
                let mut u32s = o.u32s.clone();
                u32s[TEXT_OFFS] = pair.1;
                return Owned {
                    u32s,
                    heap: pair.0,
                    names: o.names,
                };
            }
            drawn.push(pair);
        }
        let side = if heap_first { "below" } else { "above" };
        panic!("64 allocations never put the heap {side} its offsets")
    }

    #[test]
    fn a_built_document_passes() {
        assert_eq!(Owned::of(DOC).verdict(), Ok(()));
    }

    #[test]
    fn the_lowest_ranked_violation_wins_whatever_order_blocks_arrive_in() {
        // Row-major: a row's columns, then its one-tree rule, then the next
        // row.  (Node 6 is the comment, a child of node 1; node 3 closed
        // at 6; node 7 is the second `b`.)
        type Breakage = fn(&mut Owned);
        let cases: [(Breakage, &str); 4] = [
            (
                |o| {
                    o.u32s[ELEM_POST][0] = 0;
                    o.u32s[PARENT][2] = 2;
                    o.u32s[SUBTREE_END][1] = 0;
                },
                "node 1: subtree_end 0 out of range",
            ),
            (
                |o| {
                    o.u32s[ELEM_POST][0] = 0;
                    o.u32s[SUBTREE_END][10] = 0;
                    o.u32s[PARENT][6] = 3;
                },
                "node 6: parent 3 is not 1, the innermost node open there",
            ),
            (
                |o| {
                    o.u32s[PARENT][6] = 3;
                    o.u32s[KINDS][6] = 7;
                },
                "node 6 has invalid packed kind word 0x7",
            ),
            (
                // A garbage row whose own tree fault is read through a
                // parent and an end outside the arena.
                |o| {
                    o.u32s[PARENT][7] = NONE;
                    o.u32s[SUBTREE_END][7] = 13;
                },
                "node 7: subtree_end 13 out of range",
            ),
        ];
        for (breakage, want) in cases {
            let mut o = Owned::of(DOC);
            breakage(&mut o);
            let want = invariant(want);
            assert_eq!(o.verdict().unwrap_err(), want);
            // Every column as one block, in each rotation of the column
            // order, and then entry by entry from the back.
            let mut ends: Vec<usize> = o
                .u32s
                .iter()
                .map(|c| c.as_ptr() as usize + 4 * c.len())
                .collect();
            ends.push(o.heap.as_ptr() as usize + o.heap.len());
            for rotation in 0..ends.len() {
                let mut sweep = ColumnSweep::new(o.cols(), o.names);
                for k in 0..ends.len() {
                    sweep.sweep_below(ends[(k + rotation) % ends.len()]);
                }
                let got = sweep.conclude(o.names).unwrap_err();
                assert_eq!(got, want, "rotation {rotation}");
            }
            let mut sweep = ColumnSweep::new(o.cols(), o.names);
            for col in o.u32s.iter().rev() {
                for k in 0..=col.len() {
                    sweep.sweep_below(col.as_ptr() as usize + 4 * k);
                }
            }
            assert_eq!(sweep.conclude(o.names).unwrap_err(), want);
            // Row by row: each step reaches one more entry of the node
            // column stored highest, so the one-tree rule sees one row a
            // call — every row starts a range, as at a block edge.
            let top = o.u32s[..3].iter().map(|c| c.as_ptr() as usize).max();
            let mut sweep = ColumnSweep::new(o.cols(), o.names);
            for k in 0..=o.u32s[KINDS].len() {
                sweep.sweep_below(top.unwrap() + 4 * k);
            }
            assert_eq!(sweep.conclude(o.names).unwrap_err(), want, "row by row");
        }
    }

    #[test]
    fn degenerate_shapes_are_errors_not_panics() {
        type Breakage = fn(&mut Owned);
        let cases: [(&str, Breakage); 9] = [
            ("no nodes", |o| o.u32s.iter_mut().for_each(Vec::clear)),
            ("one node", |o| {
                o.u32s[..4].iter_mut().for_each(|c| c.truncate(1));
            }),
            ("short column", |o| o.u32s[PARENT].truncate(3)),
            ("long column", |o| o.u32s[SUBTREE_END].push(1)),
            ("no offsets", |o| o.u32s[ELEM_OFF].clear()),
            ("lone offset", |o| {
                o.u32s[ELEM_OFF] = vec![o.u32s[ELEM_POST].len() as u32];
            }),
            ("offsets past the postings", |o| {
                *o.u32s[ELEM_OFF].last_mut().unwrap() += 1;
            }),
            ("no names", |o| o.names = 0),
            ("ids out of step", |o| o.u32s[ID_ATTRS].push(0)),
        ];
        for (what, breakage) in cases {
            let mut o = Owned::of(DOC);
            breakage(&mut o);
            assert!(o.verdict().is_err(), "{what} passed");
        }
        // A name table of another size than the one swept against.
        let o = Owned::of(DOC);
        let e = ColumnSweep::new(o.cols(), o.names)
            .conclude(o.names + 1)
            .unwrap_err();
        assert!(e.to_string().contains("name table"), "{e}");
    }

    #[test]
    fn postings_must_be_exactly_the_matching_nodes() {
        // Dropping a posting (and closing the offsets over the gap) keeps
        // every remaining entry valid: only the count gives it away.
        let mut o = Owned::of(DOC);
        let b = parse(DOC).unwrap().find_name("b").unwrap().index();
        assert_eq!(o.u32s[ELEM_OFF][b + 1] - o.u32s[ELEM_OFF][b], 2);
        let at = o.u32s[ELEM_OFF][b] as usize;
        o.u32s[ELEM_POST].remove(at);
        for off in &mut o.u32s[ELEM_OFF][b + 1..] {
            *off -= 1;
        }
        assert_eq!(
            o.verdict(),
            Err(invariant(&format!(
                "element postings for name {b} have 1 entries, the kinds column has 2"
            )))
        );
        // A kind word renamed to a label that has postings of its own.
        let mut o = Owned::of(DOC);
        let i = o.u32s[ELEM_POST][at] as usize;
        o.u32s[KINDS][i] = TAG_ELEMENT; // name 0
        assert!(o.verdict().unwrap_err().to_string().contains("postings"));
    }

    #[test]
    fn a_sequence_cut_by_a_block_is_resumed_not_rejected() {
        let o = Owned::of("<a>aé€😀z</a>");
        let heap = o.heap.as_ptr() as usize;
        for cut in 0..=o.heap.len() {
            let mut sweep = ColumnSweep::new(o.cols(), o.names);
            sweep.sweep_below(heap + cut);
            assert_eq!(sweep.conclude(o.names), Ok(()), "cut at {cut}");
        }
        let mut o = o;
        let last = o.heap.len() - 1;
        o.heap[last] = 0xC3;
        assert_eq!(o.verdict(), Err(invalid_utf8(last)));
    }

    #[test]
    fn text_off_halves_give_the_whole_rules_verdict() {
        // Every offset moved by up to two bytes, over a heap with
        // multi-byte text and over its ASCII twin: the halves together
        // refuse what the single rule refused, with its message, whether
        // the heap is reached before the offsets, after them, or all at
        // once.
        let (mut refused, mut inside) = ([0; 2], 0);
        for (ascii, doc) in [parse(DOC).unwrap(), ascii_twin(DOC)].iter().enumerate() {
            let built = Owned::of_doc(doc);
            assert_eq!(built.heap.is_ascii(), ascii == 1);
            for i in 0..built.u32s[TEXT_OFFS].len() {
                for delta in [-2, -1, 1, 2] {
                    let mut o = Owned::of_doc(doc);
                    let off = &mut o.u32s[TEXT_OFFS][i];
                    *off = off.wrapping_add_signed(delta);
                    let at = o.heap.get(*off as usize);
                    inside += usize::from(at.is_some_and(|&b| b & 0xC0 == 0x80));
                    let want = whole_text_off_fault(&o);
                    refused[ascii] += usize::from(want.is_some());
                    let got = [
                        o.verdict(),
                        placed(&o, true).verdict_by(false, Some(4)),
                        placed(&o, false).verdict_by(false, Some(4)),
                    ];
                    for (how, got) in ["at once", "heap first", "heap last"].iter().zip(got) {
                        let what = format!("text_off[{i}] moved by {delta}, {how}");
                        match &want {
                            Some(want) => assert_eq!(got.as_ref(), Err(want), "{what}"),
                            None => assert!(
                                !got.is_err_and(|e| e.to_string().contains(": text_off[")),
                                "{what}"
                            ),
                        }
                    }
                }
            }
        }
        assert!(inside > 0, "no offset was moved into a multi-byte sequence");
        assert!(refused.iter().all(|&r| r > 0), "{refused:?}");
        // On an ASCII heap every offset inside it is a boundary; one past
        // its end is not.
        let mut o = Owned::of_doc(&ascii_twin(DOC));
        let last = o.u32s[TEXT_OFFS].len() - 1;
        o.u32s[TEXT_OFFS][last] += 1;
        let want = whole_text_off_fault(&o);
        assert_eq!(
            want,
            Some(invariant(&format!(
                "text_off[{last}] = {} is not a monotone char boundary",
                o.heap.len() + 1
            )))
        );
        for heap_first in [true, false] {
            let got = placed(&o, heap_first).verdict_by(false, Some(4));
            assert_eq!(got.err(), want, "heap first: {heap_first}");
        }
    }

    #[test]
    fn both_copies_give_every_verdict_alike_at_every_split() {
        if !wide_supported() {
            eprintln!("this CPU lacks AVX-512 F/VL/BW/DQ: only the generic copy is swept");
        }
        // Over multi-byte text, and over its ASCII twin, whose offsets
        // need no char-boundary read.  The interpreter runs only the
        // generic copy; a handful of mutants over a small document keeps
        // its pass short.
        let (elements, mutants) = if cfg!(miri) { (20, 8) } else { (300, 160) };
        let doc = generated(0x5eed_cafe, elements).0;
        let twin = ascii_twin(&to_xml_string(&doc));
        for (ascii, built) in [(false, Owned::of_doc(&doc)), (true, Owned::of_doc(&twin))] {
            assert_eq!(built.heap.is_ascii(), ascii);
            sweep_mutants_at_every_split(&built, mutants);
        }
    }

    /// Both copies of the sweep give each of `mutants` seeded mutants of
    /// `built` (the first is `built` itself) one verdict at every split.
    fn sweep_mutants_at_every_split(built: &Owned, mutants: usize) {
        let wide = wide_supported();
        let (mut rng, mut refused) = (0x0dd_ba11_u64, 0);
        for mutant in 0..mutants {
            let mut o = Owned {
                u32s: built.u32s.clone(),
                heap: built.heap.clone(),
                names: built.names,
            };
            // Mutant 0 is the built document itself.
            let edits = if mutant == 0 {
                0
            } else {
                1 + xorshift(&mut rng) % 3
            };
            for _ in 0..edits {
                let col = (xorshift(&mut rng) % 11) as usize;
                let r = xorshift(&mut rng);
                if col == 10 {
                    let at = r as usize % o.heap.len();
                    o.heap[at] = (r >> 32) as u8;
                    continue;
                }
                let v = &mut o.u32s[col];
                let (len, at) = (v.len(), r as usize % v.len());
                v[at] = match (r >> 32) % 5 {
                    0 => v[at].wrapping_add(1),
                    1 => v[at].wrapping_sub(1),
                    2 => NONE,
                    3 => v[(at + 1) % len],
                    _ => (r >> 40) as u32 % (len as u32 + 2),
                };
            }
            let want = o.verdict_by(false, None);
            assert!(mutant > 0 || want.is_ok(), "{want:?}");
            refused += usize::from(want.is_err());
            let steps: &[Option<usize>] = if cfg!(miri) {
                &[None, Some(52)]
            } else {
                &[None, Some(4), Some(52), Some(1000)]
            };
            for &step in steps {
                for copy in [false, true].into_iter().filter(|&c| !c || wide) {
                    let got = o.verdict_by(copy, step);
                    assert_eq!(got, want, "mutant {mutant}, wide {copy}, step {step:?}");
                }
            }
        }
        assert!(
            refused > mutants / 2,
            "only {refused} of {mutants} mutants refused"
        );
    }
}
