//! Flat column storage behind [`Document`]: owned heap buffers or
//! zero-copy views into a memory-mapped snapshot.
//!
//! Every piece of a document is one of a fixed set of *columns* — plain
//! `u32`/`u8` arrays with offset-based (CSR) indirection instead of
//! nested allocations:
//!
//! * the seven per-node structure columns (`kinds` packs the node kind
//!   and its interned name into one word, see [`NodeKind`] packing),
//! * the text heap: one byte buffer holding every content string, with a
//!   per-node offset column (`text_off[n]..text_off[n+1]` is node `n`'s
//!   content — nodes are appended in pre-order, so offsets are monotone),
//! * CSR label postings: one flat node-id array per posting family
//!   (element / attribute) plus a per-name offset column,
//! * the id index: `(attribute node, owner element)` pairs sorted by the
//!   attribute's content bytes, so `element_by_id` is a binary search
//!   whose keys live in the text heap (no separate key storage).
//!
//! A [`Col<T>`] is either **owned** (a `Vec<T>`, the
//! [`DocumentBuilder`](crate::DocumentBuilder) path) or **borrowed** from
//! a [`StableBytes`] region (the `minctx-index` snapshot path).  Both
//! deref to `&[T]` through one cached pointer, so the axis kernels and
//! evaluators run unchanged — and equally hot — on either backing.
//!
//! [`Document`]: crate::Document
//! [`NodeKind`]: crate::NodeKind

use crate::node::NodeId;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable byte region with a stable address — the backing of
/// borrowed columns (a memory-mapped snapshot file, or a heap buffer on
/// platforms without `mmap`).
///
/// # Safety
///
/// Implementations must guarantee that `bytes()` returns the *same*
/// pointer and length for the lifetime of the value, and that the bytes
/// are never mutated or unmapped while the value is alive.  Borrowed
/// columns cache raw pointers into the region and read through them for
/// as long as they hold the `Arc`.
pub unsafe trait StableBytes: Send + Sync + 'static {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

/// One document column: a contiguous `[T]`, owned or borrowed.
///
/// Dereferences to `&[T]` through a pointer cached at construction, so
/// per-access cost is identical for both backings (no branch, no
/// virtual call on the hot path).
pub(crate) struct Col<T: Copy + 'static> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

enum Backing<T> {
    Owned(Vec<T>),
    /// Keep-alive handle; the bytes themselves are reached via `ptr`.
    Borrowed(Arc<dyn StableBytes>),
}

impl<T: Copy + 'static> Col<T> {
    /// An owned column.  (The `Vec`'s heap buffer never moves while the
    /// `Vec` itself is only moved, so the cached pointer stays valid.)
    pub(crate) fn owned(v: Vec<T>) -> Col<T> {
        Col {
            ptr: v.as_ptr(),
            len: v.len(),
            backing: Backing::Owned(v),
        }
    }

    /// A column borrowed from `keep`'s byte region.
    ///
    /// # Panics
    /// Panics if `slice` does not lie within `keep.bytes()` — callers
    /// ([`ColumnSweep::finish`](crate::ColumnSweep::finish)) validate
    /// containment first and treat violations as corruption.
    pub(crate) fn borrowed(slice: &[T], keep: &Arc<dyn StableBytes>) -> Col<T> {
        assert!(
            slice_within(slice, keep.bytes()),
            "borrowed column does not lie inside its backing region"
        );
        Col {
            ptr: slice.as_ptr(),
            len: slice.len(),
            backing: Backing::Borrowed(Arc::clone(keep)),
        }
    }
}

/// Whether `slice`'s memory lies entirely inside `region` (empty slices
/// are trivially contained).
pub(crate) fn slice_within<T>(slice: &[T], region: &[u8]) -> bool {
    if slice.is_empty() {
        return true;
    }
    let start = slice.as_ptr() as usize;
    let end = start + std::mem::size_of_val(slice);
    let r0 = region.as_ptr() as usize;
    let r1 = r0 + region.len();
    start >= r0 && end <= r1
}

impl<T: Copy + 'static> Deref for Col<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` describe either the owned Vec's buffer
        // (alive as long as `self`) or a range of a `StableBytes` region
        // kept alive by the `Arc` in `backing`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Copy + 'static> Clone for Col<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            Backing::Owned(v) => Col::owned(v.clone()),
            Backing::Borrowed(keep) => Col {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Borrowed(Arc::clone(keep)),
            },
        }
    }
}

impl<T: Copy + fmt::Debug + 'static> fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.backing {
            Backing::Owned(_) => "owned",
            Backing::Borrowed(_) => "mapped",
        };
        write!(f, "Col<{kind}>")?;
        f.debug_list().entries(self.iter()).finish()
    }
}

// SAFETY: the pointed-to data is immutable for the life of the Col (owned
// Vec never mutated; StableBytes contract for borrowed), so shared access
// from multiple threads is sound for POD element types.
unsafe impl<T: Copy + Send + Sync + 'static> Send for Col<T> {}
// SAFETY: as for Send — shared references expose only reads of
// immutable POD data.
unsafe impl<T: Copy + Send + Sync + 'static> Sync for Col<T> {}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Col<u8>>();
    assert_send_sync::<Col<u32>>();
    assert_send_sync::<DocStore>();
};

/// The flat columns of a [`Document`](crate::Document); see the module
/// docs for the layout of each.
#[derive(Debug, Clone)]
pub(crate) struct DocStore {
    /// Packed node kinds (`NodeKind::pack`).
    pub(crate) kinds: Col<u32>,
    pub(crate) parent: Col<u32>,
    pub(crate) first_child: Col<u32>,
    pub(crate) last_child: Col<u32>,
    pub(crate) next_sibling: Col<u32>,
    pub(crate) prev_sibling: Col<u32>,
    pub(crate) subtree_end: Col<u32>,
    /// `len + 1` monotone offsets into `text_heap`; node `n`'s content is
    /// `text_heap[text_off[n]..text_off[n+1]]` (empty for elements/root).
    pub(crate) text_off: Col<u32>,
    /// All content bytes, concatenated in pre-order.  Invariant: valid
    /// UTF-8, and every `text_off` value is a char boundary (builder by
    /// construction; mapped columns validated at construction).
    pub(crate) text_heap: Col<u8>,
    /// CSR offsets (`name_count + 1`) into `elem_post`.
    pub(crate) elem_off: Col<u32>,
    /// Element nodes grouped by label, document order within each label.
    pub(crate) elem_post: Col<u32>,
    pub(crate) attr_off: Col<u32>,
    pub(crate) attr_post: Col<u32>,
    /// Attribute nodes providing element ids, sorted by content bytes
    /// (the id keys live in the text heap — no separate key storage).
    pub(crate) id_attrs: Col<u32>,
    /// `id_elems[i]` is the element owning the id key of `id_attrs[i]`.
    pub(crate) id_elems: Col<u32>,
}

impl DocStore {
    /// Number of nodes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Content bytes of node `i` (the raw span; UTF-8 by invariant).
    #[inline]
    pub(crate) fn content_span(&self, i: usize) -> &str {
        let s = self.text_off[i] as usize;
        let e = self.text_off[i + 1] as usize;
        // SAFETY: struct invariant — heap is valid UTF-8 and offsets are
        // monotone char boundaries.
        unsafe { std::str::from_utf8_unchecked(&self.text_heap[s..e]) }
    }

    /// Whether node `i` has empty content.
    #[inline]
    pub(crate) fn content_is_empty(&self, i: usize) -> bool {
        self.text_off[i] == self.text_off[i + 1]
    }

    /// CSR slice of `posts` for name index `i` (`&[]` past the offsets —
    /// names interned after the document was built).
    #[inline]
    pub(crate) fn postings<'s>(off: &'s [u32], posts: &'s [u32], i: usize) -> &'s [NodeId] {
        match off.get(i + 1) {
            Some(&e) => node_ids(&posts[off[i] as usize..e as usize]),
            None => &[],
        }
    }
}

/// Reinterprets a `u32` slice as `NodeId`s (`NodeId` is
/// `#[repr(transparent)]` over `u32`).
#[inline]
pub(crate) fn node_ids(s: &[u32]) -> &[NodeId] {
    // SAFETY: NodeId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<NodeId>(), s.len()) }
}

/// Borrowed views of every document column, in one struct — the exchange
/// format between [`Document`](crate::Document) and the `minctx-index`
/// snapshot reader/writer.  All slices are plain little-endian-in-memory
/// `u32`/`u8` arrays; see the module docs for each column's meaning.
#[derive(Debug, Clone, Copy)]
pub struct RawColumns<'a> {
    /// Packed node kinds (kind tag in the low 3 bits, interned name
    /// index in the high bits).
    pub kinds: &'a [u32],
    /// Parent links (`u32::MAX` = none).
    pub parent: &'a [u32],
    /// First non-attribute child (`u32::MAX` = none).
    pub first_child: &'a [u32],
    /// Last non-attribute child (`u32::MAX` = none).
    pub last_child: &'a [u32],
    /// Next sibling (`u32::MAX` = none).
    pub next_sibling: &'a [u32],
    /// Previous sibling (`u32::MAX` = none).
    pub prev_sibling: &'a [u32],
    /// One past the last pre-order index of each node's subtree.
    pub subtree_end: &'a [u32],
    /// `node_count + 1` monotone offsets into `text_heap`.
    pub text_off: &'a [u32],
    /// All content bytes (UTF-8), concatenated in pre-order.
    pub text_heap: &'a [u8],
    /// CSR offsets (`name_count + 1`) into `elem_post`.
    pub elem_off: &'a [u32],
    /// Element postings, grouped by label.
    pub elem_post: &'a [u32],
    /// CSR offsets (`name_count + 1`) into `attr_post`.
    pub attr_off: &'a [u32],
    /// Attribute postings, grouped by name.
    pub attr_post: &'a [u32],
    /// Id-providing attribute nodes, sorted by their content bytes.
    pub id_attrs: &'a [u32],
    /// Owner element of each id key.
    pub id_elems: &'a [u32],
}

/// A validation failure while adopting mapped columns — the snapshot file
/// decoded structurally but its contents violate a document invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnError {
    /// The text heap is not valid UTF-8 — it backs
    /// `from_utf8_unchecked` views for the life of the document, so a
    /// crafted or decayed region must never be adopted.
    InvalidUtf8 {
        /// How many leading bytes were valid.
        valid_up_to: usize,
    },
    /// A structural invariant does not hold; the message names the
    /// column and the first offending entry.
    Invariant(String),
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid document columns: ")?;
        match self {
            ColumnError::InvalidUtf8 { valid_up_to } => {
                write!(f, "text heap is not valid UTF-8 after byte {valid_up_to}")
            }
            ColumnError::Invariant(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ColumnError {}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedBytes(Vec<u8>);
    // SAFETY: (test) the Vec is never touched after construction.
    unsafe impl StableBytes for FixedBytes {
        fn bytes(&self) -> &[u8] {
            &self.0
        }
    }

    #[test]
    fn owned_col_survives_moves_and_clones() {
        let c = Col::owned(vec![1u32, 2, 3]);
        let moved = c;
        assert_eq!(&*moved, &[1, 2, 3]);
        let cloned = moved.clone();
        assert_eq!(&*cloned, &*moved);
        let empty: Col<u32> = Col::owned(Vec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn borrowed_col_reads_through_the_region() {
        let keep: Arc<dyn StableBytes> = Arc::new(FixedBytes(vec![7, 0, 0, 0, 9, 0, 0, 0]));
        let bytes = keep.bytes();
        // SAFETY (test): region is 8 bytes, Vec<u8> allocations are
        // sufficiently aligned for u32 only by luck — so copy through
        // read_unaligned semantics instead: construct via a properly
        // aligned owned buffer and check containment logic separately.
        assert!(slice_within(&bytes[2..5], bytes));
        assert!(!slice_within(&[1u8, 2, 3][..], bytes));
        assert!(slice_within(&[] as &[u8], bytes));
        let col = Col::borrowed(&bytes[4..8], &keep);
        assert_eq!(&*col, &[9, 0, 0, 0]);
        let cloned = col.clone();
        drop(col);
        assert_eq!(&*cloned, &[9, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "backing region")]
    fn borrowed_col_rejects_foreign_slices() {
        let keep: Arc<dyn StableBytes> = Arc::new(FixedBytes(vec![0; 8]));
        let foreign = [1u8, 2, 3];
        let _ = Col::borrowed(&foreign[..], &keep);
    }

    #[test]
    fn node_id_cast_round_trips() {
        let raw = [0u32, 3, 7];
        let ids = node_ids(&raw);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[1], NodeId::from_index(3));
    }
}
