//! Mapped copies of built documents for the integration tests: a
//! document's columns packed into one 8-aligned, immutable region and
//! adopted through `Document::from_mapped_columns`, as `minctx-index`
//! adopts a snapshot file.  Each test crate uses part of it.

#![allow(dead_code)]
#![allow(unsafe_code, reason = "(test) a `StableBytes` stand-in, raw views")]

use minctx_xml::{Document, RawColumns, StableBytes};
use std::sync::Arc;

/// An 8-aligned, immutable in-memory region: the test stand-in for a
/// mapped snapshot file.
struct FixedBytes {
    buf: Vec<u64>,
    len: usize,
}

// SAFETY: (test) `buf` is never touched after construction, so the
// pointer and length are stable and the bytes immutable for the
// region's lifetime.
unsafe impl StableBytes for FixedBytes {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the buffer holds at least `len` initialized bytes and
        // u64 -> u8 only lowers alignment.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Byte offsets (within the packed region) of the 10 `u32` columns in
/// `RawColumns` field order, then the text heap.
pub struct Layout {
    cols: [(usize, usize); 10],
    heap: (usize, usize),
}

/// Packs a document's columns into one contiguous 8-aligned region,
/// mimicking the snapshot layout: u32 columns first (4-aligned by
/// construction), text heap last.
pub fn pack(doc: &Document) -> (Arc<dyn StableBytes>, Layout) {
    let cols = doc.raw_columns();
    let u32_cols: [&[u32]; 10] = [
        cols.kinds,
        cols.parent,
        cols.subtree_end,
        cols.text_off,
        cols.elem_off,
        cols.elem_post,
        cols.attr_off,
        cols.attr_post,
        cols.id_attrs,
        cols.id_elems,
    ];
    let mut bytes: Vec<u8> = Vec::new();
    let mut offs = [(0usize, 0usize); 10];
    for (slot, col) in offs.iter_mut().zip(u32_cols) {
        *slot = (bytes.len(), col.len());
        for v in col {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
    }
    let heap = (bytes.len(), cols.text_heap.len());
    bytes.extend_from_slice(cols.text_heap);

    // Move into the 8-aligned backing.
    let len = bytes.len();
    let mut buf = vec![0u64; len.div_ceil(8)];
    // SAFETY: (test) viewing the zero-initialized u64 buffer as bytes;
    // alignment only decreases and the lengths match.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) }
        .copy_from_slice(&bytes);
    (
        Arc::new(FixedBytes { buf, len }),
        Layout { cols: offs, heap },
    )
}

/// A `u32` view at `(off, count)` inside the packed region.
#[expect(
    clippy::cast_ptr_alignment,
    reason = "the alignment-raising cast is guarded by the assert above it"
)]
fn view(region: &[u8], (off, count): (usize, usize)) -> &[u32] {
    let sl = &region[off..off + count * 4];
    assert_eq!(sl.as_ptr() as usize % 4, 0, "packing broke alignment");
    // SAFETY: (test) bounds and alignment asserted above; every bit
    // pattern is a valid u32.
    unsafe { std::slice::from_raw_parts(sl.as_ptr().cast::<u32>(), count) }
}

/// Reopens `doc` as a borrowed-column document over a packed region.
pub fn reopen(doc: &Document) -> Document {
    let (keep, lay) = pack(doc);
    let region = keep.bytes();
    let col = |k: usize| view(region, lay.cols[k]);
    let raw = RawColumns {
        kinds: col(0),
        parent: col(1),
        subtree_end: col(2),
        text_off: col(3),
        text_heap: &region[lay.heap.0..lay.heap.0 + lay.heap.1],
        elem_off: col(4),
        elem_post: col(5),
        attr_off: col(6),
        attr_post: col(7),
        id_attrs: col(8),
        id_elems: col(9),
    };
    let names = doc.names().clone();
    Document::from_mapped_columns(raw, names, doc.stamp() | (1 << 63), Arc::clone(&keep))
        .expect("packed columns validate")
}
