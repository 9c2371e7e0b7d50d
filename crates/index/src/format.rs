//! The snapshot file format: header layout and section placement.
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"MCTXSNP\x01"
//!      8     4  endian tag 0x0A0B0C0D (little-endian on disk; a reader
//!                on the wrong byte order sees a scrambled tag)
//!     12     4  format version (2; version 1 used a different FastHash)
//!     16     8  node_count
//!     24     8  name_count
//!     32     8  text_heap_len        (bytes)
//!     40     8  elem_post_len        (entries)
//!     48     8  attr_post_len        (entries)
//!     56     8  id_count             (entries)
//!     64     8  names_bytes_len      (bytes)
//!     72     8  stamp                (high bit set; see `lib.rs`)
//!     80     8  file_len             (bytes, whole file)
//!     88     8  header_hash          (FastHash of bytes 0..88)
//!     96     8  section_hash         (FastHash of bytes 104..file_len)
//!    104     —  sections, each 8-byte aligned, zero-padded between
//! ```
//!
//! Sections appear in the fixed order of [`Layout`]: the seven node
//! columns, the text-offset column, the postings CSR arrays, the id
//! index, the name table (CSR offsets + UTF-8 bytes), and the text heap
//! last (the `u8` sections trail the `u32` ones so every `u32` section
//! is naturally aligned; alignment is nevertheless re-checked at open).
//! All integers little-endian.  Section offsets are *computed from the
//! header counts*, not stored — `file_len` plus the two hashes make any
//! disagreement detectable.

/// Magic bytes; the final byte doubles as a coarse format generation.
pub(crate) const MAGIC: [u8; 8] = *b"MCTXSNP\x01";
/// Byte-order canary (reads back scrambled under the wrong endianness).
pub(crate) const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Current format version.  Version 2 moved no byte of any section: it
/// changed [`FastHash`](crate::hash), and with it both checksums and the
/// stamp, so version-1 files are refused rather than re-hashed.
pub(crate) const VERSION: u32 = 2;
/// Total header bytes; sections start here (8-aligned).
pub(crate) const HEADER_LEN: usize = 104;
/// Alignment of every section start.
pub(crate) const SECTION_ALIGN: usize = 8;

/// The decoded header counts (see the module docs for field meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub node_count: u64,
    pub name_count: u64,
    pub text_heap_len: u64,
    pub elem_post_len: u64,
    pub attr_post_len: u64,
    pub id_count: u64,
    pub names_bytes_len: u64,
    pub stamp: u64,
    pub file_len: u64,
    pub header_hash: u64,
    pub section_hash: u64,
}

impl Header {
    /// Serializes the header (used by the writer; `header_hash` must be
    /// patched in afterwards over bytes `0..88`).
    pub(crate) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..8].copy_from_slice(&MAGIC);
        b[8..12].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
        b[12..16].copy_from_slice(&VERSION.to_le_bytes());
        for (i, v) in [
            self.node_count,
            self.name_count,
            self.text_heap_len,
            self.elem_post_len,
            self.attr_post_len,
            self.id_count,
            self.names_bytes_len,
            self.stamp,
            self.file_len,
            self.header_hash,
            self.section_hash,
        ]
        .into_iter()
        .enumerate()
        {
            b[16 + i * 8..24 + i * 8].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Decodes the fixed-width fields (magic/endian/version are checked
    /// by the caller, which owns the error reporting).
    pub(crate) fn from_bytes(b: &[u8; HEADER_LEN]) -> Header {
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        Header {
            node_count: u64_at(16),
            name_count: u64_at(24),
            text_heap_len: u64_at(32),
            elem_post_len: u64_at(40),
            attr_post_len: u64_at(48),
            id_count: u64_at(56),
            names_bytes_len: u64_at(64),
            stamp: u64_at(72),
            file_len: u64_at(80),
            header_hash: u64_at(88),
            section_hash: u64_at(96),
        }
    }
}

/// One section: byte offset and *element* count (elements are `u32` for
/// the column sections, bytes for `name_bytes` / `text_heap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sect {
    pub off: usize,
    pub count: usize,
}

/// The computed placement of every section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    pub kinds: Sect,
    pub parent: Sect,
    pub first_child: Sect,
    pub last_child: Sect,
    pub next_sibling: Sect,
    pub prev_sibling: Sect,
    pub subtree_end: Sect,
    pub text_off: Sect,
    pub elem_off: Sect,
    pub elem_post: Sect,
    pub attr_off: Sect,
    pub attr_post: Sect,
    pub id_attrs: Sect,
    pub id_elems: Sect,
    pub name_off: Sect,
    pub name_bytes: Sect,
    pub text_heap: Sect,
    /// Total file length implied by the counts.
    pub total: usize,
}

/// Computes the layout from header counts; `None` when any count is
/// implausible enough to overflow the address computation (a corrupt or
/// adversarial header must not panic).
pub(crate) fn layout(h: &Header) -> Option<Layout> {
    // Columns index nodes/names with u32, so anything larger is garbage.
    let n = usize::try_from(h.node_count)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let names = usize::try_from(h.name_count)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let heap = usize::try_from(h.text_heap_len)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let eposts = usize::try_from(h.elem_post_len)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let aposts = usize::try_from(h.attr_post_len)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let ids = usize::try_from(h.id_count)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;
    let name_bytes = usize::try_from(h.names_bytes_len)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)?;

    let mut cursor = HEADER_LEN;
    let mut sect = |count: usize, elem_size: usize| -> Option<Sect> {
        cursor = cursor.checked_add(SECTION_ALIGN - 1)? / SECTION_ALIGN * SECTION_ALIGN;
        let s = Sect { off: cursor, count };
        cursor = cursor.checked_add(count.checked_mul(elem_size)?)?;
        Some(s)
    };
    let lay = Layout {
        kinds: sect(n, 4)?,
        parent: sect(n, 4)?,
        first_child: sect(n, 4)?,
        last_child: sect(n, 4)?,
        next_sibling: sect(n, 4)?,
        prev_sibling: sect(n, 4)?,
        subtree_end: sect(n, 4)?,
        text_off: sect(n.checked_add(1)?, 4)?,
        elem_off: sect(names.checked_add(1)?, 4)?,
        elem_post: sect(eposts, 4)?,
        attr_off: sect(names.checked_add(1)?, 4)?,
        attr_post: sect(aposts, 4)?,
        id_attrs: sect(ids, 4)?,
        id_elems: sect(ids, 4)?,
        name_off: sect(names.checked_add(1)?, 4)?,
        name_bytes: sect(name_bytes, 1)?,
        text_heap: sect(heap, 1)?,
        total: 0,
    };
    Some(Layout {
        total: cursor,
        ..lay
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(n: u64) -> Header {
        Header {
            node_count: n,
            name_count: 3,
            text_heap_len: 13,
            elem_post_len: 5,
            attr_post_len: 2,
            id_count: 1,
            names_bytes_len: 9,
            stamp: 0,
            file_len: 0,
            header_hash: 0,
            section_hash: 0,
        }
    }

    #[test]
    fn header_round_trips() {
        let mut h = header(42);
        h.stamp = 0x8000_0000_0000_0001;
        h.file_len = 12345;
        h.header_hash = 7;
        h.section_hash = 9;
        assert_eq!(Header::from_bytes(&h.to_bytes()), h);
    }

    #[test]
    fn sections_are_aligned_and_non_overlapping() {
        let lay = layout(&header(1000)).unwrap();
        let sects = [
            (lay.kinds, 4),
            (lay.parent, 4),
            (lay.first_child, 4),
            (lay.last_child, 4),
            (lay.next_sibling, 4),
            (lay.prev_sibling, 4),
            (lay.subtree_end, 4),
            (lay.text_off, 4),
            (lay.elem_off, 4),
            (lay.elem_post, 4),
            (lay.attr_off, 4),
            (lay.attr_post, 4),
            (lay.id_attrs, 4),
            (lay.id_elems, 4),
            (lay.name_off, 4),
            (lay.name_bytes, 1),
            (lay.text_heap, 1),
        ];
        let mut prev_end = HEADER_LEN;
        for (s, elem) in sects {
            assert_eq!(s.off % SECTION_ALIGN, 0);
            assert!(s.off >= prev_end);
            prev_end = s.off + s.count * elem;
        }
        assert_eq!(lay.total, prev_end);
    }

    #[test]
    fn absurd_counts_do_not_panic() {
        let mut h = header(u64::MAX);
        assert_eq!(layout(&h), None);
        h.node_count = 10;
        h.text_heap_len = u64::MAX - 3;
        assert_eq!(layout(&h), None);
    }
}
