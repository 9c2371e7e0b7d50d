//! The row-wise validator `open_snapshot` ran before the column sweep
//! replaced it (format version 1, PR 14 and earlier), kept as a test
//! oracle: the sweep must accept and reject the same files, with the
//! same error variant and the same message.
//!
//! `validate_columns` below is the body of `minctx-xml`'s
//! `document.rs::validate_columns` moved here *verbatim*; the constants
//! it names and a stand-in `ColumnError` are declared around it so that
//! not a line of it had to change.  [`verdict`] wraps it in what
//! `open_snapshot_le` did between verifying the section checksum and
//! returning: the name-table checks and the typed UTF-8 check of the
//! text heap.

use minctx_index::SnapshotError;
use minctx_xml::{NameTable, RawColumns};

const NONE: u32 = u32::MAX;

mod node {
    pub const TAG_ROOT: u32 = 0;
    pub const TAG_ELEMENT: u32 = 1;
    pub const TAG_PI: u32 = 4;
    pub const TAG_ATTRIBUTE: u32 = 5;
    pub const KIND_TAG_BITS: u32 = 3;
    pub const KIND_TAG_MASK: u32 = (1 << KIND_TAG_BITS) - 1;
}

/// Stand-in for the `ColumnError { msg }` struct of the time, with its
/// `Display`.
pub struct ColumnError {
    msg: String,
}

impl ColumnError {
    fn new(msg: impl Into<String>) -> ColumnError {
        ColumnError { msg: msg.into() }
    }
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid document columns: {}", self.msg)
    }
}

/// What the row-wise open said of a file image whose header and
/// checksums are in order: `u32s` are the fifteen `u32` sections in
/// file order, decoded; `name_bytes` and `text_heap` the two that
/// follow (as `craft::sections` cuts them).
pub fn verdict(
    u32s: &[Vec<u32>; 15],
    name_bytes: &[u8],
    text_heap: &[u8],
) -> Result<(), SnapshotError> {
    let name_off = &u32s[14];
    // ---- Name table (open_snapshot_le, verbatim) ------------------------
    if let Err(e) = std::str::from_utf8(name_bytes) {
        return Err(SnapshotError::InvalidUtf8 {
            region: "name bytes",
            valid_up_to: e.valid_up_to(),
        });
    }
    let mut names = NameTable::new();
    let mut prev = 0u32;
    for (i, w) in name_off.windows(2).enumerate() {
        let (s, e) = (w[0], w[1]);
        if s != prev || e < s || e as usize > name_bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "name table offsets are not monotone at entry {i}"
            )));
        }
        prev = e;
        let str_ = std::str::from_utf8(&name_bytes[s as usize..e as usize])
            .map_err(|e| SnapshotError::Corrupt(format!("name {i} is not valid UTF-8: {e}")))?;
        if names.intern(str_).index() != i {
            return Err(SnapshotError::Corrupt(format!(
                "name table contains a duplicate entry at {i}"
            )));
        }
    }
    if name_off.last().copied().unwrap_or(0) as usize != name_bytes.len() {
        return Err(SnapshotError::Corrupt(
            "name table offsets do not cover the name bytes".into(),
        ));
    }
    // ---- Text heap, typed (open_snapshot_le, verbatim) ------------------
    if let Err(e) = std::str::from_utf8(text_heap) {
        return Err(SnapshotError::InvalidUtf8 {
            region: "text heap",
            valid_up_to: e.valid_up_to(),
        });
    }
    let cols = RawColumns {
        kinds: &u32s[0],
        parent: &u32s[1],
        first_child: &u32s[2],
        last_child: &u32s[3],
        next_sibling: &u32s[4],
        prev_sibling: &u32s[5],
        subtree_end: &u32s[6],
        text_off: &u32s[7],
        text_heap,
        elem_off: &u32s[8],
        elem_post: &u32s[9],
        attr_off: &u32s[10],
        attr_post: &u32s[11],
        id_attrs: &u32s[12],
        id_elems: &u32s[13],
    };
    validate_columns(&cols, &names).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

/// The full invariant sweep behind [`Document::from_mapped_columns`].
fn validate_columns(cols: &RawColumns<'_>, names: &NameTable) -> Result<(), ColumnError> {
    let err = |msg: String| Err(ColumnError::new(msg));
    let n = cols.kinds.len();
    if n < 2 {
        return err(format!(
            "document has {n} nodes; a well-formed document has at least root + document element"
        ));
    }
    for (name, col) in [
        ("parent", cols.parent),
        ("first_child", cols.first_child),
        ("last_child", cols.last_child),
        ("next_sibling", cols.next_sibling),
        ("prev_sibling", cols.prev_sibling),
        ("subtree_end", cols.subtree_end),
    ] {
        if col.len() != n {
            return err(format!(
                "column {name} has {} entries, expected {n}",
                col.len()
            ));
        }
    }
    // Structure links: in range or NONE; subtree ranges within the arena.
    if cols.kinds[0] & node::KIND_TAG_MASK != node::TAG_ROOT || cols.parent[0] != NONE {
        return err("node 0 is not a parentless root node".to_string());
    }
    let name_count = names.len() as u32;
    for i in 0..n {
        let word = cols.kinds[i];
        let tag = word & node::KIND_TAG_MASK;
        let nm = word >> node::KIND_TAG_BITS;
        let named = matches!(tag, node::TAG_ELEMENT | node::TAG_PI | node::TAG_ATTRIBUTE);
        if tag > node::TAG_ATTRIBUTE || (named && nm >= name_count) || (!named && nm != 0) {
            return err(format!("node {i} has invalid packed kind word {word:#x}"));
        }
        // Pre-order direction, not just range: parents and previous
        // siblings strictly precede a node, children and next siblings
        // strictly follow it.  Beyond catching corruption, this is what
        // makes every link *traversal* provably terminate — a crafted
        // snapshot with a sibling or parent cycle must fail here, not
        // hang the first `children()` walk.
        let iu = i as u32;
        for (what, v, forward) in [
            ("parent", cols.parent[i], false),
            ("first_child", cols.first_child[i], true),
            ("last_child", cols.last_child[i], true),
            ("next_sibling", cols.next_sibling[i], true),
            ("prev_sibling", cols.prev_sibling[i], false),
        ] {
            if v == NONE {
                continue;
            }
            if v as usize >= n || (forward && v <= iu) || (!forward && v >= iu) {
                return err(format!(
                    "node {i}: {what} link {v} out of range or against pre-order"
                ));
            }
        }
        let se = cols.subtree_end[i] as usize;
        if se <= i || se > n {
            return err(format!("node {i}: subtree_end {se} out of range"));
        }
    }
    // Text heap: monotone offsets on UTF-8 char boundaries.
    if cols.text_off.len() != n + 1 {
        return err(format!(
            "text_off has {} entries, expected {}",
            cols.text_off.len(),
            n + 1
        ));
    }
    let heap = match std::str::from_utf8(cols.text_heap) {
        Ok(h) => h,
        Err(e) => return err(format!("text heap is not valid UTF-8: {e}")),
    };
    let mut prev = 0u32;
    for (i, &off) in cols.text_off.iter().enumerate() {
        if off < prev || off as usize > heap.len() || !heap.is_char_boundary(off as usize) {
            return err(format!(
                "text_off[{i}] = {off} is not a monotone char boundary"
            ));
        }
        prev = off;
    }
    if cols.text_off[n] as usize != heap.len() {
        return err("final text offset does not cover the text heap".to_string());
    }
    // CSR postings: offset arrays sized to the name table, monotone and
    // covering; every entry sorted, in range, and naming a node of
    // exactly this family and label; group sizes matching the per-name
    // counts recomputed from the kinds column.  Membership + equal
    // counts together mean each group is *exactly* the set of matching
    // nodes — a crafted snapshot cannot make the name-test fast paths
    // (or `element_count`) silently disagree with the kind sweeps.
    for (what, tag, off, posts) in [
        ("element", node::TAG_ELEMENT, cols.elem_off, cols.elem_post),
        (
            "attribute",
            node::TAG_ATTRIBUTE,
            cols.attr_off,
            cols.attr_post,
        ),
    ] {
        if off.len() != names.len() + 1 {
            return err(format!(
                "{what} postings offsets have {} entries, expected {}",
                off.len(),
                names.len() + 1
            ));
        }
        let mut prev = 0u32;
        for &o in off {
            if o < prev || o as usize > posts.len() {
                return err(format!("{what} postings offsets are not monotone"));
            }
            prev = o;
        }
        if off.last().copied().unwrap_or(0) as usize != posts.len() {
            return err(format!("{what} postings offsets do not cover the postings"));
        }
        let mut last_in_group = None;
        let mut group = 0usize;
        for (i, &p) in posts.iter().enumerate() {
            while off[group + 1] as usize <= i {
                group += 1;
                last_in_group = None;
            }
            let expected_word = tag | ((group as u32) << node::KIND_TAG_BITS);
            if p as usize >= n
                || cols.kinds[p as usize] != expected_word
                || last_in_group.is_some_and(|l| p <= l)
            {
                return err(format!(
                    "{what} postings entry {i} is out of range, unsorted, or not a \
                     matching node"
                ));
            }
            last_in_group = Some(p);
        }
        let mut counts = vec![0u32; names.len()];
        for &word in cols.kinds {
            if word & node::KIND_TAG_MASK == tag {
                counts[(word >> node::KIND_TAG_BITS) as usize] += 1;
            }
        }
        for (g, &c) in counts.iter().enumerate() {
            if off[g + 1] - off[g] != c {
                return err(format!(
                    "{what} postings for name {g} have {} entries, the kinds column has {c}",
                    off[g + 1] - off[g]
                ));
            }
        }
    }
    // Id index: parallel, in-range, sorted (strictly — keys are unique)
    // by key bytes.
    if cols.id_attrs.len() != cols.id_elems.len() {
        return err("id index columns have mismatched lengths".to_string());
    }
    let span = |a: u32| -> &str {
        let s = cols.text_off[a as usize] as usize;
        let e = cols.text_off[a as usize + 1] as usize;
        &heap[s..e]
    };
    for (i, (&a, &e)) in cols.id_attrs.iter().zip(cols.id_elems).enumerate() {
        if a as usize >= n || e as usize >= n {
            return err(format!("id index entry {i} out of range"));
        }
        if i > 0 && span(cols.id_attrs[i - 1]) >= span(a) {
            return err(format!(
                "id index keys are not strictly sorted at entry {i}"
            ));
        }
    }
    Ok(())
}
