//! Corruption robustness: truncated, bit-flipped, version-skewed and
//! handcrafted snapshot files must come back as [`SnapshotError`]s with
//! actionable messages — never a panic, and certainly never a document
//! built on garbage columns.

use minctx_index::{open_snapshot, write_snapshot, SnapshotError};
use std::io::Write;
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("minctx-corrupt-{}-{name}.mctx", std::process::id()))
}

/// A small but representative snapshot: attributes, ids, text, comments,
/// PIs, several names.
fn sample_bytes() -> Vec<u8> {
    let doc = minctx_xml::parse(
        r#"<lib x="1"><b id="b1">text one</b><!--c--><?p d?><b id="b2" y="2">two<i/></b></lib>"#,
    )
    .unwrap();
    let path = temp("sample");
    write_snapshot(&doc, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn open_raw(name: &str, bytes: &[u8]) -> Result<minctx_xml::Document, SnapshotError> {
    let path = temp(name);
    std::fs::File::create(&path)
        .unwrap()
        .write_all(bytes)
        .unwrap();
    let r = open_snapshot(&path);
    std::fs::remove_file(&path).ok();
    r
}

#[test]
fn truncations_at_every_region_error_out() {
    let bytes = sample_bytes();
    // Empty file, partial header, partial sections, one byte short.
    for cut in [0, 1, 50, 103, 104, 200, bytes.len() / 2, bytes.len() - 1] {
        let e = open_raw("trunc", &bytes[..cut]).expect_err("truncated file opened");
        assert!(
            matches!(e, SnapshotError::Truncated { .. }),
            "cut at {cut}: unexpected error {e}"
        );
        // Messages must be actionable.
        assert!(e.to_string().contains("write_snapshot"), "cut {cut}: {e}");
    }
}

#[test]
fn appended_garbage_errors_out() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"tail");
    let e = open_raw("tail", &bytes).expect_err("padded file opened");
    assert!(matches!(e, SnapshotError::Truncated { .. }), "{e}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "whole-file bit-flip sweep is minutes-long under the interpreter"
)]
fn every_sampled_bit_flip_is_detected() {
    let bytes = sample_bytes();
    // Flip a byte at a spread of positions covering the header, every
    // section region, and the very last byte.  All must error; none may
    // panic or yield a document.
    let mut positions: Vec<usize> = (0..bytes.len()).step_by(13).collect();
    positions.push(bytes.len() - 1);
    for pos in positions {
        let mut b = bytes.clone();
        b[pos] ^= 0x40;
        match open_raw("flip", &b) {
            Err(_) => {}
            Ok(_) => panic!("bit flip at byte {pos} went undetected"),
        }
    }
}

#[test]
fn wrong_magic_version_and_endianness_are_distinct_errors() {
    let bytes = sample_bytes();

    let mut b = bytes.clone();
    b[0..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(
        open_raw("magic", &b).unwrap_err(),
        SnapshotError::NotASnapshot { .. }
    ));

    // Magic, endianness and version are checked *before* the header
    // hash, in that order, so flipping them reports the dedicated error
    // rather than a generic checksum mismatch.
    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    assert!(matches!(
        open_raw("endian", &b).unwrap_err(),
        SnapshotError::UnsupportedEndianness
    ));

    let mut b = bytes.clone();
    b[12..16].copy_from_slice(&999u32.to_le_bytes());
    let e = open_raw("version", &b).unwrap_err();
    assert!(
        matches!(
            e,
            SnapshotError::UnsupportedVersion {
                found: 999,
                supported: 2
            }
        ),
        "{e}"
    );
}

#[test]
fn header_and_section_corruption_name_their_region() {
    let bytes = sample_bytes();

    // A count field flip (inside the hashed header region).
    let mut b = bytes.clone();
    b[16] ^= 0x01; // node_count low byte
    let e = open_raw("hdr", &b).unwrap_err();
    assert!(
        matches!(
            e,
            SnapshotError::ChecksumMismatch {
                region: "header",
                ..
            }
        ),
        "{e}"
    );

    // A section byte flip.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x80;
    let e = open_raw("sect", &b).unwrap_err();
    assert!(
        matches!(
            e,
            SnapshotError::ChecksumMismatch {
                region: "section",
                ..
            }
        ),
        "{e}"
    );
}

/// Re-implementation of the format-version-2 FastHash (pinned by
/// `hash.rs::known_stability`, so it cannot drift silently) and of the
/// documented header/section layout — enough to *re-sign* a mutated
/// snapshot so it passes both checksums and exercises the semantic
/// column validation behind them.
mod craft {
    fn hash(data: &[u8]) -> u64 {
        const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
        const PRIME: u64 = 0xC2B2_AE3D_27D4_EB4F;
        let round = |state: u64, word: u64| (state ^ word).wrapping_mul(PRIME).rotate_left(31);
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().unwrap());
        // Eight lanes over 64-byte stripes, folded in order...
        let mut lanes: [u64; 8] = std::array::from_fn(|k| SEED ^ (k as u64).wrapping_mul(PRIME));
        let mut stripes = data.chunks_exact(64);
        for s in &mut stripes {
            for (lane, c) in lanes.iter_mut().zip(s.chunks_exact(8)) {
                *lane = round(*lane, word(c));
            }
        }
        let mut state = lanes.into_iter().fold(SEED, round);
        // ...then the tail words, the last one zero-padded.
        let mut chunks = stripes.remainder().chunks_exact(8);
        for c in &mut chunks {
            state = round(state, word(c));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            state = round(state, u64::from_le_bytes(buf));
        }
        let mut h = state ^ data.len() as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h
    }

    /// Recomputes stamp + both checksums after a section mutation.
    pub fn resign(bytes: &mut [u8]) {
        let section = hash(&bytes[104..]);
        let stamp = (1u64 << 63) | (section & !(1u64 << 63));
        bytes[72..80].copy_from_slice(&stamp.to_le_bytes());
        bytes[96..104].copy_from_slice(&section.to_le_bytes());
        let header = hash(&bytes[..88]);
        bytes[88..96].copy_from_slice(&header.to_le_bytes());
    }

    /// Byte offset of a `u32` section entry, walking the documented
    /// layout: sections in fixed order, each 8-byte aligned.
    /// `section` indexes the order kinds=0, parent=1, first_child=2,
    /// last_child=3, next_sibling=4, prev_sibling=5, subtree_end=6,
    /// text_off=7, elem_off=8, elem_post=9.
    pub fn u32_entry_offset(bytes: &[u8], section: usize, entry: usize) -> usize {
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let n = u64_at(16);
        let names = u64_at(24);
        let counts = [n, n, n, n, n, n, n, n + 1, names + 1, u64_at(40)];
        let mut cursor = 104usize;
        for (i, &count) in counts.iter().enumerate() {
            cursor = cursor.div_ceil(8) * 8;
            if i == section {
                return cursor + entry * 4;
            }
            cursor += count * 4;
        }
        unreachable!("section index out of range");
    }

    /// Which byte region to locate with [`byte_region_offset`].
    #[derive(Clone, Copy)]
    pub enum ByteRegion {
        NameBytes,
        TextHeap,
    }

    /// Byte offset (and length) of one of the two `u8` sections,
    /// walking the full documented layout: the `u32` sections in fixed
    /// order, then `name_bytes`, then `text_heap`, each 8-byte aligned.
    pub fn byte_region_offset(bytes: &[u8], region: ByteRegion) -> (usize, usize) {
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let n = u64_at(16);
        let names = u64_at(24);
        // (count, width) in on-disk order; see `format.rs`.
        let sections = [
            (n, 4),          // kinds
            (n, 4),          // parent
            (n, 4),          // first_child
            (n, 4),          // last_child
            (n, 4),          // next_sibling
            (n, 4),          // prev_sibling
            (n, 4),          // subtree_end
            (n + 1, 4),      // text_off
            (names + 1, 4),  // elem_off
            (u64_at(40), 4), // elem_post
            (names + 1, 4),  // attr_off
            (u64_at(48), 4), // attr_post
            (u64_at(56), 4), // id_attrs
            (u64_at(56), 4), // id_elems
            (names + 1, 4),  // name_off
            (u64_at(64), 1), // name_bytes
            (u64_at(32), 1), // text_heap
        ];
        let want = match region {
            ByteRegion::NameBytes => 15,
            ByteRegion::TextHeap => 16,
        };
        let mut cursor = 104usize;
        for (i, &(count, width)) in sections.iter().enumerate() {
            cursor = cursor.div_ceil(8) * 8;
            if i == want {
                return (cursor, count);
            }
            cursor += count * width;
        }
        unreachable!("region index out of range");
    }

    /// `(byte offset, entry count, entry width)` of all seventeen
    /// sections in on-disk order — the fifteen `u32` sections, then
    /// `name_bytes`, then `text_heap` (see `format.rs`).
    pub fn sections(bytes: &[u8]) -> [(usize, usize, usize); 17] {
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let (n, names, ids) = (u64_at(16), u64_at(24), u64_at(56));
        let mut sections = [
            (0, n, 4),          // kinds
            (0, n, 4),          // parent
            (0, n, 4),          // first_child
            (0, n, 4),          // last_child
            (0, n, 4),          // next_sibling
            (0, n, 4),          // prev_sibling
            (0, n, 4),          // subtree_end
            (0, n + 1, 4),      // text_off
            (0, names + 1, 4),  // elem_off
            (0, u64_at(40), 4), // elem_post
            (0, names + 1, 4),  // attr_off
            (0, u64_at(48), 4), // attr_post
            (0, ids, 4),        // id_attrs
            (0, ids, 4),        // id_elems
            (0, names + 1, 4),  // name_off
            (0, u64_at(64), 1), // name_bytes
            (0, u64_at(32), 1), // text_heap
        ];
        let mut cursor = 104usize;
        for s in &mut sections {
            cursor = cursor.div_ceil(8) * 8;
            s.0 = cursor;
            cursor += s.1 * s.2;
        }
        sections
    }
}

#[test]
fn resigned_link_cycle_is_rejected_not_hung() {
    // A checksum-consistent snapshot whose next_sibling column contains
    // a self-loop: without the pre-order direction validation this
    // would open fine and hang the first `children()` traversal.
    let mut bytes = sample_bytes();
    let off = craft::u32_entry_offset(&bytes, 4, 1); // next_sibling[1]
    bytes[off..off + 4].copy_from_slice(&1u32.to_le_bytes());
    craft::resign(&mut bytes);
    let e = open_raw("cycle", &bytes).expect_err("cyclic snapshot opened");
    assert!(
        matches!(e, SnapshotError::Corrupt(_)) && e.to_string().contains("pre-order"),
        "{e}"
    );
}

#[test]
fn resigned_postings_mismatch_is_rejected() {
    // A checksum-consistent snapshot whose first element posting points
    // at node 0 (the root): membership validation must refuse it, so
    // name-test fast paths can never silently disagree with the kind
    // sweeps.
    let mut bytes = sample_bytes();
    let off = craft::u32_entry_offset(&bytes, 9, 0); // elem_post[0]
    bytes[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
    craft::resign(&mut bytes);
    let e = open_raw("postings", &bytes).expect_err("bad postings opened");
    assert!(
        matches!(e, SnapshotError::Corrupt(_)) && e.to_string().contains("postings"),
        "{e}"
    );
}

#[test]
fn resigned_invalid_utf8_in_the_text_heap_is_rejected() {
    // A checksum-consistent snapshot whose text heap holds a lone
    // continuation byte: the heap backs `from_utf8_unchecked` views for
    // the life of the document, so open must refuse it with the typed
    // error *before* any string is ever materialized.
    let mut bytes = sample_bytes();
    let (off, len) = craft::byte_region_offset(&bytes, craft::ByteRegion::TextHeap);
    assert!(len > 0, "sample document must have text content");
    bytes[off] = 0xFF; // never valid anywhere in UTF-8
    craft::resign(&mut bytes);
    let e = open_raw("heap-utf8", &bytes).expect_err("mojibake heap opened");
    assert!(
        matches!(
            e,
            SnapshotError::InvalidUtf8 {
                region: "text heap",
                valid_up_to: 0
            }
        ),
        "{e}"
    );
    assert!(e.to_string().contains("text heap"), "{e}");
}

#[test]
fn resigned_invalid_utf8_in_the_name_bytes_is_rejected() {
    // Same trust boundary, other region: the interned tag/attribute
    // names must be UTF-8 as a whole region, reported with the typed
    // error (not a per-name Corrupt message).
    let mut bytes = sample_bytes();
    let (off, len) = craft::byte_region_offset(&bytes, craft::ByteRegion::NameBytes);
    assert!(len > 0, "sample document must intern names");
    bytes[off] = 0xC0; // an overlong-encoding lead byte, always invalid
    craft::resign(&mut bytes);
    let e = open_raw("names-utf8", &bytes).expect_err("mojibake names opened");
    assert!(
        matches!(
            e,
            SnapshotError::InvalidUtf8 {
                region: "name bytes",
                valid_up_to: 0
            }
        ),
        "{e}"
    );
    assert!(e.to_string().contains("name bytes"), "{e}");
}

#[test]
fn resigning_without_mutation_still_opens() {
    // Sanity for the crafting harness itself: re-signing an unmodified
    // file reproduces a valid snapshot (same stamp, same answers).
    let bytes = sample_bytes();
    let mut resigned = bytes.clone();
    craft::resign(&mut resigned);
    assert_eq!(bytes, resigned, "resign must be a fixpoint on valid files");
    assert!(open_raw("fixpoint", &resigned).is_ok());
}

#[test]
fn non_snapshot_files_error_cleanly() {
    for (name, content) in [
        ("empty", &b""[..]),
        ("xml", &br#"<a><b/></a>"#[..]),
        ("zeros", &[0u8; 4096][..]),
    ] {
        match open_raw(name, content) {
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::NotASnapshot { .. }) => {}
            other => panic!("{name}: {other:?}"),
        }
    }
}

#[test]
fn error_display_is_actionable() {
    let e = open_raw("msg", &sample_bytes()[..60]).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("truncated") || msg.contains("bytes"), "{msg}");
    let e = open_snapshot(temp("does-not-exist")).unwrap_err();
    assert!(matches!(e, SnapshotError::Io(_)));
    assert!(e.to_string().contains("I/O"), "{e}");
}

// ---------------------------------------------------------------------
// The column sweep against the row-wise validator it replaced: every
// re-signed mutant gets the same verdict from `open_snapshot` as from
// the verbatim oracle — `Ok` or the same error variant and message.

mod oracle;

mod mutants {
    use super::{craft, open_raw, oracle, temp};
    use minctx_index::{write_snapshot, SnapshotError};

    /// Bytes `open_snapshot` hashes, then sweeps, per step (`lib.rs`
    /// `OPEN_BLOCK`), counted from the end of the 104-byte header.
    const BLOCK: usize = 64 * 1024;
    const NONE: u32 = u32::MAX;

    /// Attributes, ids, text, comments and PIs; multi-byte text and
    /// names; depth and many names with repeats.
    const DOCS: [&str; 3] = [
        r#"<lib x="1"><b id="b1">text one</b><!--c--><?p d?><b id="b2" y="2">two<i/></b></lib>"#,
        r#"<données où="ici"><é id="ü1">héllo · wörld</é><é id="a2">日本語</é>trailing</données>"#,
        r#"<a><b><c><d e="1" f="2"><a id="k3"/><b id="k1">x</b></d></c><c/><c g="3">y<b/>z</c></b><?a b?><e id="k2"><e><e>deep</e></e></e></a>"#,
    ];

    struct Rng(u64);

    impl Rng {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn snapshot_of(name: &str, xml: &str) -> Vec<u8> {
        let doc = minctx_xml::parse(xml).unwrap();
        let path = temp(name);
        write_snapshot(&doc, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    fn set_u32(
        bytes: &mut [u8],
        sections: &[(usize, usize, usize); 17],
        s: usize,
        i: usize,
        v: u32,
    ) {
        let at = sections[s].0 + 4 * i;
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The candidate values of the issue: the small, the neighbours of
    /// the entry's own index, the neighbours of the node count, `NONE`.
    fn candidates(i: usize, n: usize) -> [u32; 9] {
        let (i, n) = (i as u32, n as u32);
        [0, 1, i.wrapping_sub(1), i, i + 1, n - 1, n, n + 1, NONE]
    }

    /// Re-signs `bytes` and holds `open_snapshot` to the oracle's
    /// verdict on them.
    fn assert_agree(name: &str, bytes: &mut [u8], what: &str) -> Result<(), SnapshotError> {
        craft::resign(bytes);
        let sections = craft::sections(bytes);
        let u32s: [Vec<u32>; 15] = std::array::from_fn(|s| {
            let (off, count, _) = sections[s];
            bytes[off..off + 4 * count]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        });
        let region = |s: usize| &bytes[sections[s].0..sections[s].0 + sections[s].1];
        let want = oracle::verdict(&u32s, region(15), region(16));
        let got = open_raw(name, bytes).map(|_| ());
        assert_eq!(got, want, "{what}");
        got
    }

    /// One mutation of the issue's menu, applied in place: one byte of
    /// the name bytes or of the text heap replaced, or one `u32` of one
    /// section set to a candidate value (one time in ten, any value).
    fn mutate(bytes: &mut [u8], rng: &mut Rng) -> String {
        let sections = craft::sections(bytes);
        let n = sections[0].1;
        match rng.below(10) {
            k @ (0 | 1) => {
                let (off, len, _) = sections[15 + k];
                let (at, b) = (rng.below(len), rng.next() as u8);
                bytes[off + at] = b;
                format!("section {} byte {at} := {b:#x}", 15 + k)
            }
            _ => {
                let s = loop {
                    let s = rng.below(15);
                    if sections[s].1 > 0 {
                        break s;
                    }
                };
                let i = rng.below(sections[s].1);
                let v = match rng.below(10) {
                    9 => rng.next() as u32,
                    c => candidates(i, n)[c],
                };
                set_u32(bytes, &sections, s, i, v);
                format!("section {s} entry {i} := {v}")
            }
        }
    }

    #[test]
    fn seeded_mutants_get_the_row_wise_verdict() {
        let per_doc = if cfg!(miri) { 12 } else { 800 };
        let (mut accepted, mut rejected) = (0, 0);
        for (d, xml) in DOCS.iter().enumerate() {
            let name = format!("mutant-{d}");
            let pristine = snapshot_of(&name, xml);
            let mut rng = Rng(0x5eed_0000 + d as u64);
            for m in 0..per_doc {
                let mut bytes = pristine.clone();
                // One mutation, as the issue asks; every fourth mutant
                // carries a second, so that two violations in different
                // columns must be reported in the row-wise order too.
                let mut what = format!("doc {d} mutant {m}: {}", mutate(&mut bytes, &mut rng));
                if m % 4 == 3 {
                    what = format!("{what}, {}", mutate(&mut bytes, &mut rng));
                }
                match assert_agree(&name, &mut bytes, &what) {
                    Ok(()) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        // The suite bites both ways: mutants that write back the value
        // already there (or another valid one) must still open.
        assert!(
            rejected > accepted,
            "{accepted} accepted, {rejected} rejected"
        );
        assert!(cfg!(miri) || accepted > 0, "no mutant was accepted");
    }

    /// `<r>` with `elements` children `<e k="v">text</e>`: three nodes a
    /// child, so every column outgrows a block at a few thousand.
    fn wide_doc(elements: usize) -> String {
        format!("<r>{}</r>", r#"<e k="v">text</e>"#.repeat(elements))
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "megabyte snapshots are minutes-long under the interpreter"
    )]
    fn entries_beside_every_block_boundary_get_the_row_wise_verdict() {
        let pristine = snapshot_of("blocks", &wide_doc(8_000));
        let sections = craft::sections(&pristine);
        let n = sections[0].1;
        let mut rejected = 0;
        for (s, &(off, count, _)) in sections[..15].iter().enumerate() {
            if count == 0 {
                continue; // this document has no ids
            }
            // The first and last entry of the section, and the entries on
            // either side of each block boundary inside it (entries are
            // 4-aligned and so is every boundary: none straddles one).
            let mut entries = vec![0, count - 1];
            let first_boundary = (off - 104).div_ceil(BLOCK) * BLOCK + 104;
            for boundary in (first_boundary..off + 4 * count).step_by(BLOCK) {
                let after = (boundary - off) / 4;
                entries.extend([after.saturating_sub(1), after.min(count - 1)]);
            }
            for i in entries {
                for v in [0, i as u32, n as u32, NONE] {
                    let mut bytes = pristine.clone();
                    set_u32(&mut bytes, &sections, s, i, v);
                    let what = format!("section {s} entry {i} := {v}");
                    rejected += usize::from(assert_agree("blocks", &mut bytes, &what).is_err());
                }
            }
        }
        assert!(
            rejected > 100,
            "only {rejected} boundary mutants were rejected"
        );

        // A violation only in the file's final, partial block.
        let mut bytes = pristine.clone();
        assert!((bytes.len() - 104) % BLOCK != 0);
        *bytes.last_mut().unwrap() = 0xFF;
        let e = assert_agree("blocks", &mut bytes, "last heap byte := 0xff").unwrap_err();
        assert!(
            matches!(
                e,
                SnapshotError::InvalidUtf8 {
                    region: "text heap",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "megabyte snapshots are minutes-long under the interpreter"
    )]
    fn one_node_over_a_block_gets_the_row_wise_verdict() {
        // root + r + 5 461 × (e, k, text): 16 385 nodes, and `kinds`
        // starts where the first block does — its last entry is alone in
        // the second.
        let pristine = snapshot_of("one-over", &wide_doc(5_461));
        let sections = craft::sections(&pristine);
        let (n, per_block) = (sections[0].1, BLOCK / 4);
        assert_eq!((sections[0].0, n), (104, per_block + 1));
        // A self-reference and an index past the arena are wrong in every
        // node column, on either side of the block edge.
        for s in 0..7 {
            for i in [per_block - 1, per_block] {
                for v in [i as u32, n as u32 + 1] {
                    let mut bytes = pristine.clone();
                    set_u32(&mut bytes, &sections, s, i, v);
                    let what = format!("section {s} entry {i} := {v}");
                    let r = assert_agree("one-over", &mut bytes, &what);
                    assert!(r.is_err(), "{what} opened");
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "megabyte snapshots are minutes-long under the interpreter"
    )]
    fn utf8_sequences_cut_by_a_block_boundary_are_validated_whole() {
        // One 200 000-byte text node: the heap is a single span crossing
        // several block boundaries, so bytes around one can be rewritten
        // without disturbing a text offset.
        let pristine = snapshot_of("cut", &format!("<a>{}</a>", "x".repeat(200_000)));
        let (heap, len, _) = craft::sections(&pristine)[16];
        let cut = (heap - 104).div_ceil(BLOCK) * BLOCK + 104 - heap;
        assert!(cut >= 3 && cut + 3 < len);
        let run = |what: &str, edits: &[(usize, u8)]| {
            let mut bytes = pristine.clone();
            for &(at, b) in edits {
                bytes[heap + at] = b;
            }
            assert_agree("cut", &mut bytes, what)
        };
        // é, € and 😀 with 1, 2 and 3 of their bytes before the boundary.
        run(
            "2-byte char across the cut",
            &[(cut - 1, 0xC3), (cut, 0xA9)],
        )
        .unwrap();
        run(
            "3-byte char, 1 + 2",
            &[(cut - 1, 0xE2), (cut, 0x82), (cut + 1, 0xAC)],
        )
        .unwrap();
        run(
            "3-byte char, 2 + 1",
            &[(cut - 2, 0xE2), (cut - 1, 0x82), (cut, 0xAC)],
        )
        .unwrap();
        run(
            "4-byte char, 3 + 1",
            &[
                (cut - 3, 0xF0),
                (cut - 2, 0x9F),
                (cut - 1, 0x98),
                (cut, 0x80),
            ],
        )
        .unwrap();
        // A lead byte before the cut whose continuation never comes, a
        // continuation byte right after it, and a sequence the heap's
        // end cuts short: each names the first invalid byte.
        for (what, edits, at) in [
            ("lead byte, then ASCII", &[(cut - 1, 0xC3)][..], cut - 1),
            ("stray continuation after the cut", &[(cut, 0xA9)][..], cut),
            (
                "bad second continuation",
                &[(cut - 1, 0xE2), (cut, 0x82)][..],
                cut - 1,
            ),
            (
                "heap ends inside a sequence",
                &[(len - 1, 0xC3)][..],
                len - 1,
            ),
        ] {
            assert_eq!(
                run(what, edits),
                Err(SnapshotError::InvalidUtf8 {
                    region: "text heap",
                    valid_up_to: at
                }),
                "{what}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Crash simulation: the atomic write protocol (temp file → fsync →
// rename → dir fsync) must keep the *final* path pristine through a
// kill at any byte and through a failure at any durability step.
// Fault plans are thread-local, so these tests can't perturb each
// other (or anything else in this process).

mod crash {
    use super::temp;
    use minctx_index::fault::{self, FaultPlan};
    use minctx_index::{
        open_snapshot, open_snapshot_or_quarantine, quarantine_snapshot, stale_temps,
        write_snapshot, SnapshotError,
    };
    use std::io::Write;

    /// Ensures `fault::clear()` runs even when an assertion unwinds.
    struct ClearFaults;
    impl Drop for ClearFaults {
        fn drop(&mut self) {
            fault::clear();
        }
    }

    fn doc_v1() -> minctx_xml::Document {
        minctx_xml::parse(r#"<v1 id="a"><x>one</x></v1>"#).unwrap()
    }

    fn doc_v2() -> minctx_xml::Document {
        minctx_xml::parse(r#"<v2 id="b"><y>two</y><y>three</y></v2>"#).unwrap()
    }

    #[test]
    fn kill_at_every_byte_never_exposes_a_partial_snapshot() {
        let _clear = ClearFaults;
        let path = temp("crash-every-byte");
        write_snapshot(&doc_v1(), &path).unwrap();
        let v1_stamp = open_snapshot(&path).unwrap().stamp();
        let v2 = doc_v2();

        // Walk the kill point forward one byte at a time until the
        // write stops dying — every section boundary (and every byte
        // between them) is covered on the way.
        let mut cut = 0u64;
        let mut kills = 0u32;
        loop {
            fault::install(FaultPlan {
                tear_after: Some(cut),
                ..FaultPlan::default()
            });
            match write_snapshot(&v2, &path) {
                Err(e) => {
                    assert!(matches!(e, SnapshotError::Io(_)), "cut {cut}: {e:?}");
                    // The final path still holds the complete previous
                    // snapshot...
                    let d = open_snapshot(&path)
                        .unwrap_or_else(|e| panic!("cut {cut}: final path corrupted: {e:?}"));
                    assert_eq!(d.stamp(), v1_stamp, "cut {cut}: wrong survivor");
                    // ...and the kill left its torn temp behind, like a
                    // real dead process (reaped by the next attempt).
                    assert_eq!(
                        stale_temps(&path).unwrap().len(),
                        1,
                        "cut {cut}: temp bookkeeping"
                    );
                    kills += 1;
                    cut += 1;
                }
                Ok(_) => break,
            }
        }
        fault::clear();

        assert!(kills > 0, "the fault plan never fired");
        // The surviving write is complete, correct, and reaped the
        // previous kill's torn temp.
        let d = open_snapshot(&path).unwrap();
        assert_ne!(d.stamp(), v1_stamp);
        assert_eq!(d.string_value(d.root()), "twothree");
        assert!(stale_temps(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_sync_and_rename_failures_keep_target_and_remove_temp() {
        let _clear = ClearFaults;
        for (name, plan) in [
            (
                "crash-sync",
                FaultPlan {
                    fail_sync: true,
                    ..FaultPlan::default()
                },
            ),
            (
                "crash-rename",
                FaultPlan {
                    fail_rename: true,
                    ..FaultPlan::default()
                },
            ),
        ] {
            let path = temp(name);
            write_snapshot(&doc_v1(), &path).unwrap();
            let v1_stamp = open_snapshot(&path).unwrap().stamp();

            fault::install(plan);
            let err = write_snapshot(&doc_v2(), &path).unwrap_err();
            fault::clear();

            assert!(matches!(err, SnapshotError::Io(_)), "{name}: {err:?}");
            // An error the process *survives* cleans up its own temp.
            assert!(
                stale_temps(&path).unwrap().is_empty(),
                "{name}: temp leaked"
            );
            assert_eq!(open_snapshot(&path).unwrap().stamp(), v1_stamp, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn dir_sync_failure_reports_error_but_the_rename_stuck() {
        let _clear = ClearFaults;
        let path = temp("crash-dirsync");
        write_snapshot(&doc_v1(), &path).unwrap();
        let v1_stamp = open_snapshot(&path).unwrap().stamp();

        fault::install(FaultPlan {
            fail_dir_sync: true,
            ..FaultPlan::default()
        });
        let err = write_snapshot(&doc_v2(), &path).unwrap_err();
        fault::clear();

        // The caller sees a failure (durability of the directory entry
        // is unproven), but the rename happened: the final path holds
        // the *complete* new snapshot, never a partial one.
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
        let d = open_snapshot(&path).unwrap();
        assert_ne!(d.stamp(), v1_stamp);
        assert_eq!(d.string_value(d.root()), "twothree");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_temps_from_dead_writers_are_reaped_by_the_next_write() {
        let _clear = ClearFaults;
        let path = temp("crash-reap");
        // Forge two leftovers of "other processes" that died mid-write.
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for n in ["99991-0", "99992-7"] {
            let t = path.with_file_name(format!(".{name}.tmp-{n}"));
            std::fs::File::create(&t)
                .unwrap()
                .write_all(b"torn")
                .unwrap();
        }
        assert_eq!(stale_temps(&path).unwrap().len(), 2);

        write_snapshot(&doc_v1(), &path).unwrap();
        assert!(stale_temps(&path).unwrap().is_empty());
        assert!(open_snapshot(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_snapshots_are_quarantined_aside() {
        let path = temp("crash-quarantine");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(b"not a snapshot at all")
            .unwrap();

        let err = open_snapshot_or_quarantine(&path).unwrap_err();
        // 21 bytes can't even hold the header: Truncated.  (A ≥104-byte
        // impostor would fail the magic check as NotASnapshot; both are
        // validation failures and both must quarantine.)
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::NotASnapshot { .. }
            ),
            "{err:?}"
        );
        // The bad bytes moved aside for post-mortem; the path is free
        // for a rewrite.
        assert!(!path.exists());
        let quarantined = path.with_file_name(format!(
            "{}.corrupt",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert_eq!(
            std::fs::read(&quarantined).unwrap(),
            b"not a snapshot at all"
        );

        write_snapshot(&doc_v1(), &path).unwrap();
        assert!(open_snapshot_or_quarantine(&path).is_ok());
        assert!(path.exists(), "a valid snapshot must never be quarantined");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&quarantined).ok();
    }

    #[test]
    fn io_errors_do_not_quarantine() {
        let path = temp("crash-no-quarantine-io");
        let err = open_snapshot_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
        // Nothing existed, nothing may appear.
        assert!(!path
            .with_file_name("crash-no-quarantine-io.corrupt")
            .exists());
    }

    #[test]
    fn explicit_quarantine_names_the_corpse() {
        let path = temp("crash-explicit-quarantine");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(b"bytes")
            .unwrap();
        let dest = quarantine_snapshot(&path).unwrap();
        assert!(!path.exists());
        assert!(dest.to_string_lossy().ends_with(".corrupt"), "{dest:?}");
        assert_eq!(std::fs::read(&dest).unwrap(), b"bytes");
        std::fs::remove_file(&dest).ok();
    }
}
