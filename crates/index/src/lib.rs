//! # minctx-index — persistent, mmap-able document snapshots
//!
//! The persistent half of the index-backed backend: a built
//! [`Document`]'s flat columns (packed kinds, parent links, subtree ends,
//! CSR label postings, text heap, id index — see `minctx-xml`'s `store`
//! module and DESIGN.md "Persistent index") are written to disk once
//! with [`write_snapshot`] and reopened **zero-copy** with
//! [`open_snapshot`]: the file is memory-mapped and the columns are
//! adopted in place, so reopening a stored corpus costs one pass over
//! the file — checksum and invariant sweep together — instead of an XML
//! re-parse: `index.open_ms` against `xml.parse.ms` in `benchmark/`
//! (10⁵ elements: 0.9 ms against 19 ms).  The axis kernels and all four
//! arena evaluators run unchanged on the mapped columns.
//!
//! ```
//! use minctx_index::{open_snapshot, write_snapshot};
//!
//! let doc = minctx_xml::parse(r#"<a id="k"><b>hi</b></a>"#).unwrap();
//! let path = std::env::temp_dir().join(format!("minctx-doc-{}.mctx", std::process::id()));
//! write_snapshot(&doc, &path).unwrap();
//!
//! let reopened = open_snapshot(&path).unwrap();
//! assert_eq!(reopened.string_value(reopened.root()), "hi");
//! assert_eq!(reopened.element_by_id("k"), Some(reopened.document_element()));
//! // Reopening yields the *same* stamp every time, so compiled-query
//! // caches keyed on it stay valid across opens (and processes).
//! assert_eq!(reopened.stamp(), open_snapshot(&path).unwrap().stamp());
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! ## Format
//!
//! A versioned little-endian container (`format.rs` documents the byte
//! layout): a 104-byte header (magic, endianness canary, version,
//! section counts, stamp, file length, and two `FastHash`
//! checksums — one over the header, one over every section byte),
//! followed by 8-byte-aligned sections.  `open_snapshot` validates all
//! of it — magic/version/endianness, both checksums, the computed
//! layout against the real file size, and every document invariant
//! (monotone offsets, UTF-8, sorted postings, one pre-order tree) — before
//! adopting a single column, so truncated, bit-flipped or handcrafted
//! files fail with an actionable [`SnapshotError`], never a panic or
//! worse.  The section checksum and the invariants ride one pass:
//! each 64 KB block is hashed and then, still in cache, swept by
//! `minctx-xml`'s [`ColumnSweep`] (DESIGN.md "Opening at memory
//! speed").
//!
//! ## Stamps
//!
//! [`Document::stamp`] values from the builder are process-local counter
//! values (high bit clear).  A snapshot instead carries a
//! *content-derived* stamp — the section checksum with the high bit set
//! — written once at [`write_snapshot`] time.  The two namespaces are
//! disjoint, so a compiled-query cache can never confuse a mapped
//! document with a freshly built one, while every reopen of the same
//! snapshot (in any process) presents the same stamp and therefore hits
//! the same cache entries.
//!
//! ## Caveats
//!
//! The mapping is read-only and private, but POSIX gives no protection
//! against the *file* being truncated while mapped (later page accesses
//! would fault).  Snapshots are treated as immutable artifacts, and
//! [`write_snapshot`] enforces that discipline itself: it writes a
//! hidden temp file, fsyncs it, atomically renames it over the target
//! and fsyncs the directory — so the path always holds a complete
//! snapshot, a concurrent reader's mapping keeps its (now anonymous)
//! old inode, and a writer killed at any byte leaves only a stale temp
//! for the next writer to reap.  Files that fail validation can be
//! moved aside with [`quarantine_snapshot`] (or automatically via
//! [`open_snapshot_or_quarantine`]); the [`fault`] module injects torn
//! writes and step failures so these guarantees stay tested.

use minctx_xml::{ColumnError, ColumnSweep, Document, NameTable, RawColumns, StableBytes};
use std::fmt;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod fault;
mod format;
mod hash;
mod map;

use format::{Header, Layout, Sect, ENDIAN_TAG, HEADER_LEN, MAGIC, SECTION_ALIGN, VERSION};
use hash::{hash_bytes, FastHash};

/// High bit of snapshot stamps; builder stamps keep it clear.
const SNAPSHOT_STAMP_BIT: u64 = 1 << 63;

/// Bytes hashed, then swept, per step of [`open_snapshot`]'s pass over
/// the sections: small enough that the sweep finds the block the hash
/// just read still in L2.
const OPEN_BLOCK: usize = 64 * 1024;

/// Everything that can go wrong writing or opening a snapshot.  The
/// messages name the failing region and what to do about it (usually:
/// the file is not a snapshot, was cut short, or decayed — regenerate it
/// with [`write_snapshot`]).
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    NotASnapshot {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The endianness canary did not read back — the file was written on
    /// (or is being read on) a big-endian machine, which the zero-copy
    /// format does not support.
    UnsupportedEndianness,
    /// The file is a snapshot of a different format version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file is shorter or longer than its header claims.
    Truncated { expected: u64, actual: u64 },
    /// A checksum over `region` did not match — the bytes decayed or
    /// were modified after writing.
    ChecksumMismatch {
        region: &'static str,
        expected: u64,
        actual: u64,
    },
    /// A `u32` section starts at a byte offset that is not 4-aligned —
    /// the zero-copy reinterpret view would be undefined behaviour, so
    /// the open is refused before any cast happens.
    Misaligned {
        /// Which section (e.g. `"parent"`, `"text_off"`).
        section: &'static str,
        /// The absolute byte offset the section starts at.
        offset: usize,
    },
    /// A text region (the text heap or the name bytes) is not valid
    /// UTF-8 — a crafted or decayed file must never reach the
    /// zero-copy `from_utf8_unchecked` path.
    InvalidUtf8 {
        /// Which region (`"text heap"` or `"name bytes"`).
        region: &'static str,
        /// How many leading bytes were valid.
        valid_up_to: usize,
    },
    /// The file decodes structurally but violates a format or document
    /// invariant.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::NotASnapshot { found } => write!(
                f,
                "not a minctx snapshot (file starts with {found:02x?}, expected {MAGIC:02x?})"
            ),
            SnapshotError::UnsupportedEndianness => write!(
                f,
                "snapshot endianness mismatch: the format is little-endian and zero-copy; \
                 regenerate the snapshot on (and for) a little-endian machine"
            ),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported}); regenerate with write_snapshot"
            ),
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "snapshot is {actual} bytes but declares {expected}: the file was \
                 truncated or padded after writing; regenerate with write_snapshot"
            ),
            SnapshotError::ChecksumMismatch {
                region,
                expected,
                actual,
            } => write!(
                f,
                "snapshot {region} checksum mismatch (stored {expected:#018x}, computed \
                 {actual:#018x}): the bytes decayed or were modified; regenerate with \
                 write_snapshot"
            ),
            SnapshotError::Misaligned { section, offset } => write!(
                f,
                "snapshot section `{section}` starts at byte {offset}, which is not \
                 4-byte aligned: the zero-copy u32 view would be unsound; regenerate \
                 with write_snapshot"
            ),
            SnapshotError::InvalidUtf8 {
                region,
                valid_up_to,
            } => write!(
                f,
                "snapshot {region} is not valid UTF-8 after byte {valid_up_to}: the \
                 file was crafted or decayed; regenerate with write_snapshot"
            ),
            SnapshotError::Corrupt(msg) => {
                write!(
                    f,
                    "snapshot is corrupt: {msg}; regenerate with write_snapshot"
                )
            }
        }
    }
}

/// Structural equality; [`SnapshotError::Io`] compares by
/// [`std::io::ErrorKind`] (the payload itself is not comparable).
impl PartialEq for SnapshotError {
    fn eq(&self, other: &Self) -> bool {
        use SnapshotError::*;
        match (self, other) {
            (Io(a), Io(b)) => a.kind() == b.kind(),
            (NotASnapshot { found: a }, NotASnapshot { found: b }) => a == b,
            (UnsupportedEndianness, UnsupportedEndianness) => true,
            (
                UnsupportedVersion {
                    found: a,
                    supported: sa,
                },
                UnsupportedVersion {
                    found: b,
                    supported: sb,
                },
            ) => a == b && sa == sb,
            (
                Truncated {
                    expected: a,
                    actual: aa,
                },
                Truncated {
                    expected: b,
                    actual: ba,
                },
            ) => a == b && aa == ba,
            (
                ChecksumMismatch {
                    region: ra,
                    expected: ea,
                    actual: aa,
                },
                ChecksumMismatch {
                    region: rb,
                    expected: eb,
                    actual: ab,
                },
            ) => ra == rb && ea == eb && aa == ab,
            (
                Misaligned {
                    section: sa,
                    offset: oa,
                },
                Misaligned {
                    section: sb,
                    offset: ob,
                },
            ) => sa == sb && oa == ob,
            (
                InvalidUtf8 {
                    region: ra,
                    valid_up_to: va,
                },
                InvalidUtf8 {
                    region: rb,
                    valid_up_to: vb,
                },
            ) => ra == rb && va == vb,
            (Corrupt(a), Corrupt(b)) => a == b,
            _ => false,
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// What [`write_snapshot`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Total bytes written.
    pub file_len: u64,
    /// The content-derived stamp the reopened document will carry (high
    /// bit set; equal for byte-identical documents).
    pub stamp: u64,
}

/// The crate's cells in [`minctx_obs::global`].
struct Counters {
    /// `index/snapshots_written`: snapshots committed by
    /// [`write_snapshot`] (bumped only after the durable rename).
    written: minctx_obs::Counter,
    /// `index/snapshots_opened`: snapshots that passed full validation
    /// in [`open_snapshot`].
    opened: minctx_obs::Counter,
    /// `index/open_hash_ns`, `index/open_sweep_ns`: where the opens'
    /// passes over the sections spent their time, summed over opens.
    open_hash_ns: minctx_obs::Counter,
    open_sweep_ns: minctx_obs::Counter,
}

fn counters() -> &'static Counters {
    static C: std::sync::OnceLock<Counters> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        let cell = |name| minctx_obs::global().counter(name);
        Counters {
            written: cell("index/snapshots_written"),
            opened: cell("index/snapshots_opened"),
            open_hash_ns: cell("index/open_hash_ns"),
            open_sweep_ns: cell("index/open_sweep_ns"),
        }
    })
}

/// Serializes `doc` into the snapshot container at `path`.  The write is
/// a single sequential pass; the header — including the content-derived
/// stamp — is patched in afterwards.
///
/// The write is **crash-safe**: bytes go to a hidden temp file in the
/// target directory (`.<name>.tmp-<pid>-<n>`), which is `fsync`ed and
/// then atomically renamed over `path`, followed by an fsync of the
/// directory so the rename itself is durable.  A reader (or a concurrent
/// [`open_snapshot`]) therefore sees either the previous complete
/// snapshot or the new complete snapshot — never a partial file — and a
/// writer killed at any byte leaves `path` untouched.  Temp files left
/// behind by crashed writers of the *same* target are reaped on the next
/// successful write (see [`stale_temps`]).  Concurrent writers of one
/// target path are not coordinated: last rename wins.
pub fn write_snapshot(
    doc: &Document,
    path: impl AsRef<Path>,
) -> Result<SnapshotInfo, SnapshotError> {
    #[cfg(target_endian = "big")]
    {
        let _ = (doc, path);
        Err(SnapshotError::UnsupportedEndianness)
    }
    #[cfg(target_endian = "little")]
    {
        let r = write_snapshot_le(doc, path.as_ref());
        if r.is_ok() {
            counters().written.inc();
        }
        r
    }
}

/// Opens the snapshot at `path` as a zero-copy, memory-mapped
/// [`Document`] after full integrity validation (see the crate docs).
/// The returned document behaves exactly like a built one — same
/// accessors, same evaluators, same axis kernels — and holds the mapping
/// alive for as long as it (or any clone) exists.
pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Document, SnapshotError> {
    #[cfg(target_endian = "big")]
    {
        let _ = path;
        Err(SnapshotError::UnsupportedEndianness)
    }
    #[cfg(target_endian = "little")]
    {
        let r = open_snapshot_le(path.as_ref());
        if r.is_ok() {
            counters().opened.inc();
        }
        r
    }
}

/// Reads just the stamp of the snapshot at `path` — the content-derived
/// key a serving layer's snapshot cache is indexed by — without mapping
/// or validating the sections.  Only the 104-byte header is read and
/// checked (magic, endianness, version, header checksum), so peeking a
/// stamp costs one small read instead of a full open's `O(file)`
/// integrity scan.  A subsequent [`open_snapshot`] still performs the
/// complete validation.
pub fn snapshot_stamp(path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
    #[cfg(target_endian = "big")]
    {
        let _ = path;
        Err(SnapshotError::UnsupportedEndianness)
    }
    #[cfg(target_endian = "little")]
    {
        snapshot_stamp_le(path.as_ref())
    }
}

#[cfg(target_endian = "little")]
fn snapshot_stamp_le(path: &Path) -> Result<u64, SnapshotError> {
    use std::io::Read;
    let mut file = File::open(path)?;
    let actual = file.metadata()?.len();
    if actual < HEADER_LEN as u64 {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN as u64,
            actual,
        });
    }
    let mut bytes = [0u8; HEADER_LEN];
    file.read_exact(&mut bytes)?;
    Ok(check_header(&bytes)?.stamp)
}

/// The header gate of both [`snapshot_stamp`] and [`open_snapshot`]:
/// magic, endianness and version — in that order, each with its
/// dedicated error — *before* the header checksum, so a foreign or
/// version-skewed file is named as such rather than reported as a
/// generic checksum mismatch; then the stamp's namespace bit.
#[cfg(target_endian = "little")]
fn check_header(bytes: &[u8; HEADER_LEN]) -> Result<Header, SnapshotError> {
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::NotASnapshot {
            found: bytes[..8].try_into().expect("8 bytes"),
        });
    }
    if u32::from_le_bytes(bytes[8..12].try_into().expect("4")) != ENDIAN_TAG {
        return Err(SnapshotError::UnsupportedEndianness);
    }
    let version = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let header = Header::from_bytes(bytes);
    let header_hash = hash_bytes(&bytes[..88]);
    if header_hash != header.header_hash {
        return Err(SnapshotError::ChecksumMismatch {
            region: "header",
            expected: header.header_hash,
            actual: header_hash,
        });
    }
    if header.stamp & SNAPSHOT_STAMP_BIT == 0 {
        return Err(SnapshotError::Corrupt(
            "stamp is missing the snapshot namespace bit".into(),
        ));
    }
    Ok(header)
}

/// Reinterprets a `u32` column as raw bytes (little-endian hosts only:
/// the in-memory representation *is* the on-disk representation — this
/// cast is what makes both the write and the open zero-copy).
#[cfg(target_endian = "little")]
fn u32s_as_bytes(s: &[u32]) -> &[u8] {
    // SAFETY: u32 has no padding; alignment only decreases.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Distinguishes temp files of concurrent in-process writers.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The hidden-temp-file prefix every writer of `file_name` uses.
fn temp_prefix(file_name: &std::ffi::OsStr) -> String {
    format!(".{}.tmp-", file_name.to_string_lossy())
}

/// The directory a snapshot path lives in (`.` for bare file names).
fn snapshot_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Temp files left behind by killed writers of `path`'s snapshot —
/// `.<name>.tmp-*` entries in its directory.  [`write_snapshot`] reaps
/// them automatically before each write; this is the inspection hook for
/// tests and operators.
pub fn stale_temps(path: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let path = path.as_ref();
    let Some(file_name) = path.file_name() else {
        return Ok(Vec::new());
    };
    let prefix = temp_prefix(file_name);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(snapshot_dir(path))? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            out.push(entry.path());
        }
    }
    Ok(out)
}

/// Best-effort removal of every stale temp for `path` (crashed writers
/// never clean up — the next writer does).
fn reap_stale_temps(path: &Path) {
    if let Ok(temps) = stale_temps(path) {
        for t in temps {
            let _ = std::fs::remove_file(t);
        }
    }
}

/// Renames `path` to `<path>.corrupt`, returning the quarantine path.
/// The decayed bytes stay available for post-mortems while retry loops
/// (and snapshot caches) stop re-validating a file that can never open;
/// a subsequent [`write_snapshot`] recreates `path` from scratch.
pub fn quarantine_snapshot(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
    let path = path.as_ref();
    let Some(file_name) = path.file_name() else {
        return Err(std::io::Error::other("snapshot path has no file name"));
    };
    let mut name = file_name.to_os_string();
    name.push(".corrupt");
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

/// [`open_snapshot`], with invalid files quarantined: when the file
/// exists but fails validation (wrong magic or version, checksum
/// mismatch, truncation, violated invariants — every error except
/// [`SnapshotError::Io`]), it is renamed to `<path>.corrupt` before the
/// error is returned, so a serving loop's next attempt sees a missing
/// file instead of re-scanning garbage forever.  The quarantine rename
/// is best-effort; the returned error is the validation failure either
/// way.
pub fn open_snapshot_or_quarantine(path: impl AsRef<Path>) -> Result<Document, SnapshotError> {
    let path = path.as_ref();
    match open_snapshot(path) {
        Err(e) if !matches!(e, SnapshotError::Io(_)) => {
            let _ = quarantine_snapshot(path);
            Err(e)
        }
        r => r,
    }
}

#[cfg(target_endian = "little")]
fn write_snapshot_le(doc: &Document, path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::Corrupt("snapshot path has no file name".into()))?;
    reap_stale_temps(path);
    let tmp = snapshot_dir(path).join(format!(
        "{}{}-{}",
        temp_prefix(file_name),
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fault::begin_write();
    let r = write_sections_then_commit(doc, &tmp, path);
    if r.is_err() && !fault::crash_fired() {
        // A clean error path removes its temp; a simulated kill leaves
        // it torn on disk, exactly like a real one (the next writer
        // reaps it).
        let _ = std::fs::remove_file(&tmp);
    }
    r
}

/// Make the rename of a snapshot durable: fsync its directory.
#[cfg(all(target_endian = "little", unix))]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(all(target_endian = "little", not(unix)))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// The sequential section pass into `tmp`, then the durable commit:
/// temp `sync_all` → atomic rename onto `path` → directory fsync.
#[cfg(target_endian = "little")]
fn write_sections_then_commit(
    doc: &Document,
    tmp: &Path,
    path: &Path,
) -> Result<SnapshotInfo, SnapshotError> {
    let cols = doc.raw_columns();
    // Serialize the name table as CSR offsets + concatenated UTF-8.
    let mut name_off: Vec<u32> = Vec::with_capacity(doc.names().len() + 1);
    let mut name_bytes: Vec<u8> = Vec::new();
    name_off.push(0);
    for s in doc.names().strings() {
        name_bytes.extend_from_slice(s.as_bytes());
        let off = u32::try_from(name_bytes.len())
            .map_err(|_| SnapshotError::Corrupt("name table exceeds 4 GiB".into()))?;
        name_off.push(off);
    }

    let mut header = Header {
        node_count: cols.kinds.len() as u64,
        name_count: doc.names().len() as u64,
        text_heap_len: cols.text_heap.len() as u64,
        elem_post_len: cols.elem_post.len() as u64,
        attr_post_len: cols.attr_post.len() as u64,
        id_count: cols.id_attrs.len() as u64,
        names_bytes_len: name_bytes.len() as u64,
        stamp: 0,
        file_len: 0,
        header_hash: 0,
        section_hash: 0,
    };
    let lay = format::layout(&header).ok_or_else(|| {
        SnapshotError::Corrupt("document too large for the snapshot format".into())
    })?;
    header.file_len = lay.total as u64;

    let mut file = File::create(tmp)?;
    {
        let mut w = HashWrite {
            w: std::io::BufWriter::new(&mut file),
            hash: FastHash::new(),
            pos: HEADER_LEN,
        };
        // Header placeholder (zeros); patched after the section pass.
        faulted_write(&mut w.w, &[0u8; HEADER_LEN])?;
        for (sect, bytes) in section_bytes(&lay, &cols, &name_off, &name_bytes) {
            w.pad_to(sect.off)?;
            debug_assert_eq!(sect.off % SECTION_ALIGN, 0);
            w.write(bytes)?;
        }
        w.pad_to(lay.total)?;
        header.section_hash = w.hash.finish();
        w.w.flush()?;
    }
    header.stamp = SNAPSHOT_STAMP_BIT | (header.section_hash & !SNAPSHOT_STAMP_BIT);
    let mut hb = header.to_bytes();
    header.header_hash = hash_bytes(&hb[..88]);
    hb = header.to_bytes();
    file.seek(SeekFrom::Start(0))?;
    faulted_write(&mut file, &hb)?;
    file.flush()?;
    // Durable commit: the temp's bytes reach the platter, then the
    // rename atomically swings `path` from the old complete snapshot to
    // the new one (a concurrently mapped old file keeps its inode), then
    // the directory entry itself is made durable.
    fault::check(fault::Step::Sync)?;
    file.sync_all()?;
    drop(file);
    fault::check(fault::Step::Rename)?;
    std::fs::rename(tmp, path)?;
    fault::check(fault::Step::DirSync)?;
    sync_dir(snapshot_dir(path))?;
    Ok(SnapshotInfo {
        file_len: header.file_len,
        stamp: header.stamp,
    })
}

/// Writes `bytes` through the thread-local fault plan: the permitted
/// prefix goes down (and is flushed, so a simulated kill leaves exactly
/// the planned byte count on disk), then the injected crash surfaces.
fn faulted_write(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    let n = fault::permit(bytes.len());
    w.write_all(&bytes[..n])?;
    if n < bytes.len() {
        w.flush()?;
        return Err(fault::crash_error());
    }
    Ok(())
}

/// The sections in on-disk order, paired with their layout slots.
#[cfg(target_endian = "little")]
fn section_bytes<'a>(
    lay: &Layout,
    cols: &RawColumns<'a>,
    name_off: &'a [u32],
    name_bytes: &'a [u8],
) -> [(Sect, &'a [u8]); 13] {
    [
        (lay.kinds, u32s_as_bytes(cols.kinds)),
        (lay.parent, u32s_as_bytes(cols.parent)),
        (lay.subtree_end, u32s_as_bytes(cols.subtree_end)),
        (lay.text_off, u32s_as_bytes(cols.text_off)),
        (lay.elem_off, u32s_as_bytes(cols.elem_off)),
        (lay.elem_post, u32s_as_bytes(cols.elem_post)),
        (lay.attr_off, u32s_as_bytes(cols.attr_off)),
        (lay.attr_post, u32s_as_bytes(cols.attr_post)),
        (lay.id_attrs, u32s_as_bytes(cols.id_attrs)),
        (lay.id_elems, u32s_as_bytes(cols.id_elems)),
        (lay.name_off, u32s_as_bytes(name_off)),
        (lay.name_bytes, name_bytes),
        (lay.text_heap, cols.text_heap),
    ]
}

/// A writer that feeds every section byte (padding included) through the
/// checksum while tracking the absolute file position.
struct HashWrite<W: Write> {
    w: W,
    hash: FastHash,
    pos: usize,
}

impl<W: Write> HashWrite<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        faulted_write(&mut self.w, bytes)?;
        self.hash.write(bytes);
        self.pos += bytes.len();
        Ok(())
    }

    fn pad_to(&mut self, target: usize) -> std::io::Result<()> {
        const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
        debug_assert!(target >= self.pos && target - self.pos < SECTION_ALIGN + 1);
        while self.pos < target {
            let n = (target - self.pos).min(SECTION_ALIGN);
            self.write(&ZEROS[..n])?;
        }
        Ok(())
    }
}

/// Bounds- and alignment-checked `u32` view of the section named
/// `section` (the name only feeds the error).
#[cfg(target_endian = "little")]
#[expect(
    clippy::cast_ptr_alignment,
    reason = "the alignment-raising cast is guarded by the explicit check above it"
)]
fn u32_slice<'a>(
    bytes: &'a [u8],
    s: Sect,
    section: &'static str,
) -> Result<&'a [u32], SnapshotError> {
    let sl = byte_slice(bytes, s.off, s.count.checked_mul(4).ok_or_else(overflow)?)?;
    if sl.as_ptr() as usize % std::mem::align_of::<u32>() != 0 {
        return Err(SnapshotError::Misaligned {
            section,
            offset: s.off,
        });
    }
    // SAFETY: bounds and alignment checked; u32 tolerates any bit
    // pattern; the host is little-endian (checked by the caller).
    Ok(unsafe { std::slice::from_raw_parts(sl.as_ptr().cast::<u32>(), s.count) })
}

fn byte_slice(bytes: &[u8], off: usize, len: usize) -> Result<&[u8], SnapshotError> {
    off.checked_add(len)
        .and_then(|end| bytes.get(off..end))
        .ok_or_else(|| {
            SnapshotError::Corrupt(format!(
                "section {off}..+{len} exceeds the {}-byte file",
                bytes.len()
            ))
        })
}

fn overflow() -> SnapshotError {
    SnapshotError::Corrupt("section size overflows".into())
}

#[cfg(target_endian = "little")]
fn open_snapshot_le(path: &Path) -> Result<Document, SnapshotError> {
    let mut file = File::open(path)?;
    let actual = file.metadata()?.len();
    if actual < HEADER_LEN as u64 {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN as u64,
            actual,
        });
    }
    let len = usize::try_from(actual)
        .map_err(|_| SnapshotError::Corrupt("snapshot exceeds the address space".into()))?;
    let keep: Arc<dyn StableBytes> = Arc::new(map::map_file(&mut file, len)?);
    let bytes = keep.bytes();

    // ---- Container validation: identity, geometry ----------------------
    let header = check_header(bytes[..HEADER_LEN].try_into().expect("header length"))?;
    if header.file_len != actual {
        return Err(SnapshotError::Truncated {
            expected: header.file_len,
            actual,
        });
    }
    let lay = format::layout(&header)
        .ok_or_else(|| SnapshotError::Corrupt("header counts overflow the layout".into()))?;
    if lay.total as u64 != actual {
        return Err(SnapshotError::Truncated {
            expected: lay.total as u64,
            actual,
        });
    }
    let name_off = u32_slice(bytes, lay.name_off, "name_off")?;
    let name_bytes = byte_slice(bytes, lay.name_bytes.off, lay.name_bytes.count)?;
    let cols = RawColumns {
        kinds: u32_slice(bytes, lay.kinds, "kinds")?,
        parent: u32_slice(bytes, lay.parent, "parent")?,
        subtree_end: u32_slice(bytes, lay.subtree_end, "subtree_end")?,
        text_off: u32_slice(bytes, lay.text_off, "text_off")?,
        text_heap: byte_slice(bytes, lay.text_heap.off, lay.text_heap.count)?,
        elem_off: u32_slice(bytes, lay.elem_off, "elem_off")?,
        elem_post: u32_slice(bytes, lay.elem_post, "elem_post")?,
        attr_off: u32_slice(bytes, lay.attr_off, "attr_off")?,
        attr_post: u32_slice(bytes, lay.attr_post, "attr_post")?,
        id_attrs: u32_slice(bytes, lay.id_attrs, "id_attrs")?,
        id_elems: u32_slice(bytes, lay.id_elems, "id_elems")?,
    };

    // ---- One pass over the sections: checksum and invariant sweep ------
    // Each block is hashed and then — while it is still in cache —
    // swept (`ColumnSweep` checks every column entry the bytes read so
    // far contain).  The sweep keeps its verdict to itself until the
    // end, so a decayed file is still reported as a checksum mismatch,
    // never as whatever invariant the flipped bit happened to break.
    let mut sweep = ColumnSweep::new(cols, lay.name_off.count - 1);
    let mut hash = FastHash::new();
    let mut clock = Instant::now();
    let mut lap = || {
        let since = std::mem::replace(&mut clock, Instant::now());
        (clock - since).as_nanos() as u64
    };
    let (mut hash_ns, mut sweep_ns) = (0, 0);
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let end = bytes.len().min(pos + OPEN_BLOCK);
        hash.write(&bytes[pos..end]);
        hash_ns += lap();
        sweep.advance(&bytes[..end]);
        sweep_ns += lap();
        pos = end;
    }
    counters().open_hash_ns.add(hash_ns);
    counters().open_sweep_ns.add(sweep_ns);
    let section_hash = hash.finish();
    if section_hash != header.section_hash {
        return Err(SnapshotError::ChecksumMismatch {
            region: "section",
            expected: header.section_hash,
            actual: section_hash,
        });
    }

    // ---- Name table ---------------------------------------------------
    // Reject invalid bytes wholesale before per-entry slicing, so the
    // error names the region even when entry offsets are also wrong.
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

    // ---- Columns: the sweep's verdict, then zero-copy adoption ---------
    // The text heap backs `from_utf8_unchecked` views for the life of
    // the document; the sweep validated it (once), and its failure
    // keeps the typed error.
    sweep
        .finish(names, header.stamp, Arc::clone(&keep))
        .map_err(|e| match e {
            ColumnError::InvalidUtf8 { valid_up_to } => SnapshotError::InvalidUtf8 {
                region: "text heap",
                valid_up_to,
            },
            ColumnError::Invariant(_) => SnapshotError::Corrupt(e.to_string()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minctx-index-{}-{name}.mctx", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let doc = minctx_xml::parse(
            r#"<lib x="1"><b id="b1">t1</b><!--c--><?p d?><b id="b2" y="2">t2<i/></b></lib>"#,
        )
        .unwrap();
        let path = temp("roundtrip");
        let info = write_snapshot(&doc, &path).unwrap();
        let re = open_snapshot(&path).unwrap();
        assert_eq!(re.len(), doc.len());
        assert_eq!(re.debug_tree(), doc.debug_tree());
        assert_eq!(re.string_value(re.root()), doc.string_value(doc.root()));
        assert_eq!(re.element_count(), doc.element_count());
        assert_eq!(re.size(), doc.size());
        for (a, b) in doc.all_nodes().zip(re.all_nodes()) {
            assert_eq!(doc.kind(a), re.kind(b));
            assert_eq!(doc.content(a), re.content(b));
            assert_eq!(doc.subtree_end(a), re.subtree_end(b));
        }
        // Postings survive: name-test lookups agree.
        let b_owned = doc.find_name("b").unwrap();
        let b_mapped = re.find_name("b").unwrap();
        assert_eq!(doc.element_postings(b_owned), re.element_postings(b_mapped));
        // Id index survives as a binary-searchable column.
        assert_eq!(
            doc.element_by_id("b2").map(|n| n.index()),
            re.element_by_id("b2").map(|n| n.index())
        );
        assert_eq!(re.element_by_id("zz"), None);
        // Stamp: content-derived, high bit set, stable across opens.
        assert_eq!(re.stamp(), info.stamp);
        assert_eq!(re.stamp() >> 63, 1);
        assert_ne!(re.stamp(), doc.stamp());
        assert_eq!(open_snapshot(&path).unwrap().stamp(), info.stamp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u32_slice_refuses_misaligned_sections_with_a_typed_error() {
        // An 8-aligned heap region, sliced at an odd offset: the typed
        // `Misaligned` error must fire before any reinterpret cast.
        let region = vec![0u64; 4];
        let bytes: &[u8] = bytemuck_view(&region);
        let ok = u32_slice(bytes, Sect { off: 4, count: 2 }, "probe").unwrap();
        assert_eq!(ok.len(), 2);
        let err = u32_slice(bytes, Sect { off: 2, count: 2 }, "probe").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Misaligned {
                section: "probe",
                offset: 2
            }
        );
        assert!(err.to_string().contains("probe"), "{err}");
    }

    /// Test-only safe view of a `u64` buffer as bytes.
    fn bytemuck_view(v: &[u64]) -> &[u8] {
        // SAFETY: (test) u64 -> u8 view; alignment only decreases and
        // every bit pattern is a valid u8.
        unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
    }

    #[test]
    fn identical_documents_share_a_stamp_distinct_documents_do_not() {
        let d1 = minctx_xml::parse("<a><b/></a>").unwrap();
        let d2 = minctx_xml::parse("<a><b/></a>").unwrap();
        let d3 = minctx_xml::parse("<a><c/></a>").unwrap();
        let (p1, p2, p3) = (temp("s1"), temp("s2"), temp("s3"));
        let s1 = write_snapshot(&d1, &p1).unwrap().stamp;
        let s2 = write_snapshot(&d2, &p2).unwrap().stamp;
        let s3 = write_snapshot(&d3, &p3).unwrap().stamp;
        assert_eq!(s1, s2, "byte-identical documents must share a stamp");
        assert_ne!(s1, s3);
        for p in [p1, p2, p3] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn clones_of_mapped_documents_share_the_mapping() {
        let doc = minctx_xml::parse("<a>text</a>").unwrap();
        let path = temp("clone");
        write_snapshot(&doc, &path).unwrap();
        let re = open_snapshot(&path).unwrap();
        let cl = re.clone();
        drop(re);
        // The clone keeps the mapping alive.
        assert_eq!(cl.string_value(cl.root()), "text");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let e = open_snapshot(temp("nonexistent")).unwrap_err();
        assert!(matches!(e, SnapshotError::Io(_)), "{e}");
    }

    #[test]
    fn snapshot_stamp_peeks_the_header_only() {
        let doc = minctx_xml::parse("<a><b/>x</a>").unwrap();
        let path = temp("stamp-peek");
        let info = write_snapshot(&doc, &path).unwrap();
        assert_eq!(snapshot_stamp(&path).unwrap(), info.stamp);
        assert_eq!(
            snapshot_stamp(&path).unwrap(),
            open_snapshot(&path).unwrap().stamp()
        );
        // A flipped bit in the header is caught by the header checksum…
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            snapshot_stamp(&path).unwrap_err(),
            SnapshotError::ChecksumMismatch {
                region: "header",
                ..
            }
        ));
        // …but a section flip is deliberately not: the peek reads only the
        // header (open_snapshot still rejects the file).
        bytes[20] ^= 0x01;
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(snapshot_stamp(&path).unwrap(), info.stamp);
        assert!(open_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
