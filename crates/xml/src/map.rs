//! File mapping: the region that keeps an open snapshot's columns valid
//! for the life of the `Document` (its borrowed columns hold it in an
//! `Arc`).
//!
//! On Unix the file is `mmap`ed read-only (`MAP_PRIVATE`) — opening a
//! snapshot then costs page-table setup plus the integrity scan, not a
//! copy of the file.  The raw syscalls are declared directly against the
//! C library the Rust runtime already links (the workspace is
//! dependency-free by design, so no `libc` crate).  Where `mmap` is
//! unavailable (non-Unix targets, or a map failure at runtime) the file
//! is read into an 8-byte-aligned heap buffer instead; both backings
//! satisfy the same alignment guarantees the `u32` column casts rely on.
//!
//! Under Miri (`cfg(miri)`) the mmap path is compiled out entirely —
//! the interpreter cannot execute foreign functions — so every snapshot
//! open goes through the heap fallback and the whole unsafe surface
//! stays Miri-executable.

#![allow(unsafe_code, reason = "the `mmap` FFI and the region it backs")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// A read-only byte region backing a mapped snapshot.
pub(crate) enum Mapping {
    #[cfg(all(unix, not(miri)))]
    Mmap { ptr: *const u8, len: usize },
    /// 8-byte-aligned heap copy (fallback); `.1` is the byte length.
    Heap(Vec<u64>, usize),
}

// SAFETY: the mapped region is read-only and never changes address for
// the life of the Mapping; the heap variant is an ordinary owned buffer.
unsafe impl Send for Mapping {}
// SAFETY: as for Send — the region is immutable, so concurrent reads
// through shared references are sound.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// The region's bytes: the same pointer and length on every call,
    /// never written, and unmapped or freed only when the `Mapping` drops.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, not(miri)))]
            Mapping::Mmap { ptr, len } => {
                // SAFETY: `ptr` is what mmap returned, valid for `len`
                // bytes, and stays mapped until this value drops.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Mapping::Heap(buf, len) => {
                // SAFETY: the buffer holds at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }
}

#[cfg(all(unix, not(miri)))]
impl Drop for Mapping {
    fn drop(&mut self) {
        if let Mapping::Mmap { ptr, len } = *self {
            // SAFETY: ptr/len are exactly what mmap returned.
            unsafe { sys::munmap(ptr as *mut core::ffi::c_void, len) };
        }
    }
}

#[cfg(all(unix, not(miri)))]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        // Declared against the platform C library std already links; the
        // signatures match POSIX with 64-bit `off_t` (all Tier-1 Unix
        // targets build with 64-bit file offsets).
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// Maps (or, failing that, reads) `len` bytes of `file`.
pub(crate) fn map_file(file: &mut File, len: usize) -> std::io::Result<Mapping> {
    #[cfg(all(unix, not(miri)))]
    {
        use std::os::unix::io::AsRawFd;
        if len > 0 {
            // SAFETY: mapping a readable fd read-only/private; the result
            // is checked against MAP_FAILED before use.
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p as isize != -1 {
                return Ok(Mapping::Mmap {
                    ptr: p as *const u8,
                    len,
                });
            }
            // Fall through to the heap read on any mmap failure.
        }
    }
    read_to_aligned_heap(file, len)
}

/// The portable fallback: the whole file in an 8-byte-aligned buffer.
fn read_to_aligned_heap(file: &mut File, len: usize) -> std::io::Result<Mapping> {
    let mut buf = vec![0u64; len.div_ceil(8)];
    // SAFETY: viewing the zero-initialized u64 buffer as bytes.
    let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(bytes)?;
    Ok(Mapping::Heap(buf, len))
}

#[cfg(test)]
impl Mapping {
    /// A heap region holding a copy of `data`.
    pub(crate) fn of(data: &[u8]) -> Mapping {
        let words = data.chunks(8).map(|c| {
            let mut w = [0; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_ne_bytes(w)
        });
        Mapping::Heap(words.collect(), data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minctx-map-{}-{name}", std::process::id()))
    }

    #[test]
    fn mapping_reflects_file_contents() {
        let path = temp("contents");
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&data)
            .unwrap();
        let mut f = File::open(&path).unwrap();
        let m = map_file(&mut f, data.len()).unwrap();
        assert_eq!(m.bytes(), &data[..]);
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0, "base not 8-aligned");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_matches() {
        let path = temp("heap");
        let data = b"0123456789abc"; // deliberately not a multiple of 8
        std::fs::File::create(&path)
            .unwrap()
            .write_all(data)
            .unwrap();
        let mut f = File::open(&path).unwrap();
        let m = read_to_aligned_heap(&mut f, data.len()).unwrap();
        assert_eq!(m.bytes(), data);
        std::fs::remove_file(&path).ok();
    }
}
