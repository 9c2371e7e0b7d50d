//! Miri-tier exercise of [`CountingAllocator`]: the only `unsafe` in
//! `minctx-bench` is its `GlobalAlloc` impl, so drive every method —
//! alloc, realloc (grow and shrink), dealloc — directly through the
//! trait and check the gauges.  Under Miri this validates the raw
//! pointers handed back and the layout contract; in the ordinary tier
//! it is the allocator's accounting regression test.

#![allow(unsafe_code, reason = "(test) calls `GlobalAlloc` methods directly")]

use minctx_bench::CountingAllocator;
use std::alloc::{GlobalAlloc, Layout};

#[test]
fn alloc_realloc_dealloc_account_correctly() {
    let a = CountingAllocator::new();
    let layout = Layout::from_size_align(64, 8).unwrap();

    // SAFETY: (test) layout is non-zero-sized; the pointer is checked,
    // written through while live, and freed below with the same layout.
    let p = unsafe { a.alloc(layout) };
    assert!(!p.is_null());
    // SAFETY: (test) p is valid for 64 bytes.
    unsafe { p.write_bytes(0xAB, 64) };
    assert_eq!(a.live(), 64);
    assert_eq!(a.peak(), 64);

    // SAFETY: (test) p came from `a.alloc(layout)`; growing to 128.
    let p = unsafe { a.realloc(p, layout, 128) };
    assert!(!p.is_null());
    // SAFETY: (test) first byte survived the grow and is readable.
    assert_eq!(unsafe { p.read() }, 0xAB);
    assert_eq!(a.live(), 128);
    assert_eq!(a.peak(), 128);

    let grown = Layout::from_size_align(128, 8).unwrap();
    // SAFETY: (test) p came from the realloc above with `grown`'s size;
    // shrinking to 16.
    let p = unsafe { a.realloc(p, grown, 16) };
    assert!(!p.is_null());
    assert_eq!(a.live(), 16);

    let shrunk = Layout::from_size_align(16, 8).unwrap();
    // SAFETY: (test) p is the live allocation with layout `shrunk`.
    unsafe { a.dealloc(p, shrunk) };
    assert_eq!(a.live(), 0);
    assert_eq!(a.peak(), 128, "peak is sticky");
    assert_eq!(a.total(), 64 + 128 + 16);

    a.reset_peak();
    assert_eq!(a.peak(), 0);
}
