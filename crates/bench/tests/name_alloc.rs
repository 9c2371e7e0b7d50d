//! `NameTable::intern` allocates a new name once: the table's index order
//! and its lookup map share one copy of the string.  One test in this
//! binary, so nothing else allocates while it counts.

use minctx_bench::CountingAllocator;
use minctx_xml::NameTable;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_new_name_is_allocated_once() {
    const NAMES: usize = 10_000;
    let names: Vec<String> = (0..NAMES).map(|i| format!("name{i}")).collect();
    let mut table = NameTable::new();
    let before = ALLOC.count();
    for s in &names {
        table.intern(s);
    }
    let per_name = (ALLOC.count() - before) as f64 / NAMES as f64;
    assert_eq!(table.len(), NAMES);
    // The table's own growth (a doubling `Vec`, a rehashing map) adds a
    // few dozen allocations over the whole run.
    assert!(per_name <= 1.1, "{per_name} allocations a name");
    // Interning a known name allocates nothing.
    let before = ALLOC.count();
    for s in &names {
        table.intern(s);
    }
    assert_eq!(ALLOC.count(), before);
}
