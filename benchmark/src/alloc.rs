//! A byte-counting wrapper over the system allocator with a runtime
//! switch.  Counting is off while anything is timed (the wrapper then
//! costs one relaxed load per call) and on only inside [`measure`], which
//! feeds `peak_mb` and the `*.alloc_mb` / `*_heap_mb` layer rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

pub struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the level when counting was switched on; signed
/// because memory allocated before the switch may be freed after it.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn record_alloc(size: usize) {
    TOTAL.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn record_dealloc(size: usize) {
    LIVE.fetch_sub(size as isize, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// keeps counters beside it.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Ordering::Relaxed) {
            record_dealloc(layout.size());
        }
    }

    // SAFETY: `unsafe fn` is mandated by the trait; the caller upholds
    // `GlobalAlloc`'s layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: arguments forwarded unchanged under the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// What one [`measure`]d region did to the heap, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapDelta {
    /// Highest live level above the level at the start of the region.
    pub peak: usize,
    /// Bytes still live at the end that were not live at the start.
    pub retained: usize,
    /// Bytes allocated in the region, freed or not.
    pub total: usize,
}

pub const MB: f64 = 1_000_000.0;

/// Runs `f` with counting on and reports the region's heap traffic.
/// Regions must not nest or overlap (the harness measures from one
/// thread); other threads' allocations inside the region are counted.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let r = f();
    ENABLED.store(false, Ordering::SeqCst);
    let delta = HeapDelta {
        peak: PEAK.load(Ordering::Relaxed).max(0) as usize,
        retained: LIVE.load(Ordering::Relaxed).max(0) as usize,
        total: TOTAL.load(Ordering::Relaxed),
    };
    (r, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the counters are process-global and the test
    // harness runs tests on parallel threads.
    #[test]
    fn measure_reports_peak_retained_and_total() {
        let (kept, d) = measure(|| {
            let big = vec![0u8; 1 << 20];
            std::hint::black_box(&big);
            drop(big);
            vec![1u8; 1 << 10]
        });
        // Lower bounds only: tests on other threads allocate meanwhile.
        assert!(d.peak >= 1 << 20, "{d:?}");
        assert!(d.total >= (1 << 20) + (1 << 10), "{d:?}");
        assert!(d.retained >= 1 << 10, "{d:?}");
        drop(kept);
        // Memory allocated before the region and freed inside it must not
        // wrap the unsigned figures around.
        let old = vec![0u8; 1 << 16];
        let (_, d) = measure(|| drop(old));
        assert!(
            d.peak < usize::MAX / 2 && d.retained < usize::MAX / 2,
            "{d:?}"
        );
    }
}
