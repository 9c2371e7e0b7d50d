//! The range driver ([`Exec`]) through which the axis kernels run their
//! scans (see DESIGN.md "Parallel evaluation").
//!
//! A scan is cut into ascending, disjoint *index ranges* whose outputs are
//! concatenated in range order, so results are bit-identical to the same
//! kernel body run over the one whole range, whichever thread ran which
//! range.  A cut scan runs inside one [`std::thread::scope`]: the caller
//! and at most `min(threads, ranges) − 1` helpers claim ranges off one
//! counter, and a panic is re-raised once every range has run.

use crate::node::NodeId;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

fn chunks_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/chunks"))
}

fn bypass_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/bypass"))
}

/// `par/chunks`: ranges run by cut scans so far.
pub fn par_chunks_dispatched() -> u64 {
    chunks_counter().get()
}

/// `par/bypass`: threaded scans kept inline below the gate so far.
pub fn par_bypasses() -> u64 {
    bypass_counter().get()
}

/// The one gate, in scanned items (postings or arena ordinals): on two
/// threads no scan won below ~10⁵ items and arena sweeps broke even around
/// 2.7·10⁵ (PR 13), so nothing a 10⁵-element document holds is cut.
pub(crate) const GATE_ITEMS: usize = 524_288;

/// Minimum items per chunk (one range of a cut scan).
const MIN_CHUNK_ITEMS: usize = 65_536;

/// Chunk-count cap per worker: enough slack that one slow worker does not
/// serialize the scan, not so many that claiming dominates.
const CHUNKS_PER_THREAD: usize = 4;

/// How many chunks to cut a scan of `items` into for `threads` workers;
/// `0` means "below the gate: one range, on the calling thread".
fn chunks_for(threads: usize, items: usize) -> usize {
    if threads < 2 || items < GATE_ITEMS {
        return 0;
    }
    (items / MIN_CHUNK_ITEMS).min(threads * CHUNKS_PER_THREAD)
}

/// The `chunks + 1` bounds `b` cutting `0..len` into the ascending,
/// disjoint, covering ranges `b[i]..b[i + 1]`.
fn chunk_bounds(len: usize, chunks: usize) -> Vec<usize> {
    (0..=chunks).map(|i| i * len / chunks).collect()
}

/// How an axis kernel's scan is executed — the one thing
/// `Engine::with_threads` changes.  [`Exec::INLINE`] runs the kernel body
/// over the whole range straight into the caller's buffer; [`Exec::on`]
/// cuts scans past the gate into ranges and runs the *same* body on each.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    threads: usize,
    /// Cut points replacing the gate (unit tests only): they may repeat
    /// and exceed a scan's length, so empty and one-item ranges occur.
    cuts: Option<&'a [usize]>,
}

impl<'a> Exec<'a> {
    /// One range on the calling thread — what `threads = 1` runs.
    pub const INLINE: Exec<'static> = Exec::on(1);

    /// Scans past the gate are cut into ranges on up to `threads` threads,
    /// the caller's included; `threads < 2` is [`Exec::INLINE`].
    pub const fn on(threads: usize) -> Exec<'a> {
        Exec {
            threads,
            cuts: None,
        }
    }

    /// Every scan is cut at `cuts` (ascending), whatever its length.
    #[cfg(test)]
    pub(crate) fn cut_at(threads: usize, cuts: &'a [usize]) -> Exec<'a> {
        Exec {
            threads,
            cuts: Some(cuts),
        }
    }

    /// Runs `body(range, buf)` over `0..len`, appending to `out` what the
    /// body appends to `buf`; the body must emit a range's output in
    /// ascending order.  Returns the number of ranges (`0`: one, inline).
    #[inline(always)]
    pub(crate) fn scan<F>(self, len: usize, out: &mut Vec<NodeId>, body: F) -> usize
    where
        F: Fn(Range<usize>, &mut Vec<NodeId>) + Sync,
    {
        self.drive(len, out, false, body)
    }

    /// [`Exec::scan`] for a body emitting a range's output *descending*
    /// (`preceding` from one node): ranges concatenate last to first.
    #[inline(always)]
    pub(crate) fn scan_rev<F>(self, len: usize, out: &mut Vec<NodeId>, body: F) -> usize
    where
        F: Fn(Range<usize>, &mut Vec<NodeId>) + Sync,
    {
        self.drive(len, out, true, body)
    }

    #[inline(always)]
    fn drive<F>(self, len: usize, out: &mut Vec<NodeId>, reversed: bool, body: F) -> usize
    where
        F: Fn(Range<usize>, &mut Vec<NodeId>) + Sync,
    {
        let Some(bounds) = self.bounds(len) else {
            body(0..len, out);
            return 0;
        };
        run_ranges(self.threads, &bounds, out, reversed, &body)
    }

    /// Where to cut `0..len`: `k + 1` ascending bounds for `k` ranges, or
    /// `None` for one inline range.
    fn bounds(self, len: usize) -> Option<Vec<usize>> {
        if self.threads < 2 {
            return None;
        }
        if let Some(cuts) = self.cuts {
            let inner = cuts.iter().map(|&c| c.min(len));
            return Some(std::iter::once(0).chain(inner).chain([len]).collect());
        }
        let k = chunks_for(self.threads, len);
        if k == 0 {
            bypass_counter().inc();
            return None;
        }
        Some(chunk_bounds(len, k))
    }
}

/// Runs `body` on each range of `bounds` on up to `threads` threads and
/// concatenates the outputs in range order (reversed when `reversed`).
fn run_ranges(
    threads: usize,
    bounds: &[usize],
    out: &mut Vec<NodeId>,
    reversed: bool,
    body: &(dyn Fn(Range<usize>, &mut Vec<NodeId>) + Sync),
) -> usize {
    let k = bounds.len() - 1;
    chunks_counter().add(k as u64);
    let slots: Vec<Mutex<Option<thread::Result<Vec<NodeId>>>>> =
        (0..k).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        // Relaxed: it only hands out indices; outputs pass the slots' locks.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= k {
            return;
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            body(bounds[i]..bounds[i + 1], &mut buf);
            buf
        }));
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(ran);
    };
    thread::scope(|s| {
        // A helper that fails to spawn is no error: the caller claims its ranges.
        for _ in 1..threads.min(k) {
            if thread::Builder::new().spawn_scoped(s, work).is_err() {
                break;
            }
        }
        work();
    });
    // Every thread has joined, so every range has run; the first one that
    // panicked, in range order, re-raises its payload here.
    let mut bufs: Vec<Vec<NodeId>> = slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect::<thread::Result<_>>()
        .unwrap_or_else(|payload| resume_unwind(payload));
    if reversed {
        bufs.reverse();
    }
    bufs.iter().for_each(|buf| out.extend_from_slice(buf));
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_and_are_disjoint() {
        for len in [0usize, 1, 5, 64, 1000, 1001] {
            for chunks in [1usize, 2, 3, 7, 16] {
                let bounds = chunk_bounds(len, chunks);
                assert_eq!(bounds.len(), chunks + 1);
                assert_eq!((bounds[0], bounds[chunks]), (0, len));
                assert!(
                    bounds.windows(2).all(|w| w[0] <= w[1]),
                    "len={len} chunks={chunks}"
                );
            }
        }
    }

    #[test]
    fn chunks_for_gates_on_threshold_and_min_chunk() {
        assert_eq!(chunks_for(4, 0), 0);
        assert_eq!(chunks_for(4, GATE_ITEMS - 1), 0, "below the gate");
        assert_eq!(chunks_for(1, 10 * GATE_ITEMS), 0, "nobody to share with");
        // At the gate the scan is cut, in chunks no smaller than the
        // minimum…
        let at_gate = chunks_for(4, GATE_ITEMS);
        assert!(at_gate >= 2);
        assert!(GATE_ITEMS / at_gate >= MIN_CHUNK_ITEMS);
        // …and however long the scan, the per-thread cap holds.
        assert_eq!(chunks_for(2, usize::MAX / 2), 2 * CHUNKS_PER_THREAD);
    }

    #[test]
    fn scans_concatenate_in_range_order_and_reversed() {
        // Repeated and out-of-range cut points: empty ranges, clamped.
        let exec = Exec::cut_at(3, &[0, 3, 3, 4, 9, 50]);
        let ids = |r: Range<usize>| r.map(NodeId::from_index).collect::<Vec<_>>();
        let mut out = Vec::new();
        let k = exec.scan(12, &mut out, |r, buf| buf.extend(ids(r)));
        assert_eq!((k, out), (7, ids(0..12)));
        let mut out = Vec::new();
        exec.scan_rev(12, &mut out, |r, buf| buf.extend(ids(r).into_iter().rev()));
        assert_eq!(out, ids(0..12).into_iter().rev().collect::<Vec<_>>());
        // Inline: the body sees the one whole range and the caller's buffer.
        let mut out = vec![NodeId::from_index(99)];
        let k = Exec::INLINE.scan(3, &mut out, |r, buf| buf.extend(ids(r)));
        assert_eq!((k, out.len()), (0, 4));
        // Below the gate a threaded scan stays inline and says so.
        let before = par_bypasses();
        assert_eq!(Exec::on(2).scan(3, &mut out, |_, _| {}), 0);
        assert!(par_bypasses() > before);
    }

    #[test]
    fn one_thread_is_inline_at_any_length() {
        // `with_threads(1)` is `Exec::on(1)`: one body call over the whole
        // range, never cut, never counted — the default sequential engine
        // by construction.
        let lens = [0, 3, GATE_ITEMS, 10 * GATE_ITEMS];
        let inline = |len: usize| {
            let mut out = Vec::new();
            let k = Exec::on(1).scan(len, &mut out, |r, buf| {
                assert_eq!(r, 0..len);
                buf.push(NodeId::from_index(0));
            });
            assert_eq!((k, out.len()), (0, 1), "len {len}");
        };
        // Other tests in this binary move the global counters
        // concurrently, so look for one quiet window: an `Exec::on(1)`
        // that counted would move them in every window.
        let quiet = (0..1000).any(|_| {
            let before = (par_chunks_dispatched(), par_bypasses());
            lens.into_iter().for_each(inline);
            (par_chunks_dispatched(), par_bypasses()) == before
        });
        assert!(quiet, "Exec::on(1) moved par/chunks or par/bypass");
    }

    #[test]
    fn a_panicking_range_reaches_the_caller_after_the_region_drains() {
        let exec = Exec::cut_at(4, &[1, 2, 3, 4, 5, 6, 7]);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.scan(8, &mut Vec::new(), |r, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if r.start == 3 {
                    panic!("range 3 exploded");
                }
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref(), Some(&"range 3 exploded"));
        // Every range ran despite the panic…
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        // …and the same executor keeps working afterwards.
        let mut out = Vec::new();
        let k = exec.scan(8, &mut out, |r, buf| buf.extend(r.map(NodeId::from_index)));
        assert_eq!((k, out.len()), (8, 8));
    }
}
