//! A small zero-dependency scoped work-splitting pool, and the range driver
//! ([`Exec`]) through which the axis kernels run their scans on it (see
//! DESIGN.md "Parallel evaluation").
//!
//! A [`WorkerPool`] owns `threads − 1` parked OS threads; the caller of
//! [`WorkerPool::run`] is the remaining worker.  A parallel *region*
//! publishes one task — a `Fn(usize)` run once per chunk index — and
//! every participant claims chunk indices off a shared counter until the
//! region drains.  `run` returns only after **all** chunks completed, so
//! borrowed task state (documents, mark bitmaps, output slots) stays
//! valid for exactly the region's duration; that blocking discipline is
//! what makes the one lifetime-erasing `unsafe` below sound.
//!
//! Determinism contract: a kernel's scan is cut into ascending, disjoint
//! *index ranges* and [`Exec`] concatenates the per-range outputs in range
//! order, so results are bit-identical to running the same kernel body
//! over the one whole range regardless of which thread claims which
//! range — the differential suites run the whole corpus both ways to
//! enforce this.
//!
//! A panic inside a chunk is caught on the worker, the region still
//! drains (remaining chunks run), and the first payload is re-raised on
//! the calling thread — mirroring sequential panic behavior.
//!
//! Observability: the process-global registry gains `par/regions`,
//! `par/chunks`, `par/steals` (chunks executed by pool workers rather
//! than the caller) and `par/bypass` (scans that stayed one range on the
//! calling thread because they were below the gate).

use crate::node::NodeId;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

fn regions_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/regions"))
}

fn chunks_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/chunks"))
}

fn steals_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/steals"))
}

fn bypass_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/bypass"))
}

/// Chunks a parallel region dispatched (counter accessor for tests).
pub fn par_chunks_dispatched() -> u64 {
    chunks_counter().get()
}

/// Parallel regions executed so far (counter accessor for tests).
pub fn par_regions_run() -> u64 {
    regions_counter().get()
}

/// Threshold bypasses recorded so far (counter accessor for tests).
pub fn par_bypasses() -> u64 {
    bypass_counter().get()
}

/// The one gate, in scanned items (postings or arena ordinals): a scan
/// shorter than this runs as one range on the calling thread.  Set from
/// the measured table in DESIGN.md "Parallel evaluation": on two threads
/// every kind of scan loses below ~10⁵ items, arena sweeps break even
/// around 2.7·10⁵ (the whole arena of a 10⁵-element document) and were
/// never measured slower from 5·10⁵ up — so the gate is 2¹⁹, and nothing
/// a 10⁵-element document can hold is cut.
pub(crate) const GATE_ITEMS: usize = 524_288;

/// Minimum items per chunk (one range of a cut scan).
const MIN_CHUNK_ITEMS: usize = 65_536;

/// Chunk-count cap per worker: enough slack that one slow (or descheduled)
/// worker does not serialize the region, not so many that claiming
/// dominates.
const CHUNKS_PER_THREAD: usize = 4;

/// How many chunks to cut a scan of `items` into for `threads` workers;
/// `0` means "below the gate: one range, on the calling thread".
fn chunks_for(threads: usize, items: usize) -> usize {
    if threads < 2 || items < GATE_ITEMS {
        return 0;
    }
    (items / MIN_CHUNK_ITEMS).min(threads * CHUNKS_PER_THREAD)
}

/// The `chunks + 1` bounds cutting `0..len` into contiguous index ranges
/// `[b[i], b[i + 1])`: ascending, disjoint, covering — so per-range
/// outputs produced in index order concatenate (in range order) to
/// exactly the one-range output.
fn chunk_bounds(len: usize, chunks: usize) -> Vec<usize> {
    (0..=chunks).map(|i| i * len / chunks).collect()
}

/// How an axis kernel's scan is executed — the one thing
/// `Engine::with_threads` changes.  Every kernel writes its scan once, as
/// a body over an index range; [`Exec::INLINE`] runs that body over the
/// whole range straight into the caller's buffer (no pool, no per-range
/// buffer, no lock), [`Exec::on`] a pool cuts scans above the gate into
/// ranges, runs the *same* body on each, and concatenates in range order.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    pool: Option<&'a WorkerPool>,
    /// Explicit cut points replacing the gate (unit tests only): they may
    /// repeat and may exceed a scan's length, so empty and one-item ranges
    /// occur.
    cuts: Option<&'a [usize]>,
}

impl<'a> Exec<'a> {
    /// One range on the calling thread — what `threads = 1` runs.
    pub const INLINE: Exec<'static> = Exec {
        pool: None,
        cuts: None,
    };

    /// Scans above the gate are cut into ranges on `pool`; with no pool
    /// this is [`Exec::INLINE`].
    pub fn on(pool: Option<&'a WorkerPool>) -> Exec<'a> {
        Exec { pool, cuts: None }
    }

    /// Every scan is cut at `cuts` (ascending), whatever its length.
    #[cfg(test)]
    pub(crate) fn cut_at(pool: &'a WorkerPool, cuts: &'a [usize]) -> Exec<'a> {
        Exec {
            pool: Some(pool),
            cuts: Some(cuts),
        }
    }

    /// Runs `body(range, buf)` over `0..len`, appending to `out` what the
    /// body appends to `buf`; the body must emit a range's output in
    /// ascending order.  Returns the number of ranges run through the pool
    /// (`0`: one range, inline).
    #[inline(always)]
    pub(crate) fn scan<F>(self, len: usize, out: &mut Vec<NodeId>, body: F) -> usize
    where
        F: Fn(Range<usize>, &mut Vec<NodeId>) + Sync,
    {
        self.drive(len, out, false, body)
    }

    /// [`Exec::scan`] for a body that emits a range's output in
    /// *descending* order (`preceding` from one node, in axis order):
    /// ranges concatenate last to first.
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
        match self.bounds(len) {
            Some((pool, bounds)) => run_ranges(pool, &bounds, out, reversed, &body),
            None => {
                body(0..len, out);
                0
            }
        }
    }

    /// Where to cut `0..len`: `k + 1` ascending bounds for `k` ranges, or
    /// `None` for one inline range.
    fn bounds(self, len: usize) -> Option<(&'a WorkerPool, Vec<usize>)> {
        let pool = self.pool?;
        if let Some(cuts) = self.cuts {
            debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
            let inner = cuts.iter().map(|&c| c.min(len));
            return Some((pool, std::iter::once(0).chain(inner).chain([len]).collect()));
        }
        let k = chunks_for(pool.threads(), len);
        if k == 0 {
            bypass_counter().inc();
            return None;
        }
        Some((pool, chunk_bounds(len, k)))
    }
}

/// Runs `body` on each range of `bounds` through the pool and concatenates
/// the per-range buffers in range order (reverse range order when
/// `reversed`).  Returns the range count.
fn run_ranges(
    pool: &WorkerPool,
    bounds: &[usize],
    out: &mut Vec<NodeId>,
    reversed: bool,
    body: &(dyn Fn(Range<usize>, &mut Vec<NodeId>) + Sync),
) -> usize {
    let k = bounds.len() - 1;
    let slots: Vec<Mutex<Vec<NodeId>>> = {
        let mut warm = pool.lock_bufs();
        (0..k)
            .map(|_| Mutex::new(warm.pop().unwrap_or_default()))
            .collect()
    };
    pool.run(k, &|i| {
        // Uncontended: each range index is claimed exactly once, so the
        // lock only fences the buffer hand-off back to the merge loop.
        let mut buf = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        body(bounds[i]..bounds[i + 1], &mut buf);
    });
    let mut bufs: Vec<Vec<NodeId>> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    if reversed {
        bufs.reverse();
    }
    for buf in &mut bufs {
        out.extend_from_slice(buf);
        buf.clear();
    }
    let mut warm = pool.lock_bufs();
    warm.extend(bufs);
    warm.truncate(pool.threads * CHUNKS_PER_THREAD);
    k
}

/// The task pointer published to the workers for one region: a
/// lifetime-erased borrow of the caller's closure.
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine),
// and the pointer is only dereferenced between a region's publication and
// its completion — `WorkerPool::run` blocks until `completed == total`
// before the erased borrow ends, so no worker can observe a dangling task.
unsafe impl Send for TaskRef {}

struct State {
    /// The active region's task; `None` between regions.
    task: Option<TaskRef>,
    /// Chunk count of the active region.
    total: usize,
    /// Next unclaimed chunk index (the claim counter).
    next: usize,
    /// Chunks whose closure call has returned.
    completed: usize,
    /// First panic payload caught in a chunk, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between regions.
    work: Condvar,
    /// The caller parks here once its own claims dry up.
    done: Condvar,
}

impl Shared {
    /// Lock recovering from poisoning: the protocol state is consistent
    /// at every unlock (panicking closures run *outside* the lock and
    /// are caught), so a poisoned mutex only means some unrelated thread
    /// died mid-claim bookkeeping — the counters themselves are valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs chunk `i` of the published task and does the completion
    /// bookkeeping.  `task` must be the region's published closure.
    fn run_chunk(&self, task: &(dyn Fn(usize) + Sync), i: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| task(i)));
        let mut st = self.lock();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.completed += 1;
        if st.completed == st.total {
            self.done.notify_all();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return;
        }
        let claim = match &st.task {
            Some(t) if st.next < st.total => Some((t.0, st.next)),
            _ => None,
        };
        if claim.is_some() {
            st.next += 1;
        }
        match claim {
            Some((ptr, i)) => {
                drop(st);
                steals_counter().inc();
                // SAFETY: `ptr` was published by the `run` currently
                // blocked in this region; `run` cannot return (ending the
                // erased borrow) before `completed == total`, and this
                // chunk counts toward `completed` only after the call
                // returns inside `run_chunk`.
                let task: &(dyn Fn(usize) + Sync) = unsafe { &*ptr };
                shared.run_chunk(task, i);
                st = shared.lock();
            }
            None => {
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A fixed set of parked worker threads executing chunked index-range
/// tasks — see the module docs for the protocol and its invariants.
///
/// Engines attach one via `Engine::with_threads(n)`; a pool with
/// `threads == 1` spawns nothing and runs every region inline.  One pool
/// runs one region at a time (concurrent `run` calls from clones of an
/// engine serialize on an internal region lock).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes regions: `run` publishes exactly one task at a time.
    region: Mutex<()>,
    /// Per-chunk output buffers, kept warm between regions.  Fresh ones
    /// are mapped, page-faulted and unmapped on every region, which was
    /// measured to cost more than the scans they serve (DESIGN.md
    /// "Parallel evaluation"); like a [`Scratch`](crate::Scratch) they
    /// grow to the largest output seen.
    bufs: Mutex<Vec<Vec<NodeId>>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers total (the caller of [`run`] counts as
    /// one, so `threads − 1` OS threads are spawned and parked).
    ///
    /// [`run`]: WorkerPool::run
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                task: None,
                total: 0,
                next: 0,
                completed: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("minctx-par-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            region: Mutex::new(()),
            bufs: Mutex::new(Vec::new()),
            threads,
        }
    }

    /// Total worker count, caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The warm buffers hold no invariant (they are emptied before they
    /// are stashed), so a poisoned lock is recovered.
    fn lock_bufs(&self) -> MutexGuard<'_, Vec<Vec<NodeId>>> {
        self.bufs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `task(i)` once for every `i in 0..chunks`, distributing
    /// chunks across the pool, and returns once all chunks completed.
    /// The caller participates, so a single-threaded pool (or a
    /// single-chunk region) degenerates to a plain sequential loop.
    ///
    /// If any chunk panics, the remaining chunks still run and the first
    /// payload is re-raised here.
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if chunks == 1 || self.threads == 1 || self.handles.is_empty() {
            for i in 0..chunks {
                task(i);
            }
            return;
        }
        regions_counter().inc();
        chunks_counter().add(chunks as u64);
        let _region = self.region.lock().unwrap_or_else(PoisonError::into_inner);
        let raw: *const (dyn Fn(usize) + Sync) = task;
        // SAFETY: only the trait object's implicit lifetime is erased;
        // the pointee is untouched.  The pointer is cleared from the
        // shared state and all uses have completed before this function
        // returns (the wait below), so the erased borrow never outlives
        // the real one.  (A plain `as` cast cannot widen a trait
        // object's lifetime — rust-lang/rust#141402 — so the clippy
        // suggestion does not compile and the transmute stays.)
        #[allow(clippy::transmute_ptr_to_ptr)]
        let raw: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(raw) };
        {
            let mut st = self.shared.lock();
            debug_assert!(st.task.is_none(), "regions are serialized");
            st.task = Some(TaskRef(raw));
            st.total = chunks;
            st.next = 0;
            st.completed = 0;
            self.shared.work.notify_all();
        }
        // The caller claims chunks like any worker…
        loop {
            let i = {
                let mut st = self.shared.lock();
                if st.next >= st.total {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            self.shared.run_chunk(task, i);
        }
        // …then waits for the stragglers and retires the region.
        let panic = {
            let mut st = self.shared.lock();
            while st.completed < st.total {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.task = None;
            st.panic.take()
        };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for chunks in [1, 2, 3, 7, 64, 257] {
            let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(chunks, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "chunks={chunks}"
            );
        }
    }

    #[test]
    fn chunked_sum_matches_sequential() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..100_000).collect();
        let total = AtomicU64::new(0);
        let chunks = 16;
        let bounds = chunk_bounds(items.len(), chunks);
        pool.run(chunks, &|i| {
            let part: u64 = items[bounds[i]..bounds[i + 1]].iter().sum();
            total.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), items.iter().sum::<u64>());
    }

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
    fn single_threaded_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn panics_propagate_to_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(4);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The region drained fully despite the panic…
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        // …and the pool keeps working afterwards.
        let count = AtomicUsize::new(0);
        pool.run(4, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn consecutive_regions_reuse_the_pool() {
        let pool = WorkerPool::new(2);
        for round in 1..=20 {
            let count = AtomicUsize::new(0);
            pool.run(round, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), round);
        }
    }

    #[test]
    fn chunks_for_gates_on_threshold_and_min_chunk() {
        assert_eq!(chunks_for(4, 0), 0);
        assert_eq!(chunks_for(4, GATE_ITEMS - 1), 0, "below the gate");
        assert_eq!(chunks_for(1, 10 * GATE_ITEMS), 0, "nobody to share with");
        // At the gate the region engages, in chunks no smaller than the
        // minimum…
        let at_gate = chunks_for(4, GATE_ITEMS);
        assert!(at_gate >= 2);
        assert!(GATE_ITEMS / at_gate >= MIN_CHUNK_ITEMS);
        // …and however long the scan, the per-thread cap holds.
        assert_eq!(chunks_for(2, usize::MAX / 2), 2 * CHUNKS_PER_THREAD);
    }

    #[test]
    fn scans_concatenate_in_range_order_and_reversed() {
        let pool = WorkerPool::new(3);
        // Repeated and out-of-range cut points: empty ranges, clamped.
        let exec = Exec::cut_at(&pool, &[0, 3, 3, 4, 9, 50]);
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
        // Below the gate a pool-backed scan stays inline and says so.
        let before = par_bypasses();
        assert_eq!(Exec::on(Some(&pool)).scan(3, &mut out, |_, _| {}), 0);
        assert!(par_bypasses() > before);
    }
}
