//! The live-worker count and its respawn handoff protocol.
//!
//! [`ServeEngine::drop`](crate::service::ServeEngine) waits on this
//! count — not on join handles — so respawned (detached) workers are
//! still accounted for.  The protocol's one invariant:
//!
//! > **The count never transiently dips below the number of threads
//! > that are (or are about to be) serving.**
//!
//! Concretely: a spawner *adopts* (increments) before the thread
//! exists, and a dying worker that is being replaced runs its
//! replacement's adopt *before* its own retire — so an observer can
//! never see the pool smaller than it really is and conclude, say,
//! that teardown is finished while a respawn is in flight.
//!
//! The count lives behind the `crate::sync` facade; the loom model in
//! `tests/loom.rs` drives [`adopt`](LiveCount::adopt) /
//! [`retire`](LiveCount::retire) / [`handoff`](LiveCount::handoff)
//! through every interleaving, and the exhaustive offline checker in
//! `tests/protocol_model.rs` replays the same protocol at operation
//! granularity.

use crate::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;

/// Threads currently in (or committed to entering) a worker loop.
pub struct LiveCount {
    n: AtomicUsize,
}

impl LiveCount {
    /// A fresh count of zero.  (Not `const`: loom's atomics cannot be
    /// constructed in const context.)
    pub fn new() -> LiveCount {
        LiveCount {
            n: AtomicUsize::new(0),
        }
    }

    /// A spawner commits a new worker: increments *before* the thread
    /// is created, so the count covers the gap between spawn request
    /// and first instruction.
    pub fn adopt(&self) {
        self.n.fetch_add(1, Ordering::SeqCst);
    }

    /// Rolls an [`adopt`](LiveCount::adopt) back after the spawn itself
    /// failed — the committed worker will never run.
    pub fn abandon(&self) {
        self.n.fetch_sub(1, Ordering::SeqCst);
    }

    /// A worker leaves its loop for good.
    pub fn retire(&self) {
        self.n.fetch_sub(1, Ordering::SeqCst);
    }

    /// The respawn handoff: `spawn_replacement` (which must
    /// [`adopt`](LiveCount::adopt) on success — and may fail, adopting
    /// nothing) runs strictly *before* the dying worker's own retire.
    /// Replacement-first ordering is what keeps the count from dipping:
    /// adopt(+1) then retire(−1) passes through `n`, never `n − 1`.
    pub fn handoff(&self, spawn_replacement: impl FnOnce()) {
        spawn_replacement();
        self.retire();
    }

    /// Current count.
    pub fn get(&self) -> usize {
        self.n.load(Ordering::SeqCst)
    }
}

impl Default for LiveCount {
    fn default() -> LiveCount {
        LiveCount::new()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn adopt_retire_round_trips() {
        let c = LiveCount::new();
        assert_eq!(c.get(), 0);
        c.adopt();
        c.adopt();
        assert_eq!(c.get(), 2);
        c.retire();
        assert_eq!(c.get(), 1);
        c.abandon();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn handoff_runs_replacement_before_retire() {
        let c = LiveCount::new();
        c.adopt(); // the worker that is about to die
        c.handoff(|| {
            // Inside the handoff the dying worker is still counted.
            assert_eq!(c.get(), 1);
            c.adopt();
            assert_eq!(c.get(), 2);
        });
        // Replacement adopted, original retired: back to one.
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn failed_replacement_still_retires_the_original() {
        let c = LiveCount::new();
        c.adopt();
        c.handoff(|| { /* spawn failed: nothing adopted */ });
        assert_eq!(c.get(), 0);
    }
}
