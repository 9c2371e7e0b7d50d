//! Seeded chaos injection for the worker pool.
//!
//! A [`ChaosPlan`] makes the service hurt itself on purpose, at three
//! panic sites chosen to exercise every isolation boundary the pool
//! claims to have:
//!
//! * `Site::Eval` — a panic *inside* the `catch_unwind` fence around
//!   evaluation.  Must surface as
//!   [`ServeError::WorkerPanicked`](crate::ServeError::WorkerPanicked)
//!   on that request's ticket; the worker lives on.
//! * `Site::Worker` — a panic *outside* the fence, in the worker loop
//!   itself.  The thread dies; the respawn sentry must replace it and
//!   every other queued request must still be answered.
//! * `Site::Shard` — a panic while **holding a cache shard lock**,
//!   poisoning the mutex.  The shard must recover (clear the poison,
//!   drop the disposable cache contents) on its next use.
//!
//! Decisions are deterministic: the n-th tick of a plan fires iff
//! `splitmix64(seed ⊕ n ⊕ site)` lands under the site's per-mille rate.
//! Given a fixed seed and workload, the *decision sequence* is fixed;
//! which thread draws each tick still depends on scheduling, which is
//! exactly the point — the suite asserts invariants that must hold under
//! any interleaving.
//!
//! The plan is process-global (worker threads must see it), guarded by a
//! relaxed [`AtomicBool`] fast path: with no plan installed a tick is
//! one atomic load.  Tests that install a plan serialize themselves on
//! the engines they build; `clear()` restores production behavior.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Per-mille panic rates for each `Site`, driven by a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the decision stream; same seed + same workload = same
    /// decision sequence.
    pub seed: u64,
    /// Rate (0..=1000) of panics inside the evaluation fence.
    pub eval_panic_per_mille: u16,
    /// Rate (0..=1000) of panics that escape the fence and kill the
    /// worker thread.
    pub worker_kill_per_mille: u16,
    /// Rate (0..=1000) of panics taken while holding a shard lock.
    pub shard_panic_per_mille: u16,
}

/// Where a chaos panic is raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    Worker,
    Eval,
    Shard,
}

struct Active {
    plan: ChaosPlan,
    ticks: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

/// Installs `plan` process-wide; panics start firing on worker threads.
pub fn install(plan: ChaosPlan) {
    *lock_active() = Some(Active { plan, ticks: 0 });
    ENABLED.store(true, Ordering::Release);
}

/// Removes any installed plan; production behavior resumes.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    *lock_active() = None;
}

/// Ticks consumed so far by the installed plan (0 when none).
pub fn ticks() -> u64 {
    lock_active().as_ref().map_or(0, |a| a.ticks)
}

fn lock_active() -> std::sync::MutexGuard<'static, Option<Active>> {
    // The guard is always dropped before a chaos panic is raised, so
    // the state (a plan + counter) can only be observed consistent;
    // recover rather than let one poisoned tick disable chaos.
    match ACTIVE.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            ACTIVE.clear_poison();
            poisoned.into_inner()
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Consumes one decision for `site`; panics if the plan says so.  The
/// panic message names the seed, tick and site so a failing chaos run
/// is reproducible from its log line.
pub(crate) fn tick(site: Site) {
    if !ENABLED.load(Ordering::Acquire) {
        return;
    }
    let fired = {
        let mut guard = lock_active();
        let Some(a) = guard.as_mut() else { return };
        let n = a.ticks;
        a.ticks += 1;
        let rate = match site {
            Site::Worker => a.plan.worker_kill_per_mille,
            Site::Eval => a.plan.eval_panic_per_mille,
            Site::Shard => a.plan.shard_panic_per_mille,
        };
        let roll =
            splitmix64(a.plan.seed ^ n.wrapping_mul(0x517c_c1b7_2722_0a95) ^ site_salt(site));
        (roll % 1000 < u64::from(rate)).then_some((a.plan.seed, n))
    };
    if let Some((seed, n)) = fired {
        panic!("chaos: injected {site:?} panic (seed {seed}, tick {n})");
    }
}

fn site_salt(site: Site) -> u64 {
    match site {
        Site::Worker => 0x57_4f_52_4b,
        Site::Eval => 0x45_56_41_4c,
        Site::Shard => 0x53_48_41_52,
    }
}
