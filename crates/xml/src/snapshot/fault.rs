//! Deterministic I/O fault injection for crash-safety tests.
//!
//! [`write_snapshot`](super::write_snapshot) consults a **thread-local**
//! [`FaultPlan`] at every byte it writes and at each durability step
//! (data `sync_all`, atomic rename, directory fsync).  With no plan
//! installed — the production state — every check is a branch on an
//! empty `Option` and nothing else.
//!
//! The plan is thread-local on purpose: a test can tear its own writes
//! at a chosen byte without perturbing concurrent tests (or worker
//! threads) in the same process, and a run is reproducible from the
//! plan alone — there is no randomness in here.  Seeds live in the test
//! harnesses that *choose* plans, not in the injection machinery.
//!
//! Two failure shapes are distinguished:
//!
//! * **Crash** ([`FaultPlan::tear_after`]) — the writer stops mid-byte
//!   as if the process died: the torn temp file is left on disk (no
//!   cleanup runs, exactly like a kill) and the caller gets an injected
//!   I/O error standing in for "the process is gone".  The atomic-write
//!   protocol must keep the *final* path pristine through this.
//! * **Error** ([`FaultPlan::fail_sync`] / [`FaultPlan::fail_rename`] /
//!   [`FaultPlan::fail_dir_sync`]) — the syscall reports failure but the
//!   process lives, so the writer's own cleanup (temp removal) runs.
//!
//! One probe observes instead of failing: [`FaultPlan::claim_before_reap`]
//! checks, at each temp the reaper removes, that no writer could still
//! lock that temp (see [`reap_probes`]).

use std::cell::RefCell;
use std::fs::File;
use std::io;
use std::path::Path;

/// What to inject into the next [`write_snapshot`](super::write_snapshot)
/// call on this thread.  A plan stays installed (and keeps firing) until
/// [`clear`] — crash tests typically install, write, assert, clear.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Simulate a kill after exactly this many bytes have reached the
    /// temp file (section bytes and the header patch both count): the
    /// write stops, the temp file is **left behind** torn, and the call
    /// errors.  `Some(0)` crashes before the first byte.
    pub tear_after: Option<u64>,
    /// Fail the temp file's `sync_all` with an injected error.
    pub fail_sync: bool,
    /// Fail the atomic rename with an injected error.
    pub fail_rename: bool,
    /// Fail the directory fsync *after* the rename.  The rename itself
    /// survives, modeling a crash window where the new file is visible
    /// but its directory entry may not be durable yet.
    pub fail_dir_sync: bool,
    /// Where the reaper has found a temp abandoned and is about to
    /// remove it, try to lock that temp through a handle of its own, as
    /// a writer that just created it would.  A lock that is granted
    /// means that writer would go on to rename a file the removal takes
    /// away; [`reap_probes`] counts such claims.
    pub claim_before_reap: bool,
}

/// A durability step [`check`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Sync,
    Rename,
    DirSync,
}

struct Active {
    plan: FaultPlan,
    /// Bytes written so far by the current write call.
    written: u64,
    /// A `tear_after` crash has fired (cleanup must be skipped).
    crashed: bool,
    /// Temps the reaper removed while `claim_before_reap` was set, and
    /// how many of them a writer could have claimed at that moment.
    reaped: u32,
    claimed: u32,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Installs `plan` for subsequent snapshot writes on this thread.
pub fn install(plan: FaultPlan) {
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Active {
            plan,
            written: 0,
            crashed: false,
            reaped: 0,
            claimed: 0,
        });
    });
}

/// Removes any installed plan (production behavior resumes).
pub fn clear() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
}

/// Whether the installed plan's crash already fired.
pub fn crash_fired() -> bool {
    ACTIVE.with(|a| a.borrow().as_ref().is_some_and(|x| x.crashed))
}

/// Resets the per-call byte counter; called at the top of each write.
pub(crate) fn begin_write() {
    ACTIVE.with(|a| {
        if let Some(x) = a.borrow_mut().as_mut() {
            x.written = 0;
            x.crashed = false;
        }
    });
}

/// Temps reaped under a `claim_before_reap` plan since it was
/// installed on this thread, and how many of them a writer could lock
/// at the moment of removal (0 unless the reaper lets go too early).
pub fn reap_probes() -> (u32, u32) {
    ACTIVE.with(|a| {
        a.borrow()
            .as_ref()
            .map_or((0, 0), |x| (x.reaped, x.claimed))
    })
}

/// Called by the reaper just before it removes the abandoned temp `t`.
pub(crate) fn before_reap(t: &Path) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(x) = a.as_mut().filter(|x| x.plan.claim_before_reap) else {
            return;
        };
        x.reaped += 1;
        if File::open(t).is_ok_and(|f| f.try_lock().is_ok()) {
            x.claimed += 1;
        }
    });
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// How many of the next `len` bytes the writer may put down.  A return
/// below `len` means the planned crash point falls inside this write:
/// the caller writes the permitted prefix, then dies with
/// [`crash_error`].
pub(crate) fn permit(len: usize) -> usize {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(x) = a.as_mut() else { return len };
        let Some(cut) = x.plan.tear_after else {
            x.written += len as u64;
            return len;
        };
        let room = cut.saturating_sub(x.written).min(len as u64) as usize;
        x.written += room as u64;
        if room < len {
            x.crashed = true;
        }
        room
    })
}

/// The error a torn write surfaces in place of the dead process.
pub(crate) fn crash_error() -> io::Error {
    injected("simulated crash: torn write")
}

/// Fails the given durability step when the plan says so.
pub(crate) fn check(step: Step) -> io::Result<()> {
    ACTIVE.with(|a| {
        let a = a.borrow();
        let Some(x) = a.as_ref() else { return Ok(()) };
        match step {
            Step::Sync if x.plan.fail_sync => Err(injected("sync_all on the temp file")),
            Step::Rename if x.plan.fail_rename => Err(injected("atomic rename")),
            Step::DirSync if x.plan.fail_dir_sync => Err(injected("directory fsync")),
            _ => Ok(()),
        }
    })
}
