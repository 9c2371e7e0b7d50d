//! Exhaustive offline interleaving checker for the serve protocols.
//!
//! `tests/loom.rs` needs the loom crate, which the offline workspace
//! deliberately does not vendor — so this test re-proves the same
//! invariants with nothing but std, by brute force.  The key soundness
//! observation: every [`Queue`] transition (`push`, `try_pop`, `close`)
//! runs entirely inside one critical section of the queue's single
//! mutex, and every [`LiveCount`] transition is a single `SeqCst` RMW.
//! Real threads can therefore only produce behaviors equal to *some
//! sequential interleaving of those atomic steps* — so enumerating
//! every interleaving of small per-thread programs and replaying each
//! one against the **real** `Queue`/`LiveCount` code (fresh state per
//! schedule) covers everything the scheduler could do, minus only the
//! condvar wakeup paths (which `tests/loom.rs` and the seeded stress
//! test in `tests/queue_stress.rs` cover).
//!
//! Checked here, across *every* schedule:
//!
//! * no job is lost, none is delivered twice, and `TryPop::Closed` is
//!   only ever observed on a closed-and-drained queue;
//! * a bounded queue rejects with `Full` only while genuinely at
//!   capacity, and a `Full`-rejected item is never later delivered;
//! * the live-worker count never transiently dips during a respawn
//!   handoff — and the checker has teeth: the buggy retire-first
//!   ordering is shown to be caught.

use minctx_serve::{LiveCount, PushError, Queue, TryPop};
use std::collections::BTreeSet;

// `for_each_schedule` and its self-check, shared by the three model suites.
include!("../../../tests/support/schedules.rs");

/// One atomic step of a queue-model thread.
#[derive(Clone, Copy)]
enum Op {
    Push(u32),
    TryPop,
    Close,
}

/// Replays `programs` under `schedule` against a fresh real queue and
/// checks the delivery invariants; returns what was delivered in-order.
fn replay_queue(capacity: usize, programs: &[Vec<Op>], schedule: &[usize]) -> Vec<u32> {
    let q = Queue::bounded(capacity);
    let mut pc = vec![0usize; programs.len()];
    let mut accepted = BTreeSet::new();
    let mut rejected_full = BTreeSet::new();
    let mut delivered = Vec::new();
    let mut closed = false;
    for &t in schedule {
        let op = programs[t][pc[t]];
        pc[t] += 1;
        match op {
            Op::Push(item) => match q.push(item) {
                Ok(depth) => {
                    assert!(depth <= capacity, "depth {depth} exceeds capacity");
                    assert!(!closed, "push accepted after close");
                    accepted.insert(item);
                }
                Err(PushError::Closed(back)) => {
                    assert_eq!(back, item, "rejected item must come back intact");
                    assert!(closed, "Closed rejection before close ran");
                }
                Err(PushError::Full { item: back, .. }) => {
                    assert_eq!(back, item, "rejected item must come back intact");
                    assert_eq!(
                        q.len(),
                        capacity,
                        "Full rejection while not actually at capacity"
                    );
                    rejected_full.insert(item);
                }
            },
            Op::TryPop => match q.try_pop() {
                TryPop::Item(item) => {
                    assert!(
                        accepted.contains(&item),
                        "delivered an item that was never accepted"
                    );
                    delivered.push(item);
                }
                TryPop::Closed => {
                    assert!(closed, "observed Closed before close ran");
                    assert!(q.is_empty(), "Closed observed with items still queued");
                }
                TryPop::Empty => {}
            },
            Op::Close => {
                q.close();
                closed = true;
            }
        }
    }
    // Conservation: every accepted item is delivered exactly once or
    // still queued — never lost, never duplicated, and never both.
    let mut seen = BTreeSet::new();
    for &item in &delivered {
        assert!(seen.insert(item), "item {item} delivered twice");
    }
    let mut remaining = BTreeSet::new();
    while let TryPop::Item(item) = q.try_pop() {
        assert!(remaining.insert(item), "item {item} queued twice");
    }
    assert!(
        seen.is_disjoint(&remaining),
        "item both delivered and still queued"
    );
    let all: BTreeSet<u32> = seen.union(&remaining).copied().collect();
    assert_eq!(all, accepted, "accepted items must be conserved exactly");
    assert!(
        rejected_full.is_disjoint(&all),
        "a Full-rejected item must never surface"
    );
    delivered
}

#[test]
fn unbounded_queue_conserves_jobs_under_every_interleaving() {
    // Two producers (two pushes each), one closer, one consumer polling
    // five times: 10!/(2!·2!·1!·5!) = 7560 schedules.
    let programs = vec![
        vec![Op::Push(0), Op::Push(1)],
        vec![Op::Push(10), Op::Push(11)],
        vec![Op::Close],
        vec![Op::TryPop; 5],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let n = for_each_schedule(&lens, |s| {
        replay_queue(usize::MAX, &programs, s);
    });
    assert_eq!(n, 7560);
}

#[test]
fn two_consumers_never_double_deliver_under_every_interleaving() {
    let programs = vec![
        vec![Op::Push(0), Op::Push(1), Op::Close],
        vec![Op::TryPop; 3],
        vec![Op::TryPop; 3],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    for_each_schedule(&lens, |s| {
        // `replay_queue` itself asserts no double delivery; FIFO across
        // a single consumer is additionally order-checked below.
        replay_queue(usize::MAX, &programs, s);
    });
}

#[test]
fn queue_is_fifo_for_a_single_consumer() {
    // One producer, one consumer: whatever the interleaving, items
    // arrive in push order (possibly truncated, never reordered).
    let programs = vec![
        vec![Op::Push(0), Op::Push(1), Op::Push(2)],
        vec![Op::TryPop; 4],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    for_each_schedule(&lens, |s| {
        let delivered = replay_queue(usize::MAX, &programs, s);
        assert!(
            delivered.iter().zip(0u32..).all(|(&got, want)| got == want),
            "single consumer saw out-of-order delivery: {delivered:?}"
        );
    });
}

#[test]
fn bounded_queue_full_rejections_are_exact_under_every_interleaving() {
    // Capacity 1, three racing pushers, a consumer making room in
    // between: Full may hit any pusher, but only while truly full, and
    // rejected items never surface (both asserted inside the replay).
    let programs = vec![
        vec![Op::Push(0)],
        vec![Op::Push(1)],
        vec![Op::Push(2)],
        vec![Op::TryPop; 2],
        vec![Op::Close],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    for_each_schedule(&lens, |s| {
        replay_queue(1, &programs, s);
    });
}

/// One atomic step of the live-count respawn protocol.
#[derive(Clone, Copy)]
enum LiveOp {
    /// The replacement-adopt half of a handoff.
    Adopt,
    /// The dying worker's own retire.
    Retire,
    /// An observer samples the count.
    Observe,
}

/// Replays a handoff ordering against the real [`LiveCount`] and
/// returns the minimum count any observer sampled.
fn replay_live(programs: &[Vec<LiveOp>], schedule: &[usize]) -> usize {
    let live = LiveCount::new();
    live.adopt(); // the steady worker
    live.adopt(); // the worker about to die and be replaced
    let mut pc = vec![0usize; programs.len()];
    let mut min_seen = usize::MAX;
    for &t in schedule {
        let op = programs[t][pc[t]];
        pc[t] += 1;
        match op {
            LiveOp::Adopt => live.adopt(),
            LiveOp::Retire => live.retire(),
            LiveOp::Observe => min_seen = min_seen.min(live.get()),
        }
    }
    assert_eq!(live.get(), 2, "handoff must preserve the pool size");
    min_seen
}

#[test]
fn live_count_never_dips_with_replacement_first_handoff() {
    // The real protocol ([`LiveCount::handoff`]): adopt the replacement
    // strictly before retiring.  Two observers sample at arbitrary
    // points; in no interleaving may either see fewer than 2.
    let programs = vec![
        vec![LiveOp::Adopt, LiveOp::Retire],
        vec![LiveOp::Observe; 2],
        vec![LiveOp::Observe; 2],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    for_each_schedule(&lens, |s| {
        let min_seen = replay_live(&programs, s);
        assert!(
            min_seen >= 2,
            "live count dipped to {min_seen} during a replacement-first handoff"
        );
    });
}

#[test]
fn retire_first_handoff_would_dip_and_the_checker_catches_it() {
    // Negative control: the tempting-but-wrong ordering (retire, then
    // adopt the replacement) must produce at least one schedule where
    // an observer catches the pool at 1 — proving this checker would
    // have flagged the bug had `handoff` been written that way.
    let programs = vec![
        vec![LiveOp::Retire, LiveOp::Adopt],
        vec![LiveOp::Observe; 2],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let mut dip_found = false;
    for_each_schedule(&lens, |s| {
        if replay_live(&programs, s) < 2 {
            dip_found = true;
        }
    });
    assert!(
        dip_found,
        "the checker failed to expose the retire-first dip"
    );
}
