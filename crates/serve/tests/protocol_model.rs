//! Exhaustive offline interleaving checker for the serve queue protocol.
//!
//! `tests/loom.rs` needs the loom crate, which the offline workspace
//! deliberately does not vendor — so this test re-proves the queue
//! invariants with nothing but std, by brute force.  The key soundness
//! observation: every [`Queue`] transition (`push`, `try_pop`, `close`)
//! runs entirely inside one critical section of the queue's single
//! mutex.  Real threads can therefore only produce behaviors equal to
//! *some sequential interleaving of those atomic steps* — so
//! enumerating every interleaving of small per-thread programs and
//! replaying each one against the **real** `Queue` code (fresh state
//! per schedule) covers everything the scheduler could do, minus only
//! the condvar wakeup paths (which `tests/loom.rs` and the seeded
//! stress test in `tests/queue_stress.rs` cover).
//!
//! Checked here, across *every* schedule:
//!
//! * no job is lost, none is delivered twice, and `TryPop::Closed` is
//!   only ever observed on a closed-and-drained queue;
//! * a bounded queue rejects with `Full` only while genuinely at
//!   capacity, and a `Full`-rejected item is never later delivered.

use minctx_serve::{PushError, Queue, TryPop};
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
