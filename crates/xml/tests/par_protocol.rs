//! Exhaustive offline interleaving checker for the worker-pool chunk
//! hand-off protocol (`minctx_xml::par::WorkerPool`).
//!
//! The offline workspace vendors no loom, so — like the serve layer's
//! `protocol_model.rs` — this test brute-forces the schedule space.
//! The soundness observation carries over: every pool transition runs
//! entirely inside one critical section of the pool's single state
//! mutex — the caller's *publish* (install task, total, reset next and
//! completed), each *claim* (test `next < total`, take `next`,
//! increment), and each *complete* (increment `completed`, record a
//! first panic).  Real threads can therefore only produce behaviors
//! equal to some sequential interleaving of those atomic steps, so
//! enumerating every interleaving of small per-thread programs against
//! a faithful replica of the state machine covers everything the
//! scheduler could do, minus only the condvar wakeup paths (which the
//! pool's own threaded unit tests and the TSan CI job cover).
//!
//! Checked here, across *every* schedule:
//!
//! * each chunk is claimed and executed **exactly once** — no chunk is
//!   lost, none runs twice, nothing executes before the publish;
//! * the caller observes completion only after every chunk has
//!   executed, and the chunk-order merge of the outputs is identical
//!   in every schedule (the bit-identical-results invariant);
//! * when several chunks panic, exactly the schedule-first panic is
//!   recorded and never overwritten;
//! * the checker has teeth: a claim that skips the `next < total`
//!   bound test is shown to over-claim in some schedule.

use std::collections::BTreeSet;

// `for_each_schedule` and its self-check, shared by the three model suites.
include!("../../../tests/support/schedules.rs");

/// One atomic step of a pool-model thread.  `Claim` and `Complete` come
/// in pairs because the real worker drops the state lock between
/// claiming a chunk index and bumping the completion counter — the gap
/// where other threads' steps interleave.
#[derive(Clone, Copy)]
enum Op {
    /// The caller installs a region: task live, `total` chunks.
    Publish(usize),
    /// One claim attempt: under the lock, take `next` if the task is
    /// live and `next < total`.
    Claim,
    /// Completion of this thread's most recent successful claim (no-op
    /// if the claim found nothing): execute the chunk, then under the
    /// lock increment `completed` and record a first panic.
    Complete,
}

/// The faithful replica of `par::State`'s fields (plus bookkeeping the
/// assertions need).  `panics` maps chunk index → simulated panic
/// payload for chunks that "panic" while executing.
#[derive(Default)]
struct Model {
    task_live: bool,
    total: usize,
    next: usize,
    completed: usize,
    panic: Option<u32>,
    /// Chunk indices in execution (completion) order.
    executed: Vec<usize>,
    /// Per-thread pending claim, between its Claim and Complete steps.
    pending: Vec<Option<usize>>,
}

/// Replays `programs` under `schedule`; `buggy_unbounded_claim` drops
/// the `next < total` test (the negative control).  Returns the final
/// model for invariant checks.
fn replay(
    programs: &[Vec<Op>],
    schedule: &[usize],
    panics: &[(usize, u32)],
    buggy_unbounded_claim: bool,
) -> Model {
    let mut m = Model {
        pending: vec![None; programs.len()],
        ..Model::default()
    };
    let mut pc = vec![0usize; programs.len()];
    for &t in schedule {
        let op = programs[t][pc[t]];
        pc[t] += 1;
        match op {
            Op::Publish(total) => {
                // The real publish happens with no region in flight
                // (regions are serialized by a separate mutex).
                assert!(!m.task_live, "publish over a live region");
                m.task_live = true;
                m.total = total;
                m.next = 0;
                m.completed = 0;
                m.panic = None;
            }
            Op::Claim => {
                assert!(m.pending[t].is_none(), "claim with one still pending");
                let eligible = if buggy_unbounded_claim {
                    m.task_live
                } else {
                    m.task_live && m.next < m.total
                };
                if eligible {
                    m.pending[t] = Some(m.next);
                    m.next += 1;
                }
            }
            Op::Complete => {
                if let Some(chunk) = m.pending[t].take() {
                    // "Execute" the chunk outside any lock...
                    m.executed.push(chunk);
                    // ...then the completion critical section.
                    if let Some(&(_, payload)) = panics.iter().find(|&&(c, _)| c == chunk) {
                        if m.panic.is_none() {
                            m.panic = Some(payload);
                        }
                    }
                    m.completed += 1;
                }
            }
        }
    }
    m
}

#[test]
#[cfg_attr(
    miri,
    ignore = "450450-schedule enumeration is minutes-long under the interpreter"
)]
fn every_chunk_is_claimed_exactly_once_under_every_interleaving() {
    // Caller publishes 3 chunks then joins the claim loop; like the
    // real caller it keeps claiming until the region drains, so it gets
    // 3 rounds — enough to finish alone if both workers spend all their
    // attempts before the publish (the real workers park on a condvar
    // and retry forever; model attempts are finite).  Two workers race
    // it with 2 claim rounds each, covering pre-publish attempts that
    // must find nothing.  15!/(7!·4!·4!) = 450450 schedules.
    let programs = vec![
        vec![
            Op::Publish(3),
            Op::Claim,
            Op::Complete,
            Op::Claim,
            Op::Complete,
            Op::Claim,
            Op::Complete,
        ],
        vec![Op::Claim, Op::Complete, Op::Claim, Op::Complete],
        vec![Op::Claim, Op::Complete, Op::Claim, Op::Complete],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let n = for_each_schedule(&lens, |s| {
        let m = replay(&programs, s, &[], false);
        // Exactly-once: seven claim attempts against three chunks must
        // execute {0, 1, 2} with no duplicate and no invention.
        let seen: BTreeSet<usize> = m.executed.iter().copied().collect();
        assert_eq!(seen.len(), m.executed.len(), "a chunk ran twice");
        assert_eq!(
            seen,
            (0..3).collect(),
            "chunks lost or out of range: {:?}",
            m.executed
        );
        assert_eq!(m.completed, 3, "completion count drifted");
        // The caller's wait is `completed == total`, which we just saw
        // implies all chunks executed — and the chunk-order merge is
        // schedule-independent by construction: sorting the executed
        // set recovers 0..3 regardless of execution order.
        let mut merged = m.executed.clone();
        merged.sort_unstable();
        assert_eq!(merged, vec![0, 1, 2], "chunk-order merge diverged");
    });
    assert_eq!(n, 450_450);
}

#[test]
fn first_panic_wins_and_both_orders_occur() {
    // Two chunks, both panicking (payloads 100 and 101), one worker
    // each racing the completion critical section.  Whichever Complete
    // runs first must be the recorded payload, the other discarded —
    // and across schedules each must win at least once (so the
    // first-wins rule is actually schedule-dependent, not vacuous).
    let programs = vec![
        vec![Op::Publish(2)],
        vec![Op::Claim, Op::Complete],
        vec![Op::Claim, Op::Complete],
    ];
    let panics = [(0usize, 100u32), (1usize, 101u32)];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let mut winners = BTreeSet::new();
    for_each_schedule(&lens, |s| {
        let m = replay(&programs, s, &panics, false);
        if m.executed.len() == 2 {
            // Both chunks ran: the recorded panic is the payload of the
            // chunk that completed first, never overwritten.
            let want = panics.iter().find(|&&(c, _)| c == m.executed[0]).unwrap().1;
            assert_eq!(m.panic, Some(want), "a later panic overwrote the first");
            winners.insert(want);
        }
    });
    assert_eq!(
        winners,
        BTreeSet::from([100, 101]),
        "some panic never won — the race is not being exercised"
    );
}

#[test]
fn unbounded_claim_would_overrun_and_the_checker_catches_it() {
    // Negative control: drop the `next < total` bound from the claim
    // and some schedule must claim a chunk index past the end —
    // proving this checker would have flagged the bug had the claim
    // been written that way.
    let programs = vec![
        vec![Op::Publish(2)],
        vec![Op::Claim, Op::Complete, Op::Claim, Op::Complete],
        vec![Op::Claim, Op::Complete],
    ];
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let mut overrun_found = false;
    for_each_schedule(&lens, |s| {
        let m = replay(&programs, s, &[], true);
        if m.executed.iter().any(|&c| c >= 2) {
            overrun_found = true;
        }
    });
    assert!(
        overrun_found,
        "the checker failed to expose the unbounded-claim overrun"
    );
}
