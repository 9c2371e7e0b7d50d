//! loom models for the serve layer's concurrency protocols.
//!
//! These tests only exist under `--cfg loom` (see the CI `loom` job,
//! which adds the loom dev-dependency transiently and runs
//! `RUSTFLAGS="--cfg loom" cargo test -p minctx-serve --test loom`);
//! in a normal build this file compiles to nothing.  Each model drives
//! the *real* [`Queue`] and [`SharedLru`] code through every
//! interleaving loom can reach, checking:
//!
//! * no job is lost or double-delivered across `push`/`pop`/`close`;
//! * a bounded queue's `Full` fast-reject never deadlocks anyone;
//! * the cache never leaks its lock (every `get`/`insert` completes
//!   and later observers see a consistent cache).
//!
//! The same invariants are checked offline (no loom, exhaustive DFS at
//! critical-section granularity) by `tests/protocol_model.rs` — loom
//! adds coverage of the condvar wakeups and atomic orderings the
//! offline checker abstracts away.
#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use minctx_serve::{PushError, Queue, SharedLru, TryPop};

/// Drains the queue non-blockingly, spinning (with a loom yield) while
/// it is empty-but-open.  Models a worker loop without parking on the
/// condvar, which keeps the state space tractable while still exploring
/// every publication order.
fn drain(q: &Queue<u32>) -> Vec<u32> {
    let mut got = Vec::new();
    loop {
        match q.try_pop() {
            TryPop::Item(v) => got.push(v),
            TryPop::Closed => return got,
            TryPop::Empty => thread::yield_now(),
        }
    }
}

#[test]
fn queue_delivers_each_item_exactly_once() {
    loom::model(|| {
        let q = Arc::new(Queue::new());
        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(p).unwrap())
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || drain(&q))
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, [0, 1], "every pushed item delivered exactly once");
    });
}

#[test]
fn two_consumers_never_double_deliver() {
    loom::model(|| {
        let q = Arc::new(Queue::new());
        q.push(7u32).unwrap();
        q.close();
        let takers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || drain(&q))
            })
            .collect();
        let got: Vec<u32> = takers.into_iter().flat_map(|t| t.join().unwrap()).collect();
        assert_eq!(got, [7], "one item must reach exactly one consumer");
    });
}

#[test]
fn blocking_pop_sees_close() {
    // The condvar path proper: a parked `pop` must always be woken by
    // `close` and return `None` — no lost-wakeup interleaving exists.
    loom::model(|| {
        let q = Arc::new(Queue::<u32>::new());
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    });
}

#[test]
fn bounded_full_rejection_never_deadlocks() {
    loom::model(|| {
        let q = Arc::new(Queue::bounded(1));
        let pushers: Vec<_> = (0..2u32)
            .map(|p| {
                let q = Arc::clone(&q);
                // `push` on a full bounded queue fast-rejects; it must
                // never block, so both pushers always terminate.
                thread::spawn(move || q.push(p))
            })
            .collect();
        let outcomes: Vec<_> = pushers.into_iter().map(|p| p.join().unwrap()).collect();
        let accepted = outcomes.iter().filter(|o| o.is_ok()).count();
        let rejected = outcomes
            .iter()
            .filter(|o| matches!(o, Err(PushError::Full { capacity: 1, .. })))
            .count();
        // Capacity 1, nothing draining: exactly one wins admission.
        assert_eq!((accepted, rejected), (1, 1));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || drain(&q))
        };
        q.close();
        assert_eq!(consumer.join().unwrap().len(), 1);
    });
}

#[test]
fn shared_lru_never_leaks_its_lock() {
    loom::model(|| {
        // Both threads go through the one lock; if any path returned
        // without releasing it, the second op (and the final len) would
        // deadlock and loom would flag the hang.
        let c = Arc::new(SharedLru::<u32, u32>::new(8));
        let writer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.insert(1, 10))
        };
        let reader = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.get(&1))
        };
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        assert!(seen.is_none() || seen == Some(10));
        // The cache is unlocked and consistent after both ops.
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
    });
}
