//! Seeded stress test: [`Queue::close`] racing `push` from N producers
//! (satellite to the protocol models — this one runs real threads and
//! the real condvar path, at scales the exhaustive checkers cannot).
//!
//! Every producer records, per item, whether its push was **accepted**
//! (the queue owes delivery) or **rejected** (`Closed` handed the item
//! back — the producer keeps it).  After the dust settles, conservation
//! must hold exactly: items delivered to consumers ∪ items handed back
//! = items pushed, with no overlap, no loss, and no duplicates — no
//! matter where the asynchronous `close` landed relative to each push.
//!
//! The schedule is perturbed by the workspace's seeded RNG
//! (`minctx_bench::xorshift`: spin-jitter and a randomized close point),
//! so failures reproduce by seed.  Under Miri the iteration counts drop
//! to keep the run tractable.

use minctx_bench::xorshift;
use minctx_serve::{PushError, Queue, TryPop};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

/// Burns a few cycles to perturb thread timing without sleeping.
fn jitter(rng: &mut u64, max_spins: u32) {
    let spins = (xorshift(rng) % u64::from(max_spins.max(1))) as u32;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

const PRODUCERS: u32 = 8;
#[cfg(not(miri))]
const ITEMS_PER_PRODUCER: u32 = 500;
#[cfg(miri)]
const ITEMS_PER_PRODUCER: u32 = 8;

/// One full race: producers push, a closer slams the door at a seeded
/// moment, consumers drain.  Returns (accepted, rejected, delivered).
fn run_race(seed: u64) -> (BTreeSet<u32>, BTreeSet<u32>, Vec<u32>) {
    let q = Arc::new(Queue::<u32>::new());

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut rng = (seed ^ (0xbabe << 8) ^ u64::from(p)).max(1);
                let mut accepted = BTreeSet::new();
                let mut rejected = BTreeSet::new();
                for i in 0..ITEMS_PER_PRODUCER {
                    let item = p * ITEMS_PER_PRODUCER + i;
                    jitter(&mut rng, 64);
                    match q.push(item) {
                        Ok(_) => {
                            accepted.insert(item);
                        }
                        Err(PushError::Closed(back)) => {
                            assert_eq!(back, item, "Closed must hand the item back");
                            rejected.insert(item);
                        }
                        Err(PushError::Full { .. }) => {
                            unreachable!("unbounded queue can never be Full")
                        }
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();

    // The racing close: land it somewhere inside the producers' run.
    let closer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            let mut rng = (seed ^ 0xc105_e0ff).max(1);
            jitter(&mut rng, 4096);
            q.close();
        })
    };

    // Consumers use blocking `pop`, exercising the condvar wakeup on
    // close — the one path the offline protocol model cannot reach.
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        })
        .collect();

    let mut accepted = BTreeSet::new();
    let mut rejected = BTreeSet::new();
    for h in producers {
        let (a, r) = h.join().unwrap();
        accepted.extend(a);
        rejected.extend(r);
    }
    closer.join().unwrap();
    let delivered: Vec<u32> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    // Everything left after the consumers saw `None` would be lost.
    assert!(matches!(q.try_pop(), TryPop::Closed));
    (accepted, rejected, delivered)
}

#[test]
fn close_racing_pushes_conserves_every_item() {
    #[cfg(not(miri))]
    const SEEDS: std::ops::Range<u64> = 0..16;
    #[cfg(miri)]
    const SEEDS: std::ops::Range<u64> = 0..2;

    for seed in SEEDS {
        let (accepted, rejected, delivered) = run_race(seed);

        let total = PRODUCERS * ITEMS_PER_PRODUCER;
        assert_eq!(
            accepted.len() + rejected.len(),
            total as usize,
            "seed {seed}: every push must be accepted xor rejected"
        );
        assert!(
            accepted.is_disjoint(&rejected),
            "seed {seed}: an item cannot be both accepted and rejected"
        );

        let mut seen = BTreeSet::new();
        for &item in &delivered {
            assert!(
                seen.insert(item),
                "seed {seed}: item {item} delivered twice"
            );
        }
        assert_eq!(
            seen,
            accepted,
            "seed {seed}: accepted and delivered sets must match exactly \
             (lost: {:?}, conjured: {:?})",
            accepted.difference(&seen).collect::<Vec<_>>(),
            seen.difference(&accepted).collect::<Vec<_>>()
        );
        assert!(
            seen.is_disjoint(&rejected),
            "seed {seed}: a rejected item must never be delivered"
        );
    }
}
