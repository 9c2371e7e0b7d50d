//! A closeable, optionally bounded MPMC job queue: `Mutex<VecDeque>` +
//! `Condvar`, nothing fancier.  Producers [`push`](Queue::push), workers
//! block in [`pop`](Queue::pop); [`close`](Queue::close) drains
//! gracefully — queued jobs are still served, then every blocked worker
//! wakes up and receives `None`.
//!
//! A bounded queue ([`Queue::bounded`]) is the service's admission
//! valve: `push` **fast-rejects** with [`PushError::Full`] instead of
//! queueing unboundedly, so callers learn about overload at submission
//! time rather than by watching their deadline die in line.
//!
//! The queue is immune to lock poisoning: no caller-supplied code runs
//! under the lock (items are only moved in and out), so a panicking
//! thread that happened to hold it leaves the state consistent — the
//! poison flag is cleared and service continues.

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of one non-blocking attempt at the pop critical section.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPop<T> {
    /// An item was dequeued.
    Item(T),
    /// Nothing queued, queue still open — where [`pop`](Queue::pop)
    /// would block on the condvar.
    Empty,
    /// Closed and drained — where [`pop`](Queue::pop) returns `None`.
    Closed,
}

/// Why a [`push`](Queue::push) was refused; the item comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was closed; no new work is accepted.
    Closed(T),
    /// The queue is at capacity — the admission-control fast-reject.
    Full {
        item: T,
        /// The configured capacity the queue sat at.
        capacity: usize,
    },
}

pub struct Queue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    /// An unbounded queue.
    pub fn new() -> Queue<T> {
        Queue::bounded(usize::MAX)
    }

    /// A queue refusing to hold more than `capacity` items (clamped to
    /// at least 1).
    pub fn bounded(capacity: usize) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the queue, recovering from poisoning: only item moves
    /// happen under this lock, so the state is consistent even after a
    /// holder panicked.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // (loom's mutex has no clear_poison; its models never
                // panic under the lock, so recovery is unreachable.)
                #[cfg(not(loom))]
                self.inner.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// The pop critical section: exactly the state transition
    /// [`pop`](Queue::pop) performs between condvar waits.  Factored
    /// out so the exhaustive interleaving checker
    /// (`tests/protocol_model.rs`) drives the *same* code the blocking
    /// path runs.
    fn step(inner: &mut Inner<T>) -> TryPop<T> {
        if let Some(item) = inner.items.pop_front() {
            return TryPop::Item(item);
        }
        if inner.closed {
            return TryPop::Closed;
        }
        TryPop::Empty
    }

    /// One non-blocking pop attempt; [`TryPop::Empty`] is where
    /// [`pop`](Queue::pop) would block.
    pub fn try_pop(&self) -> TryPop<T> {
        Self::step(&mut self.lock())
    }

    /// Enqueues `item`, returning the queue depth including it, or hands
    /// it back if the queue is closed or full.
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full {
                item,
                capacity: self.capacity,
            });
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available; `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            match Self::step(&mut inner) {
                TryPop::Item(item) => return Some(item),
                TryPop::Closed => return None,
                TryPop::Empty => {}
            }
            inner = match self.ready.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => {
                    #[cfg(not(loom))]
                    self.inner.clear_poison();
                    poisoned.into_inner()
                }
            };
        }
    }

    /// Stops accepting new items and wakes every blocked [`pop`](Queue::pop).
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Queue<T> {
        Queue::new()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn try_pop_mirrors_pop_without_blocking() {
        let q = Queue::new();
        assert_eq!(q.try_pop(), TryPop::Empty);
        q.push(7).unwrap();
        assert_eq!(q.try_pop(), TryPop::Item(7));
        q.close();
        assert_eq!(q.try_pop(), TryPop::<i32>::Closed);
    }

    #[test]
    fn push_pop_is_fifo() {
        let q = Queue::new();
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_rejects_new_items_but_drains_old_ones() {
        let q = Queue::new();
        q.push("queued").unwrap();
        q.close();
        assert_eq!(q.push("late"), Err(PushError::Closed("late")));
        assert_eq!(q.pop(), Some("queued"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_fast_rejects_at_capacity() {
        let q = Queue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(
            q.push(3),
            Err(PushError::Full {
                item: 3,
                capacity: 2
            })
        );
        // Draining reopens admission.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(2));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Queue::<u32>::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Arc::new(Queue::new());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }
}
