//! A bounded MPMC request queue with a lock-free depth gauge.
//!
//! The queue is deliberately *boring*: a `VecDeque` under a mutex with
//! a condvar for blocking consumers. What makes it a serving queue is
//! the contract around it — a hard capacity so memory is bounded, a
//! [`BoundedQueue::depth`] gauge readable without the lock (the
//! admission-control signal), and non-blocking producers: `try_push`
//! never waits, because a server that blocks its admission path has
//! already lost the overload fight.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why a `BoundedQueue::try_push` was refused; carries the rejected
/// item back to the caller.
pub enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue was closed by [`BoundedQueue::close`].
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Lock-free mirror of `state.items.len()`, polled by admission
    /// control on every submit without touching the queue lock.
    depth: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// A new queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
        }
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth, without taking the lock. May lag the true
    /// length by in-flight operations — admission control only needs a
    /// watermark, not an exact count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Enqueues `item` if there is room; never blocks.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        self.depth.store(s.items.len(), Ordering::Release);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, blocking until an item arrives. Returns `None` once
    /// the queue is closed *and* drained — the consumer's signal to
    /// exit.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                self.depth.store(s.items.len(), Ordering::Release);
                return Some(item);
            }
            if s.closed {
                return None;
            }
            self.not_empty.wait(&mut s);
        }
    }

    /// Dequeues without blocking.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        let item = s.items.pop_front();
        if item.is_some() {
            self.depth.store(s.items.len(), Ordering::Release);
        }
        item
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain what is left and then see `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything still queued (used at shutdown
    /// to fail pending requests with a typed rejection).
    pub fn drain(&self) -> Vec<T> {
        let mut s = self.state.lock();
        let items = s.items.drain(..).collect();
        self.depth.store(0, Ordering::Release);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            assert!(q.try_push(i).is_ok());
        }
        assert_eq!(q.depth(), 4);
        assert!(matches!(q.try_push(9), Err(PushError::Full(9))));
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_drains_then_none() {
        let q = BoundedQueue::new(4);
        q.try_push(1).ok();
        q.try_push(2).ok();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(2));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(7).ok();
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn drain_empties_and_resets_depth() {
        let q = BoundedQueue::new(4);
        q.try_push(1).ok();
        q.try_push(2).ok();
        assert_eq!(q.drain(), vec![1, 2]);
        assert_eq!(q.depth(), 0);
    }
}
